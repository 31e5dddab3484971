// The two-bank executor every pipeline dispatches through.
//
// Both of the thesis' mappings drive the host the same way — many images
// per DPU for eBNN (§4.1.3), one row per DPU for the YOLOv3 GEMM (§4.2.3).
// A runtime::KernelSession owns one offload; this file owns the dispatch
// around it, which every pipeline needs because host<->DPU transfers
// dominate real UPMEM runs (Gómez-Luna et al., arXiv:2105.03814):
//
//  * the bank pair: bank 0 created with the executor, bank 1 on first use;
//  * the two-slot in-flight ring (InFlightRing);
//  * the split choreography: a job of U DPU groups runs as
//    `split_ranges(U, K)` chunks, contiguous and ascending, so appending
//    sub-results in chunk order reproduces the unsplit output; chunk s
//    runs on bank s%2 and its stats fold under the two-bank wall rule
//    (LaunchStats::merge);
//  * the PipelineModel stage reporting, through the Chunk each start and
//    finish receives;
//  * the closing block of every `run_pipelined` (PipelineRun).
//
// A pipeline supplies only its plan request (resolve the mapping, return
// the job's shape with its start and finish), `start` (broadcast + scatter
// + KernelSession::launch_async) and `finish` (wait, gather or run the CPU
// fallback, host tail). A lone job may split across both banks; jobs with
// a neighbour overlap with it instead, one chunk each.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/kernel_session.hpp"
#include "runtime/pipeline.hpp"

namespace pimdnn::runtime {

/// One chunk's slice of a split job, in DPU groups (a GEMM's block of
/// `rows_per_dpu` rows, a batch kernel's group of `items_per_dpu` items).
/// Cutting at group boundaries keeps every DPU's work — and so its kernel
/// behaviour and CPU-fallback grouping — identical to the unsplit launch.
struct SplitRange {
  std::size_t first_unit = 0; ///< index of the first DPU group
  std::size_t n_units = 0;    ///< DPU groups in this chunk
};

/// Carves `total_units` DPU groups into at most `split` contiguous,
/// non-empty chunks of near-equal size (the first `total % split` chunks
/// get one extra group). The single source of the cut points: the mapper
/// prices with it and the executor runs with it. One range when
/// split <= 1 or total_units <= 1; none when total_units == 0.
std::vector<SplitRange> split_ranges(std::size_t total_units,
                                     std::uint32_t split);

/// The two-slot in-flight ring. The n-th `push` finishes the occupant of
/// slot n%2 (launch n-2), then starts launch n there, so at most two
/// launches are in flight and they finish in push order; `drain` finishes
/// the rest. If the ring is left by an exception, its destructor waits out
/// whatever is still in flight — without finishing it — so no launch
/// outlives the state it references. `Pending` needs a `wait()` that blocks
/// until its work is done (it may throw; the destructor swallows that).
template <class Pending>
class InFlightRing {
public:
  InFlightRing() = default;
  InFlightRing(const InFlightRing&) = delete;
  InFlightRing& operator=(const InFlightRing&) = delete;

  ~InFlightRing() {
    for (std::optional<Pending>& slot : slots_) {
      if (slot.has_value()) {
        try {
          slot->wait();
        } catch (...) {
          // Only reached while the exception that abandoned this launch
          // unwinds; that one is what the caller must see.
        }
      }
    }
  }

  template <class Start, class Finish>
  void push(Start&& start, Finish&& finish) {
    finish_slot(next_ % 2, finish);
    slots_[next_ % 2].emplace(start());
    ++next_;
  }

  template <class Finish>
  void drain(Finish&& finish) {
    finish_slot(next_ % 2, finish);
    finish_slot((next_ + 1) % 2, finish);
  }

private:
  /// Finishes slot `s` while it still holds its launch, so a throwing
  /// finish leaves the launch for the destructor to wait out.
  template <class Finish>
  void finish_slot(std::size_t s, Finish& finish) {
    if (slots_[s].has_value()) {
      finish(*slots_[s]);
      slots_[s].reset();
    }
  }

  std::optional<Pending> slots_[2];
  std::size_t next_ = 0;
};

/// Where one chunk runs and where its stages land on the modeled timeline.
struct Chunk {
  DpuPool& pool;            ///< the bank pool the chunk runs on
  unsigned bank = 0;        ///< its timeline lane
  std::size_t index = 0;    ///< position within its job
  std::size_t count = 1;    ///< chunks in its job
  SplitRange range;         ///< the job's DPU groups it covers
  std::size_t item = 0;     ///< its PipelineModel item
  PipelineModel* model = nullptr;
  LaunchStats::BankWalls* walls = nullptr; ///< its job's per-bank walls

  /// Elements [first, first + count) of a job of `n` elements packed
  /// `per_unit` to a DPU group (the last group may be partial).
  struct Window {
    std::size_t first = 0;
    std::size_t count = 0;
  };
  Window window(std::size_t n, std::size_t per_unit) const {
    const std::size_t first = range.first_unit * per_unit;
    return {first, std::min(range.n_units * per_unit, n - first)};
  }

  /// Stage reports (host<->bank transfer, kernel on the bank, host-only
  /// work); no-ops without a model.
  void xfer(Seconds s) const {
    if (model != nullptr) model->xfer_stage(item, bank, s);
  }
  void kernel(Seconds s) const {
    if (model != nullptr) model->dpu_stage(item, bank, s);
  }
  void host(Seconds s) const {
    if (model != nullptr) model->host_stage(item, s);
  }

  /// Folds this chunk's stats into its job's total (LaunchStats::merge).
  void fold(LaunchStats& total, const LaunchStats& s) const {
    total.merge(s, bank, *walls);
  }
};

/// A started chunk: the session its asynchronous launch runs on.
struct Started {
  std::unique_ptr<KernelSession> session;
  KernelSession::LaunchHandle handle;
};

/// A planned job: `units` DPU groups cut into `split` chunks, and the
/// pipeline's start and finish for one chunk of it. `start` returns only
/// once it launched; `finish` waits on the handle before touching the
/// session.
struct Job {
  std::size_t units = 0;
  std::uint32_t split = 1;
  std::function<Started(const Chunk&)> start;
  std::function<void(const Chunk&, Started&)> finish;
};

/// Plans job `j` against `pool`, the bank its first chunk runs on, just
/// before that chunk starts. `may_split` is true only for a lone job.
using Planner =
    std::function<Job(std::size_t j, DpuPool& pool, bool may_split)>;

/// Runs `n_jobs` jobs through one ring on the bank pair `bank_pool(0)` /
/// `bank_pool(1)` (bank 1 is asked for only when a second launch exists).
/// Launches are numbered across every chunk of every job in order: launch
/// L runs on `bank_pool(L % 2)` and lands on timeline lane
/// `(lane0 + L) % 2` as item `item0 + L`.
void run_jobs(std::size_t n_jobs, const Planner& plan,
              const std::function<DpuPool&(unsigned)>& bank_pool,
              PipelineModel* model = nullptr, std::size_t item0 = 0,
              unsigned lane0 = 0);

/// The telemetry around one `run_pipelined` call: opens the
/// "<name>.pipeline" span (with `count_key` = `n`) and the two-bank
/// PipelineModel; `close` runs the closing block.
class PipelineRun {
public:
  PipelineRun(const char* name, const char* count_key, std::size_t n);

  PipelineModel& model() { return model_; }

  /// Stamps the modeled makespan/serial time/speedup on the span, records
  /// the model's lane utilizations and overlap as
  /// `timeline.<name>.util.<lane>` / `timeline.<name>.overlap`, and
  /// records `latency_ms(i)` for every item under SLO series
  /// `slo_series`. Returns the model's stats.
  PipelineStats close(const char* slo_series,
                      const std::function<double(std::size_t)>& latency_ms);

private:
  const char* name_;
  std::size_t n_;
  obs::Span span_;
  PipelineModel model_;
};

/// The bank pair plus the two ways through it: one job on its own, or
/// many jobs pipelined with the modeled timeline.
class BankedExecutor {
public:
  explicit BankedExecutor(const UpmemConfig& sys);

  /// Bank `bank`'s pool (0 or 1); bank 1 is created on first use.
  DpuPool& pool(unsigned bank);

  /// Bank `bank`'s pool, or null before bank 1's first use.
  const DpuPool* find(unsigned bank) const;

  /// Cumulative host-side accounting of both banks.
  sim::HostXferStats host_stats() const;

  /// Runs `n_jobs` jobs (see run_jobs) on this executor's banks, reporting
  /// to `model` when non-null.
  void run(std::size_t n_jobs, const Planner& plan,
           PipelineModel* model = nullptr);

private:
  UpmemConfig sys_;
  DpuPool bank0_;
  std::optional<DpuPool> bank1_;
};

} // namespace pimdnn::runtime
