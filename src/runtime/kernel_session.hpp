// One kernel offload through a persistent DpuPool — the shared host
// choreography layer.
//
// The thesis' two mapping schemes (§4.1.3 many-images-per-DPU eBNN, §4.2.3
// one-row-per-DPU YOLOv3 GEMM) drive the host identically: activate a
// program, broadcast the constants every DPU shares, scatter each DPU's
// payload with zero padding to the 8-byte rule, send the true (unpadded)
// item counts separately (§3.2), launch, and gather the per-DPU result
// blocks in one batched transfer while discarding the padded tail. A
// KernelSession owns exactly that lifecycle on top of a DpuPool, so every
// pipeline (eBNN, deep eBNN, YOLOv3 GEMM, the generic Offloader) is a thin
// client instead of a hand-rolled copy — the separation Gómez-Luna et al.
// (arXiv:2105.03814) show matters, because these host-side transfer/load
// overheads dominate real UPMEM workloads.
//
// A session is one offload: construct it (snapshotting the pool's host
// accounting and activating the program), move data, launch, gather, then
// call `finish()` — the returned LaunchStats carry the host-transfer
// walls/bytes of everything the session did in `LaunchStats::host`,
// uniformly across every pipeline.
//
// Residency contract (what a caller may skip re-uploading):
//  * WRAM constants (weights, LUTs) survive only while the program stays
//    active on the same logical DPUs. The pool counts the logical DPUs
//    that hold them (`DpuPool::const_dpus`; every load, remap or cache
//    reset zeroes it), and `broadcast_const` skips only while that count
//    covers the session.
//  * MRAM payloads survive program switches (each cached program owns a
//    disjoint MRAM region) but not pool resets/growth. `scatter_resident`
//    encodes this via the pool's two-phase `begin_resident`/
//    `commit_resident` (tag, version) record — committed only after the
//    upload succeeded, so a throwing transfer cannot poison the record.
//
// Fault tolerance (active only when sim::fault_plan() is enabled, so clean
// runs pay nothing): every upload is logged for replay and verified by
// read-back (repairing flipped bits through targeted rewrites); launches
// retry with exponential cycle backoff, striking faulty DPUs into the
// pool's quarantine and replaying the session's uploads onto the remapped
// healthy prefix; and when the kernel no longer fits the healthy capacity
// (or a warm session cannot replay uploads it skipped), the session
// *degrades*: `launch` returns false, transfers become no-ops, and the
// caller routes the work through its host/baseline CPU path — which is
// bit-identical to the DPU kernel by construction (that agreement is each
// pipeline's core integration test). The whole story lands in LaunchStats
// (retries, faults_absorbed, quarantined, retry_cycles, cpu_fallback) and
// the obs counters/spans (offload.retry, offload.fallback).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/host_pool.hpp"

namespace pimdnn::runtime {

/// Per-launch knobs for KernelSession::launch / launch_async.
struct LaunchOptions {
  std::uint32_t n_tasklets = 1;
  OptLevel opt = OptLevel::O3;
  /// Watchdog budget for the whole retry ladder, in modeled cycles: once
  /// the ladder's charged penalty (hang waits + retry backoff) reaches
  /// this, the launch is cooperatively cancelled into the CPU fallback —
  /// total charge stays within the deadline plus at most one backoff
  /// step, and lands in LaunchStats::retry_cycles, never wall_cycles.
  /// 0 = take the PIMDNN_DEADLINE env default (itself 0 = no deadline).
  Cycles deadline_cycles = 0;
  /// Launch attempts before the session gives up and degrades.
  std::uint32_t max_attempts = 4;
};

/// Host-side lifecycle of one kernel offload (see file comment).
class KernelSession {
public:
  /// Populates DPU `dpu`'s staging slot (zero-initialized, slot_bytes long).
  using Fill = std::function<void(std::uint32_t dpu, std::uint8_t* slot)>;
  /// Consumes item `item`'s gathered slot (slot_stride bytes of it valid).
  using Sink = std::function<void(std::size_t item, const std::uint8_t* slot)>;

  /// Snapshots the pool's host accounting, then activates the program
  /// cached under `signature` for `n_dpus` DPUs (building it on first
  /// use). All subsequent transfers/launches address the first `n_dpus`
  /// DPUs of the pool's set.
  KernelSession(DpuPool& pool, const std::string& signature,
                std::uint32_t n_dpus,
                const std::function<sim::DpuProgram()>& builder);

  KernelSession(const KernelSession&) = delete;
  KernelSession& operator=(const KernelSession&) = delete;

  /// What the activation had to do (constants gate on broadcast_const).
  DpuPool::Activation activation() const { return activation_; }

  /// DPU span this session addresses.
  std::uint32_t n_dpus() const { return n_dpus_; }

  /// Architecture configuration of the underlying pool.
  const UpmemConfig& config() const { return pool_.config(); }

  /// Execution mode the pool applies to this session's launches.
  SimMode sim_mode() const { return pool_.sim_mode(); }

  /// DPUs needed to hold `n_items` at `items_per_dpu` each.
  static std::uint32_t dpus_for(std::size_t n_items,
                                std::uint32_t items_per_dpu);

  /// Broadcasts `bytes` of `data` to `symbol` on every session DPU,
  /// padding to the 8-byte transfer rule automatically.
  void broadcast(const std::string& symbol, const void* data, MemSize bytes);

  /// Broadcasts a WRAM-resident constant, skipped (returns false) when the
  /// activation was `Active` and `DpuPool::const_dpus` covered the session.
  /// Decided once per session; a sending session zeroes the count and
  /// raises it to its span once its launch succeeds.
  bool broadcast_const(const std::string& symbol, const void* data,
                       MemSize bytes);

  /// Scatters a distinct `slot_bytes` payload to `symbol` on each session
  /// DPU: one zero-initialized staging buffer per DPU is passed to `fill`,
  /// then all are pushed in one batched transfer. `slot_bytes` must obey
  /// the 8-byte rule (it is an MRAM/WRAM slot stride, not a payload size).
  void scatter(const std::string& symbol, MemSize slot_bytes,
               const Fill& fill);

  /// Scatter of an MRAM-resident payload: skipped (returns false) when the
  /// pool still holds `(tag, version)` for the active program — the
  /// warm-frame path that keeps weights on the DPUs between batches.
  bool scatter_resident(const std::string& tag, std::uint64_t version,
                        const std::string& symbol, MemSize slot_bytes,
                        const Fill& fill);

  /// Item-oriented scatter: packs `n_items` fixed-size items
  /// (`items_per_dpu` per DPU at `item_stride` slot spacing, copying
  /// `item_bytes` from `item(i)` into each slot) and then sends each DPU
  /// its true item count as a u64 into `meta_symbol` — the "size of the
  /// non-padded buffer must be sent from the host to the DPU" rule (§3.2).
  void scatter_items(const std::string& data_symbol,
                     const std::string& meta_symbol, std::size_t n_items,
                     std::uint32_t items_per_dpu, MemSize item_stride,
                     MemSize item_bytes,
                     const std::function<const void*(std::size_t)>& item);

  /// Launches the active program on the session's DPUs. Returns true on a
  /// successful DPU launch (possibly after fault retries); false when the
  /// session degraded to the CPU-fallback path — the caller must then
  /// compute the results through its host/baseline implementation instead
  /// of gathering (gathers become no-ops). The ladder is gated by the
  /// pool's circuit breaker (an open breaker short-circuits straight to
  /// the fallback) and watched by the options' deadline (see
  /// LaunchOptions).
  bool launch(const LaunchOptions& opts);

  /// Convenience overload with default deadline/attempts.
  bool launch(std::uint32_t n_tasklets, OptLevel opt = OptLevel::O3) {
    LaunchOptions o;
    o.n_tasklets = n_tasklets;
    o.opt = opt;
    return launch(o);
  }

  /// The PIMDNN_DEADLINE default (modeled cycles; 0 = no deadline).
  /// Throws ConfigError on a malformed value, naming it.
  static Cycles default_deadline_cycles();

  /// True once the session rerouted this offload to the CPU path.
  bool degraded() const { return degraded_; }

  /// Waitable handle to an asynchronous launch (see launch_async).
  class LaunchHandle {
  public:
    LaunchHandle() = default;

    /// Blocks until the launch finished (executing other HostPool work
    /// while waiting); returns what launch() returned — false means the
    /// session degraded and the caller must run its CPU path. Safe to
    /// call repeatedly.
    bool wait();

    /// True when the handle refers to a launch.
    bool valid() const { return ok_ != nullptr; }

  private:
    friend class KernelSession;
    HostPool::TaskHandle task_;
    std::shared_ptr<bool> ok_;
  };

  /// Launches asynchronously on the process HostPool and returns a
  /// waitable handle — the double-buffered pipelines scatter the next
  /// batch on their other bank while this one runs. The caller must not
  /// touch the session (transfers, finish, another launch) until the
  /// handle's wait() returned; the session is not internally synchronized
  /// against its own in-flight launch.
  LaunchHandle launch_async(const LaunchOptions& opts);

  /// Convenience overload with default deadline/attempts.
  LaunchHandle launch_async(std::uint32_t n_tasklets,
                            OptLevel opt = OptLevel::O3) {
    LaunchOptions o;
    o.n_tasklets = n_tasklets;
    o.opt = opt;
    return launch_async(o);
  }

  /// Batched gather: pulls `items_per_dpu * slot_stride` bytes of `symbol`
  /// from every session DPU in one transfer, then hands the `n_items` real
  /// slots to `sink` in item order — the padded tail slots of the last DPU
  /// and each slot's alignment padding are discarded here, not by callers.
  void gather_items(const std::string& symbol, std::size_t n_items,
                    std::uint32_t items_per_dpu, MemSize slot_stride,
                    const Sink& sink);

  /// Appends `text` to the signature used for the obs per-signature
  /// offload summary (not the pool's program-cache key — annotations never
  /// force a reload). Pipelines annotate the resolved mapping
  /// (`MappingPlan::obs_suffix()`) here so sweeps over different mappings
  /// never aggregate into one histogram bucket.
  void annotate(const std::string& text) { annotation_ += text; }

  /// Declares what the mapping cost model predicted for this offload
  /// (`PredictedBreakdown`: kernel cycles and total host-transfer
  /// seconds). The prediction is stamped into the launch span, and
  /// `finish()` records the measured disagreement as the
  /// `obs.drift.kernel_pct` / `obs.drift.xfer_pct` histograms — the
  /// runtime half of the calibration tests, always on.
  void set_predicted(std::uint64_t kernel_cycles, double xfer_seconds) {
    pred_kernel_cycles_ = kernel_cycles;
    pred_xfer_seconds_ = xfer_seconds;
  }

  /// Stamps the host-transfer delta since construction (activation, every
  /// broadcast/scatter/gather, the launch's load walls) into the launch
  /// stats, closes the session's trace span, and records the offload under
  /// its signature (plus any annotation) in obs::Metrics. Call exactly
  /// once, after the last gather (or after a degraded launch): calling
  /// twice, or before any launch/degradation, throws UsageError and emits
  /// nothing — the sample is never double-recorded.
  LaunchStats finish();

private:
  /// One logged upload, replayable after a quarantine remap.
  struct Upload {
    std::string symbol;
    MemSize bytes = 0;     ///< per-DPU transfer length (padded)
    bool scattered = false;
    std::vector<std::uint8_t> payload;              ///< broadcast data
    std::vector<std::vector<std::uint8_t>> staged;  ///< per-DPU scatter slots
  };

  DpuSet& set() { return pool_.set(); }
  void degrade(const char* reason);
  /// Raw transfer of one upload (+ read-back verify/repair under faults).
  void transfer(const Upload& u);
  /// Read-back verification with bounded targeted rewrites; degrades on
  /// unrepairable corruption.
  void verify_upload(const Upload& u);
  /// Logs an upload for later replay (fault runs only).
  void push_upload(Upload&& u);
  /// Re-sends every logged upload (after a quarantine remap + re-load).
  void replay_uploads();
  /// Checks a resident hit's payload against its committed checksums.
  bool resident_still_valid(const std::string& symbol, MemSize slot_bytes);

  DpuPool& pool_;
  std::uint32_t n_dpus_;
  std::string signature_;
  /// obs-only signature suffix (annotate()); not part of the cache key.
  std::string annotation_;
  sim::HostXferStats host_before_;
  /// Root trace span of the whole offload; declared before `activation_` so
  /// the pool's activate/build/load spans nest inside it.
  obs::Span span_;
  DpuPool::Activation activation_ = DpuPool::Activation::Fresh;
  LaunchStats stats_;
  bool launched_ = false;
  bool finished_ = false;
  /// True when fault injection is enabled: uploads are logged + verified.
  bool fault_tolerant_ = false;
  bool degraded_ = false;
  bool consts_resident_ = false; ///< broadcast_const skips (decided once)
  std::uint32_t retries_ = 0;        ///< launch attempts repeated
  std::uint32_t absorbed_ = 0;       ///< faults absorbed (retry or repair)
  std::uint32_t quarantines_ = 0;    ///< DPUs quarantined this session
  Cycles penalty_cycles_ = 0;        ///< backoff + hang-deadline cycles
  std::vector<Upload> uploads_;      ///< replay log (fault runs only)
  std::vector<std::uint64_t> last_scatter_sums_; ///< per-DPU checksums
  std::uint64_t resident_hits_ = 0;   ///< scatter_resident skips
  std::uint64_t resident_misses_ = 0; ///< scatter_resident uploads
  std::uint64_t const_hits_ = 0;      ///< broadcast_const skips
  std::uint64_t const_misses_ = 0;    ///< broadcast_const uploads
  std::uint64_t pred_kernel_cycles_ = 0; ///< set_predicted (0 = not set)
  double pred_xfer_seconds_ = 0.0;
};

} // namespace pimdnn::runtime
