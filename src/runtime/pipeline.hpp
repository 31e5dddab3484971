// Resource-constrained pipeline timeline for double-buffered offload.
//
// The simulator reports DPU time in simulated cycles (at the 350 MHz DPU
// clock) and host time in measured wall seconds — so "how much faster is
// the double-buffered pipeline" cannot be read off a single real-time
// stopwatch: on the real system the DPU banks and the host run
// concurrently, but here every DPU cycle is *interpreted* on the host CPU.
// PipelineModel is the schedule that answers the question honestly: each
// executor reports its stages in the order it really issued them, with
// measured durations for host work (im2col, bias+leaky, FC tails, staging)
// and transfers, and simulated durations for DPU kernels, and the model
// lays them on a timeline under the same resource constraints the real
// machine has:
//
//  * one host lane — host compute and host<->DPU transfers serialize,
//  * one lane per DPU bank — a bank runs one kernel at a time, and a
//    transfer occupies both the host and the target bank,
//  * per-item dependency — an item's next stage starts only after its
//    previous stage finished.
//
// A synchronous executor is the degenerate schedule where every stage also
// waits for the globally previous stage; its wall is exactly the sum of
// all durations (`serial_seconds`). The pipelined executors' modeled wall
// is `makespan_seconds`; the ratio is the steady-state speedup the bench
// reports. The model is thread-safe because pipelined frame drivers run
// concurrently on the HostPool and report stages as they complete.
//
// Scheduling is greedy earliest-fit over per-resource busy-interval lists:
// a stage starts at the earliest time >= its item's readiness at which
// every resource it needs is free for the whole duration, so a later item
// backfills the host-lane gaps an earlier item's DPU phase left open. A
// stage is placed when it is reported, so where it lands depends on the
// order in which concurrent threads report: two items of 1 s host + 5 s
// bank-0 kernel and 2 s host + 1 s bank-1 kernel give a makespan of 6 s
// when the first item's host stage books first and 8 s when the second's
// does. The stage totals do not depend on that order: serial_seconds,
// host_seconds, dpu_seconds, each item's totals and the host and link
// lanes add each item's stages in its program order (enforced by the
// executors), then the items in item order. A run that reports from one
// thread reports in program order, so its whole schedule is fixed. One
// structural constraint of the double-buffered executors is kept: item i
// never starts before item i-2 finished (at most two in flight).
//
// The booked intervals are also the run's one report: stats() attributes
// the schedule to its lanes (busy time of the host lane, the transfer link
// and each bank), to its items (stage totals and latency) and to the lane
// that bounded it. The PrIM studies (Gómez-Luna et al., arXiv:2105.03814)
// show that on UPMEM hardware the host<->DPU transfers usually bound a run,
// so "which lane, and by how much" is the question that report answers.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pimdnn::runtime {

/// Busy time of one lane of the schedule.
struct LaneUsage {
  std::string name;           ///< "host", "link", or "bank0"/"bank1"/...
  Seconds busy_seconds = 0.0; ///< stage time booked on the lane
  double utilization = 0.0;   ///< busy_seconds / makespan (0 when empty)
};

/// Stage totals of one item (frame or batch) of the schedule.
struct FrameUsage {
  Seconds host_seconds = 0.0;    ///< host-compute stage time
  Seconds xfer_seconds = 0.0;    ///< transfer stage time
  Seconds dpu_seconds = 0.0;     ///< kernel stage time
  Seconds latency_seconds = 0.0; ///< first-stage start to last-stage end
};

/// Aggregate of one pipelined run over the modeled timeline, and its
/// attribution to lanes and items.
struct PipelineStats {
  std::size_t items = 0;           ///< frames / batches scheduled
  Seconds makespan_seconds = 0.0;  ///< modeled overlapped wall time
  Seconds serial_seconds = 0.0;    ///< the same stages laid end to end
  Seconds host_seconds = 0.0;      ///< host-lane busy time (incl. transfers)
  Seconds dpu_seconds = 0.0;       ///< summed bank busy kernel time
  /// "host" (compute + transfers), "link" (transfers alone), then
  /// "bank<b>" (transfers + kernels) for every bank of the model.
  std::vector<LaneUsage> lanes;
  /// One entry per item, indexed by item.
  std::vector<FrameUsage> per_frame;
  /// Lane that bounded the run: the busiest of the host lane and the banks,
  /// reported as "link" when the host lane's busy time is mostly transfers
  /// (the link is a share of both, so it never competes on its own).
  std::string critical_lane;
  /// busy(critical) / makespan: 1.0 means that lane never idled.
  double critical_utilization = 0.0;
  /// busy(critical) - busy(runner up): how much the bounding lane
  /// out-occupies the next busiest resource.
  Seconds critical_margin_seconds = 0.0;

  /// serial / makespan: how much faster the overlapped schedule is than
  /// the synchronous one (1.0 when nothing overlapped or nothing ran).
  double speedup() const {
    return makespan_seconds > 0.0 ? serial_seconds / makespan_seconds : 1.0;
  }

  /// 1 - makespan/serial: the fraction of serial time hidden by overlap.
  double overlap_efficiency() const {
    return serial_seconds > 0.0 ? 1.0 - makespan_seconds / serial_seconds
                                : 0.0;
  }
};

/// Thread-safe timeline builder (see file comment). An item's stages must
/// be reported in its program order; stages of different items may be
/// reported in any interleaving, which keeps the stage totals but may move
/// the placement.
class PipelineModel {
public:
  /// `n_banks` independent DPU lanes (2 for the double-buffered pipelines).
  explicit PipelineModel(unsigned n_banks);

  /// Host-only stage (im2col, bias+leaky, FC tail, result unpack).
  void host_stage(std::size_t item, Seconds duration);

  /// Host<->bank transfer: occupies the host lane and `bank`.
  void xfer_stage(std::size_t item, unsigned bank, Seconds duration);

  /// DPU kernel on `bank` (simulated seconds); the host lane stays free.
  void dpu_stage(std::size_t item, unsigned bank, Seconds duration);

  /// Modeled overlapped wall of the schedule built so far.
  Seconds makespan() const;

  /// Snapshot of the schedule built so far, with its attribution.
  PipelineStats stats() const;

private:
  /// What a stage holds: host compute the host lane, a transfer the host
  /// lane and its bank, a kernel only its bank.
  enum class Kind { Host, Xfer, Dpu };

  /// One occupied interval on a resource lane.
  struct Busy {
    Seconds start, end;
  };

  /// One item's readiness and stage totals.
  struct Item {
    Seconds ready = 0.0;        ///< completion time of its last stage
    Seconds first_start = -1.0; ///< start of its first stage (-1: none yet)
    Seconds host = 0.0, xfer = 0.0, dpu = 0.0;
  };

  Item& item_at(std::size_t item);
  /// The booking sequence every stage goes through: account the stage,
  /// fit it at the earliest time its lanes are all free, book it there.
  void book(std::size_t item, Kind kind, unsigned bank, Seconds duration);
  /// Earliest start >= `earliest` at which [start, start+duration) is free
  /// on every lane in `lanes` (indices into lanes_).
  Seconds earliest_fit(const unsigned* lanes, std::size_t n_lanes,
                       Seconds earliest, Seconds duration) const;
  /// Books [start, end) on a lane, keeping the interval list sorted.
  void occupy(unsigned lane, Seconds start, Seconds end);

  mutable std::mutex mu_;
  /// lanes_[0] is the host lane; lanes_[1 + b] is bank b.
  std::vector<std::vector<Busy>> lanes_;
  std::vector<Item> items_;
  Seconds makespan_ = 0.0;
};

} // namespace pimdnn::runtime
