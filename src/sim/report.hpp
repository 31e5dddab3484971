// Human-readable launch reports: the simulator's equivalent of reading
// dpu-profiling output plus the back-of-envelope cycle decomposition the
// thesis does by hand in §4.3 (issue-bound vs DMA-bound vs latency-bound,
// per-tasklet balance, subroutine hot spots).
#pragma once

#include <iosfwd>

#include "sim/dpu.hpp"

namespace pimdnn::sim {

/// Which of the three pipeline bounds determined a run's cycle count.
enum class CycleBound : std::uint8_t {
  Issue,   ///< Σ issue slots: the pipeline was kept full
  Dma,     ///< Σ DMA cycles: the MRAM interface was the bottleneck
  Latency, ///< S·slots + dma of the slowest tasklet: under-threaded
};

/// Classifies which bound produced `stats.cycles`.
CycleBound dominant_bound(const DpuRunStats& stats,
                          const UpmemConfig& cfg = default_config());

/// Printable name of a bound.
const char* cycle_bound_name(CycleBound b);

/// Tasklet load imbalance: slowest tasklet's cycles over the mean
/// (1.0 = perfectly balanced). Returns 0 for empty runs.
double tasklet_imbalance(const DpuRunStats& stats,
                         const UpmemConfig& cfg = default_config());

/// Writes a multi-line report for one DPU launch: totals, bound
/// classification, per-tasklet table and subroutine profile.
void print_report(std::ostream& os, const DpuRunStats& stats,
                  const UpmemConfig& cfg = default_config());

/// Host-side transfer/orchestration accounting for one or more launches.
/// Filled in by the runtime layer (DpuSet accumulates, DpuPool snapshots
/// per-launch deltas into LaunchStats); defined here so reports can render
/// host overhead next to the DPU-side cycle bounds — the §4.3 host-path
/// costs (allocate, load, scatter, gather) the paper identifies but never
/// itemizes.
struct HostXferStats {
  Seconds to_dpu_seconds = 0.0;   ///< wall time in host->DPU transfers
  Seconds from_dpu_seconds = 0.0; ///< wall time in DPU->host transfers
  Seconds load_seconds = 0.0;     ///< wall time (re)loading DPU programs
  std::uint64_t bytes_to_dpu = 0;   ///< bytes moved host->DPU
  std::uint64_t bytes_from_dpu = 0; ///< bytes moved DPU->host
  std::uint64_t program_loads = 0;  ///< set-wide program (re)loads
  /// Activations served from a pool's program cache: the program was not
  /// rebuilt (and, for the already-active program, not even reloaded).
  std::uint64_t cached_activations = 0;

  /// Accumulates another record into this one.
  HostXferStats& operator+=(const HostXferStats& o);

  /// Total host-side wall seconds (transfers + loads).
  Seconds host_seconds() const {
    return to_dpu_seconds + from_dpu_seconds + load_seconds;
  }
};

/// Component-wise `after - before`, for snapshotting a cumulative counter
/// around one launch.
HostXferStats host_xfer_delta(const HostXferStats& after,
                              const HostXferStats& before);

/// Writes a short report of host-side overheads (transfer walls, bytes,
/// program loads vs cache hits).
void print_host_xfer_report(std::ostream& os, const HostXferStats& h);

} // namespace pimdnn::sim
