// MappingSpace: candidate enumeration under the hardware constraints.
//
// The enumerators produce the feasible values of each mapping dimension —
// GEMM rows per DPU bounded by the WRAM A-stage budget and the DPU-count
// cap, images/items per DPU bounded by the program's WRAM-derived
// capacity, tasklets bounded by the program's buffer allocation — as
// small sorted candidate lists the Mapper prices exhaustively. The paper
// value (rows=1, items=capacity) is always among the candidates, so the
// argmin can never be worse than the thesis' fixed mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "map/constraints.hpp"

namespace pimdnn::runtime {
class DpuPool;
}

namespace pimdnn::map {

/// Largest split factor the mapper ever considers. Beyond ~8 sub-launches
/// the per-launch fixed costs (broadcast replication, launch overhead)
/// swamp the shrinking overlap win on every workload we model.
inline constexpr std::uint32_t kMaxSplitFactor = 8;

/// Split-factor candidates: powers of two in [2, min(max_split,
/// total_units, kMaxSplitFactor)]. Empty when no split is possible (fewer
/// than two DPU groups to cut between).
std::vector<std::uint32_t> split_candidates(std::size_t total_units,
                                            std::uint32_t max_split);

/// External caps on the search (pool size, hardware tasklet ceiling).
struct Limits {
  /// Maximum DPUs a plan may use; 0 = unlimited. A quarantine-reduced
  /// pool lowers this, forcing more rows/items per DPU.
  std::uint32_t max_dpus = 0;
  /// Maximum tasklets per DPU the program supports.
  std::uint32_t max_tasklets = kMaxGemmTasklets;
};

/// Limits for planning on `pool`: its health picture caps the DPU count —
/// quarantines shrink the usable capacity, reintegrations restore it — and
/// a clean pool plans the full system (max_dpus 0).
Limits pool_limits(const runtime::DpuPool& pool);

/// Feasible rows_per_dpu candidates for an M x K GEMM: a geometric ladder
/// from the smallest feasible value (>= ceil(M / max_dpus) under a DPU
/// cap) to min(WRAM fit, M), always including both endpoints and 1 when
/// feasible. Empty when no value satisfies both the WRAM budget and the
/// DPU cap.
std::vector<int> gemm_rows_candidates(int m, int k, const Limits& limits);

/// Tasklet candidates 1..max (geometric plus the endpoints and the
/// 11-stage pipeline depth, the paper's saturation point).
std::vector<std::uint32_t> tasklet_candidates(std::uint32_t max_tasklets);

/// Items-per-DPU candidates for a batched kernel with per-DPU `capacity`
/// slots: every value in [ceil(n_items / max_dpus), capacity] when that
/// range is small, a geometric ladder otherwise. Empty when the DPU cap
/// makes even `capacity` items per DPU insufficient.
std::vector<std::uint32_t> batch_items_candidates(std::uint32_t capacity,
                                                  std::size_t n_items,
                                                  const Limits& limits);

} // namespace pimdnn::map
