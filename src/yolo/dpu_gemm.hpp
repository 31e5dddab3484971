// The quantized GEMM DPU program — thesis §4.2.3 / Figure 4.6.
//
// The GEMM is unrolled across DPUs: DPU i receives row i of the weight
// matrix A (K int16), the whole im2col input B (K x N int16), and produces
// row i of C (N int16). Inside a DPU, tasklets parallelize over output
// columns. Two implementation variants are provided:
//
//  * `WramTiled` — output columns are processed in 256-column strips whose
//    int32 accumulators live in WRAM; B streams through WRAM in strip-sized
//    DMA reads. This is the "carefully programmed to increase the number of
//    WRAM accesses" style §4.3.3 recommends.
//  * `MramResident` — the accumulator strip itself is re-read/re-written
//    through MRAM on every k iteration and A is fetched element-by-element,
//    modeling the thesis' actual port whose "memory accesses go to MRAM"
//    and which suffered accordingly.
//
// Each multiply-accumulate multiplies a 32-bit APART by a 16-bit B element,
// so every MAC calls __mulsi3 (no 32-bit multiplier in the DPU) — this is
// the dominant cost and the reason a 416x416 YOLOv3 inference takes on the
// order of a minute on the real hardware (§4.3.1).
//
// The kernel's cost is written once, as one per-tasklet record of its
// charges (ALU statements, loop iterations, 16- and 32-bit multiplies,
// DMA cycles). The interpreted kernel is the per-operation reference.
// WramTiled's fast twin (SimMode::Fast) issues the same DMAs, applies the
// record's counts in bulk and computes with native arithmetic: it sums
// the int16 products and scales by ALPHA once per strip, exact modulo
// 2^32 (MramResident, on no hot path, interprets in both modes).
// `estimate_gemm_row_cycles` prices the same record, so it equals the
// simulated wall (tests assert it in both modes) and full-size per-layer
// latency reports need no simulated GMACs.
//
// Host side, the GEMM is one start/finish pair on runtime::run_jobs:
// start broadcasts the metadata and B, scatters the A rows (skipped on
// warm frames when `weights_tag` is still MRAM-resident) and launches;
// finish gathers C (or runs the reference on a degraded launch). The
// session stamps the host-transfer walls/bytes into `GemmResult::stats`.
// `dpu_gemm_pooled` runs it as a single chunk; split layers run it as K
// chunks across both banks (`dpu_gemm_planned`).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "map/mapper.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/pipeline.hpp"

namespace pimdnn::yolo {

/// GEMM kernel implementation variant (see file comment).
enum class GemmVariant : std::uint8_t {
  WramTiled,
  MramResident,
};

/// Columns per strip: 256 int16 outputs / 256 int32 accumulators per
/// tasklet keep 16 tasklets' buffers plus a staged A row inside 64 KB WRAM.
inline constexpr int kGemmStrip = 256;

/// Result of an offloaded GEMM.
struct GemmResult {
  /// The M x N output matrix, bit-identical to gemm_q16_reference.
  std::vector<std::int16_t> c;
  /// Launch statistics (wall = slowest DPU row). `stats.host` holds the
  /// host-side overhead of this call: program load/activation, scatter,
  /// broadcast and gather walls/bytes.
  runtime::LaunchStats stats;
  /// DPUs used (= M, one row per DPU). For a split run this is the total
  /// across all sub-launches; at most ceil(total/split) are held at once.
  std::uint32_t dpus_used = 0;
  /// Sub-launches the GEMM was carved into (1 = the unsplit executor).
  std::uint32_t split = 1;
};

/// Builds the GEMM DPU program for the given dimensions with
/// `rows_per_dpu` rows of A/C resident per DPU.
sim::DpuProgram make_gemm_program(int n, int k, GemmVariant variant,
                                  int rows_per_dpu = 1);

/// Offloads C(MxN) = clamp(alpha * A(MxK) * B(KxN) / 32) through a
/// persistent pool: the program load is cached under the
/// `(n, k, variant, rows_per_dpu)` signature, and when `weights_tag` is
/// non-empty the scattered A rows are kept MRAM-resident under
/// `(weights_tag, weights_version)` — later calls with the same tag and
/// version skip the A scatter entirely and re-send only B (the warm-frame
/// path of the YOLOv3 pipeline). C is gathered with one batched
/// prepare/push transfer; rows past M (the padded tail when
/// M % rows_per_dpu != 0) are discarded.
///
/// `rows_per_dpu = 1` is the thesis' mapping (Figure 4.6: one row of A and
/// C per DPU, all of B on every DPU); larger values implement the §6.1
/// future-work mapping that packs more work per DPU to free DPUs for other
/// frames.
/// Sentinel-aware: `n_tasklets = map::kAutoTasklets` and/or
/// `rows_per_dpu = map::kAutoRows` ask `map::Mapper` for the dimension
/// (subject to PIMDNN_MAPPING); explicit values pin the plan.
GemmResult dpu_gemm_pooled(runtime::DpuPool& pool, int m, int n, int k,
                           std::int16_t alpha,
                           std::span<const std::int16_t> a,
                           std::span<const std::int16_t> b,
                           GemmVariant variant, std::uint32_t n_tasklets,
                           runtime::OptLevel opt = runtime::OptLevel::O3,
                           int rows_per_dpu = map::kAutoRows,
                           const std::string& weights_tag = {},
                           std::uint64_t weights_version = 0);

/// Resolves the (rows_per_dpu, n_tasklets, split) mapping for an M x N x K
/// GEMM through `map::Mapper` — the single path every GEMM call site takes
/// (dpu_gemm_pooled resolves with it; YoloRunner pre-resolves per layer to
/// size its bank pools). Sentinel arguments engage the auto search /
/// PIMDNN_MAPPING; explicit values pin the plan (unpinned dimensions take
/// the thesis' values: one row per DPU, 11 tasklets). `max_split > 1`
/// additionally lets the search (or a PIMDNN_MAPPING `split=` override)
/// carve the GEMM into dual-bank sub-launches priced on the overlapped
/// two-bank timeline — only callers that execute through both banks of
/// `dpu_gemm_planned` pass it. Kernel walls are priced on `sys`, the
/// configuration of the DPUs that will run the plan.
map::MappingPlan plan_gemm_mapping(
    int m, int n, int k, GemmVariant variant, runtime::OptLevel opt,
    std::uint32_t n_tasklets = map::kAutoTasklets,
    int rows_per_dpu = map::kAutoRows, const map::Limits& limits = {},
    std::uint32_t max_split = 1,
    const runtime::UpmemConfig& sys = sim::default_config());

/// Executes a pre-resolved mapping through runtime::run_jobs: the GEMM's
/// DPU groups run as `plan.split` contiguous chunks (runtime::split_ranges),
/// chunk s on `pool_even` or `*pool_odd` by s%2, at most two in flight —
/// so chunk s+1's scatter runs while chunk s's kernel executes, exactly the
/// overlap the mapper priced. An unsplit plan is the one-chunk case on
/// `pool_even` (`pool_odd` may then be null). Output is bit-identical
/// whatever the split: every C row is produced by the same per-row
/// arithmetic, only the launch grouping changes — also under PIMDNN_FAULTS
/// (a degraded chunk reroutes just its own rows through
/// gemm_q16_reference).
///
/// When `model` is non-null, chunk s reports its measured stages to it as
/// item `model_item + s` on lane `(lane + s) % 2` (xfer: to-DPU + load
/// walls; dpu: simulated kernel wall; xfer: from-DPU wall), which the
/// model's stats attribute to lanes.
GemmResult dpu_gemm_planned(runtime::DpuPool& pool_even,
                            runtime::DpuPool* pool_odd, int m, int n, int k,
                            std::int16_t alpha,
                            std::span<const std::int16_t> a,
                            std::span<const std::int16_t> b,
                            GemmVariant variant, const map::MappingPlan& plan,
                            runtime::OptLevel opt = runtime::OptLevel::O3,
                            const std::string& weights_tag = {},
                            std::uint64_t weights_version = 0,
                            runtime::PipelineModel* model = nullptr,
                            std::size_t model_item = 0, unsigned lane = 0);

/// One-shot convenience wrapper: runs dpu_gemm_pooled on a transient
/// single-use pool (allocate + load + scatter every call — the cold path
/// the pool exists to amortize).
GemmResult dpu_gemm(int m, int n, int k, std::int16_t alpha,
                    std::span<const std::int16_t> a,
                    std::span<const std::int16_t> b, GemmVariant variant,
                    std::uint32_t n_tasklets,
                    runtime::OptLevel opt = runtime::OptLevel::O3,
                    const runtime::UpmemConfig& sys = sim::default_config(),
                    int rows_per_dpu = map::kAutoRows);

/// Exact analytic cycle count for one DPU computing `rows_per_dpu`
/// N-column rows with the given variant/tasklets/opt: prices each
/// tasklet's charge record (the one the fast twin applies) plus the
/// launch's barrier statements with sim::wall_cycles on `sys`, so it
/// equals the simulated DpuRunStats::cycles (tests assert equality).
pimdnn::Cycles estimate_gemm_row_cycles(
    int n, int k, GemmVariant variant, std::uint32_t n_tasklets,
    runtime::OptLevel opt, int rows_per_dpu = 1,
    const runtime::UpmemConfig& sys = sim::default_config());

} // namespace pimdnn::yolo
