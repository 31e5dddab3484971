// Quantized YOLOv3 network runner.
//
// Host/DPU split per thesis §4.2.3: only the GEMM inside each convolution
// is delegated to the DPUs (quantization, bias, activation, shortcut,
// route, upsample and the YOLO heads stay on the host). Layers execute
// serially on a persistent DpuPool owned by the runner: the pool is sized
// once for the widest layer, each layer's GEMM program load is cached by
// its dimension signature, and the scattered weight rows stay
// MRAM-resident between frames — so warm frames re-send only the im2col
// input (and the network's DPU time is still the sum of per-layer wall
// times, Figure 4.6). Host-side bias+activation post-processing runs on
// the process-wide runtime::HostPool. The CPU mode runs the identical
// integer arithmetic on the host; DPU and CPU modes must agree
// bit-for-bit.
//
// `run_pipelined` is the double-buffered multi-frame executor: the runner
// keeps TWO bank pools (ping/pong, a runtime::BankedExecutor), frames
// alternate banks through its two-slot ring, and while bank A's frame
// occupies its DPUs, bank B's frame runs its host stages (im2col,
// quantized GEMM scatter, bias+leaky) — so consecutive frames'
// DPU phases overlap in the modeled timeline (runtime::PipelineModel)
// exactly as two UPMEM rank groups would. Outputs are bit-identical to
// running the frames back-to-back through `run`: each bank serializes its
// own frames, banks share no mutable state, and the integer arithmetic is
// untouched.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/banked_executor.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/pipeline.hpp"
#include "sim/profile.hpp"
#include "yolo/config.hpp"
#include "yolo/dpu_gemm.hpp"

namespace pimdnn::yolo {

/// Where the convolutions' GEMMs execute.
enum class ExecMode : std::uint8_t {
  Cpu,      ///< host reference (golden model / baseline)
  DpuWram,  ///< DPUs, WRAM-tiled kernel
  DpuMram,  ///< DPUs, MRAM-resident kernel (the thesis-style port)
};

/// Per-layer quantized parameters.
struct YoloWeights {
  /// One entry per layer; only convolutional entries are populated.
  struct Conv {
    std::vector<std::int16_t> w;    ///< OIHW flattened, M x K
    std::vector<std::int16_t> bias; ///< per filter, added on the host
    std::int16_t alpha = 1;         ///< Algorithm 2's ALPHA scale
  };
  std::vector<Conv> conv;

  /// Deterministic random weights for a layer list.
  static YoloWeights random(const std::vector<LayerDef>& defs, int in_c,
                            std::uint64_t seed);
};

/// Timing/shape record for one executed layer.
struct LayerStats {
  LayerType type;
  int out_c = 0;
  int out_h = 0;
  int out_w = 0;
  std::int64_t macs = 0;       ///< conv layers only
  std::uint32_t dpus = 0;      ///< DPUs used (conv layers in DPU modes)
  Cycles cycles = 0;           ///< wall cycles of the layer's DPU launch
  Seconds seconds = 0.0;       ///< cycles at 350 MHz
};

/// Options for one inference. The mapping fields default to the
/// `map::Mapper` sentinels: per-layer rows/tasklets come from the
/// cost-model search (or PIMDNN_MAPPING). Explicit values pin the plan;
/// unpinned dimensions then take the thesis' values (rows=1, 11 tasklets).
struct RunOptions {
  ExecMode mode = ExecMode::DpuWram;
  std::uint32_t n_tasklets = map::kAutoTasklets;
  runtime::OptLevel opt = runtime::OptLevel::O3;
  /// Rows of A/C packed per DPU (1 = the thesis' row-per-DPU mapping).
  int rows_per_dpu = map::kAutoRows;
  /// Keep every layer's output tensor in YoloRunResult::outputs. When
  /// false, an output is freed as soon as the last route/shortcut layer
  /// that references it has consumed it (its slot is left empty); outputs
  /// of Yolo heads and of the final layer are always retained.
  bool retain_all_outputs = true;
};

/// Result of one inference.
struct YoloRunResult {
  /// Output tensor of every layer (CHW int16), index-aligned with defs.
  /// Slots may be empty when the run disabled retain_all_outputs (see
  /// RunOptions).
  std::vector<std::vector<std::int16_t>> outputs;
  /// Per-layer stats.
  std::vector<LayerStats> layers;
  /// Sum of per-layer wall cycles (layers are serialized).
  Cycles total_cycles = 0;
  /// Total DPU seconds for the frame.
  Seconds total_seconds = 0.0;
  /// Merged subroutine profile over all launches.
  sim::SubroutineProfile profile;
  /// Host-side overhead of this frame (program loads/activations, scatter,
  /// broadcast and gather walls/bytes). Warm frames show smaller
  /// bytes_to_dpu (no A scatter) and cached activations.
  sim::HostXferStats host;
  /// Measured host compute of this frame: im2col, bias+activation, CPU
  /// GEMMs, and the non-conv layer bodies (shortcut/route/upsample/
  /// maxpool). Excludes the simulator's own interpretation overhead.
  Seconds host_compute_seconds = 0.0;

  /// Modeled wall time of the frame run synchronously: measured host
  /// transfer walls + measured host compute + simulated DPU seconds. The
  /// pipelined executor's PipelineStats::makespan_seconds is directly
  /// comparable to the sum of this over the same frames.
  Seconds frame_wall_seconds() const {
    return host.host_seconds() + host_compute_seconds + total_seconds;
  }
};

/// Result of a double-buffered multi-frame run.
struct YoloPipelineResult {
  /// Per-frame results, bit-identical to serial `run` calls.
  std::vector<YoloRunResult> frames;
  /// Modeled overlapped timeline vs. the serial equivalent, and its
  /// lane attribution.
  runtime::PipelineStats pipeline;
};

/// Network executor bound to a config and weights.
class YoloRunner {
public:
  /// Binds the runner; validates the config against the input shape.
  YoloRunner(std::vector<LayerDef> defs, YoloWeights weights, int in_c,
             int in_h, int in_w,
             const runtime::UpmemConfig& sys = sim::default_config());

  /// Runs one frame (CHW int16 input of the bound shape). The first DPU
  /// frame is "cold" (programs built, weights scattered); later frames
  /// reuse the runner's pool and skip the weight scatter.
  YoloRunResult run(std::span<const std::int16_t> input,
                    const RunOptions& opts) const;

  /// Convenience overload with the historical signature.
  YoloRunResult run(std::span<const std::int16_t> input, ExecMode mode,
                    std::uint32_t n_tasklets = 11,
                    runtime::OptLevel opt = runtime::OptLevel::O3) const;

  /// Runs `frames` through the double-buffered two-bank executor (see
  /// file comment). Requires a DPU mode. Frame i runs on bank i%2; at most
  /// two frames are in flight and each bank's frames serialize, so results
  /// are bit-identical to serial `run` calls on the same inputs — also
  /// under PIMDNN_FAULTS (each frame self-heals independently). The
  /// returned PipelineStats hold the modeled overlapped makespan; its
  /// serial_seconds equals the sum of the frames' stage durations.
  YoloPipelineResult run_pipelined(
      const std::vector<std::vector<std::int16_t>>& frames,
      const RunOptions& opts) const;

  /// Cumulative host-side accounting of the runner's pool across all
  /// frames run so far (zero before the first DPU-mode frame).
  sim::HostXferStats pool_host_stats() const;

  /// Each conv layer's mapping plan through `map::Mapper` (index-aligned
  /// with defs(); other layers keep a default plan), fitted to the
  /// tightest bank's healthy capacity. `run` and `run_pipelined` resolve
  /// their plans here once per call, size the bank pools for them and run
  /// every frame on them; benches read the chosen rows/tasklets/split and
  /// predicted breakdowns without executing the network. `max_split > 1`
  /// lets the mapper carve a layer's GEMM into that many dual-bank
  /// sub-launches: single-frame runs pass map::kMaxSplitFactor, multi-frame
  /// pipelined runs, which already overlap across frames, pass 1.
  std::vector<map::MappingPlan> layer_plans(const RunOptions& opts,
                                            std::uint32_t max_split = 1) const;

  /// Analytic per-layer cycle estimates for this config at any input size,
  /// without computing the network (exact for the simulated kernels; used
  /// for full-size 416x416 reports). `rows_per_dpu` matches the run-time
  /// mapping: a conv layer reports ceil(M / rows_per_dpu) DPUs and the
  /// per-DPU cycle count for its row block.
  static std::vector<LayerStats> estimate(const std::vector<LayerDef>& defs,
                                          int in_c, int in_h, int in_w,
                                          GemmVariant variant,
                                          std::uint32_t n_tasklets,
                                          runtime::OptLevel opt,
                                          int rows_per_dpu = 1);

  /// The bound layer list.
  const std::vector<LayerDef>& defs() const { return defs_; }

  /// Bound input channel count / height / width.
  int in_c() const { return in_c_; }
  int in_h() const { return in_h_; }
  int in_w() const { return in_w_; }

private:
  /// Per-bank im2col scratch, reused across layers and frames (im2col
  /// writes every element, so no clearing is needed between uses).
  struct Scratch {
    std::vector<std::int16_t> cols;
  };

  /// Ensures bank `bank`'s pool exists and covers the widest layer of this
  /// config (so no mid-frame growth resets its program/residency cache).
  /// A split layer only ever holds ceil(n_dpus / split) DPUs per bank at
  /// once, so that is what it contributes to the peak.
  void reserve_bank(unsigned bank,
                    const std::vector<map::MappingPlan>& plans) const;

  /// One frame through bank `bank` (its pool and im2col scratch); `plans`
  /// (layer_plans, with the banks already sized for them) is null in CPU
  /// mode. When `model` is non-null, each layer's stages are reported to
  /// it as item `item` on lane `bank` (host: im2col/postprocess/non-conv
  /// bodies; xfer: the GEMM's measured to-DPU + load and from-DPU walls;
  /// dpu: the launch's simulated wall seconds).
  ///
  /// Every conv layer runs its plan from `plans` and plans nothing itself.
  /// A plan with `split > 1` runs as chunks across both banks, and the
  /// model items then advance past `item` so each chunk occupies its own
  /// slot of the overlapped timeline; any other plan runs as one chunk on
  /// the frame's bank.
  YoloRunResult run_frame(std::span<const std::int16_t> input,
                          const RunOptions& opts,
                          runtime::PipelineModel* model, unsigned bank,
                          std::size_t item,
                          const std::vector<map::MappingPlan>* plans) const;

  std::vector<LayerDef> defs_;
  YoloWeights weights_;
  int in_c_, in_h_, in_w_;
  /// layer_shapes(defs_, in_c_, in_h_, in_w_), worked out once.
  std::vector<LayerShape> shapes_;
  /// Activation lifetimes: last_use_[i] is the last layer whose route or
  /// shortcut reads output i (i itself when none does), and defs_.size()
  /// for the outputs every run keeps (Yolo heads and the final layer).
  std::vector<std::size_t> last_use_;
  runtime::UpmemConfig sys_;
  /// Ping/pong bank pools. `run` uses bank 0 (plus bank 1 for split
  /// layers); `run_pipelined` alternates both. Each holds its own cached
  /// GEMM programs and MRAM-resident weight rows. Mutable: running a frame
  /// is logically const but warms the pools.
  mutable runtime::BankedExecutor banks_;
  mutable Scratch bank_scratch_[2];
  /// layer_plans memo, keyed on the run options *and* the banks'
  /// health epochs — quarantine and reintegration both bump an epoch, so
  /// plans re-fit the true healthy capacity after either transition
  /// (obs: map.plan.hit / map.plan.miss). Only touched on the dispatch
  /// thread, before any frame task runs.
  mutable std::vector<map::MappingPlan> plan_cache_;
  mutable std::string plan_cache_key_;
};

} // namespace pimdnn::yolo
