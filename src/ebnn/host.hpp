// Host-side orchestration of eBNN inference over a persistent DPU pool.
//
// Implements the thesis' many-images-per-DPU mapping (§4.1.3): the input
// image batch is divided by 16 (images per DPU) to get the number of DPUs;
// all DPUs run in parallel and finish at the max time of one DPU; then the
// host parses each DPU's temporary results and serially runs the Softmax
// tail per image.
//
// All host choreography goes through runtime::KernelSession: the program
// is built once and cached by the host's pool, the conv weights and
// BN-LUT are broadcast only when an activation rebuilt or reloaded the
// program (warm batches re-send only the images + counts), results are
// gathered in one batched transfer, and every batch's host-side overhead
// lands in LaunchStats::host.
//
// `run` and `run_pipelined` both go through runtime::BankedExecutor:
// batch i+1 is scattered onto the idle bank while batch i's kernel
// occupies the other bank's DPUs (`KernelSession::launch_async`), so
// consecutive batches' DPU phases overlap in the modeled timeline
// (runtime::PipelineModel), and a lone batch may split across both banks.
// Each bank's launches serialize and banks share no mutable state, so
// outputs are bit-identical to serial unsplit `run` calls.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ebnn/dpu_kernel.hpp"
#include "ebnn/model.hpp"
#include "map/plan.hpp"
#include "obs/timeline.hpp"
#include "runtime/banked_executor.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/pipeline.hpp"

namespace pimdnn::ebnn {

/// One grayscale input image (img_h * img_w bytes).
using Image = std::vector<std::uint8_t>;

/// Result of a batched inference run.
struct EbnnBatchResult {
  /// Predicted class per image, in input order.
  std::vector<int> predicted;
  /// Feature bits per image (filters * pool_h * pool_w), as read from the
  /// DPUs — exposed so tests can compare against the golden model.
  std::vector<std::vector<int>> features;
  /// Aggregate launch statistics (wall cycles = slowest DPU).
  runtime::LaunchStats launch;
  /// DPUs used for this batch (total across sub-launches when split).
  std::uint32_t dpus_used = 0;
  /// Measured host tail of this batch (feature unpack + FC + softmax; the
  /// whole reference inference on a degraded batch).
  Seconds host_tail_seconds = 0.0;
  /// Sub-launches the batch was carved into (1 = the unsplit executor; >1
  /// when the mapper chose a dual-bank split plan).
  std::uint32_t split = 1;
};

/// Result of a double-buffered multi-batch run.
struct EbnnPipelineResult {
  /// Per-batch results, bit-identical to serial `run` calls.
  std::vector<EbnnBatchResult> batches;
  /// Modeled overlapped timeline vs. the serial equivalent.
  runtime::PipelineStats pipeline;
  /// Independent reconstruction from the emitted `pipe.stage` spans;
  /// present only when tracing was enabled for the run.
  std::optional<obs::TimelineReport> timeline;
};

/// Host application that owns the weights and drives DPU batches.
class EbnnHost {
public:
  /// Builds the host app; `mode` picks soft-float vs LUT BN-BinAct and
  /// `kernel` the convolution window-gather implementation.
  EbnnHost(const EbnnConfig& cfg, EbnnWeights weights, BnMode mode,
           const runtime::UpmemConfig& sys = sim::default_config(),
           ConvKernel kernel = ConvKernel::Scalar);

  /// Runs a batch of images. `n_tasklets` defaults to the `map::Mapper`
  /// sentinel: images-per-DPU and tasklets come from the cost-model search
  /// (or PIMDNN_MAPPING). An explicit count (<= 16) pins the thesis'
  /// mapping: 16 images per DPU, the given tasklets. `opt` is the
  /// simulated compiler optimization level.
  EbnnBatchResult run(const std::vector<Image>& images,
                      std::uint32_t n_tasklets = map::kAutoTasklets,
                      runtime::OptLevel opt = runtime::OptLevel::O3);

  /// Runs `batches` double-buffered over two bank pools (see file
  /// comment): batch i runs on bank i%2, its scatter overlapping the
  /// other bank's in-flight kernel. At most two batches are in flight;
  /// results are bit-identical to serial `run` calls on the same inputs,
  /// also under PIMDNN_FAULTS.
  EbnnPipelineResult run_pipelined(
      const std::vector<std::vector<Image>>& batches,
      std::uint32_t n_tasklets = map::kAutoTasklets,
      runtime::OptLevel opt = runtime::OptLevel::O3);

  /// The configuration in use.
  const EbnnConfig& config() const { return cfg_; }

  /// The weights in use.
  const EbnnWeights& weights() const { return weights_; }

  /// The BN-BinAct mode in use.
  BnMode mode() const { return mode_; }

  /// The convolution kernel variant in use.
  ConvKernel kernel() const { return kernel_; }

  /// Cumulative host-side accounting of the host's pools across every
  /// batch run so far.
  sim::HostXferStats pool_host_stats() const { return banks_.host_stats(); }

private:
  /// The plan request: resolves the (images_per_dpu, tasklets, split)
  /// mapping for `images` against `pool`'s health picture (a lone batch may
  /// split across both banks) and returns the job that runs it into `out`.
  runtime::Job plan_job(const std::vector<Image>& images,
                        EbnnBatchResult& out, runtime::DpuPool& pool,
                        bool may_split, std::uint32_t n_tasklets,
                        runtime::OptLevel opt);

  /// Broadcast + scatter + async launch of the images chunk `c` covers;
  /// the scatter's to-DPU + load walls are the chunk's transfer stage.
  runtime::Started start_batch(const runtime::Chunk& c,
                               const std::vector<Image>& images,
                               const map::MappingPlan& plan,
                               runtime::OptLevel opt);

  /// Waits for the launch, gathers, and runs the host tail (or the
  /// reference model on a degraded launch) over the chunk's images,
  /// appending them to `out`. Reports the kernel's simulated wall, the
  /// gather wall and the measured tail as the chunk's stages.
  void finish_batch(const runtime::Chunk& c, runtime::Started& started,
                    const std::vector<Image>& images,
                    const map::MappingPlan& plan, EbnnBatchResult& out);

  EbnnConfig cfg_;
  EbnnWeights weights_;
  BnMode mode_;
  ConvKernel kernel_;
  EbnnLayout layout_;
  BnBinactLut lut_;
  EbnnReference reference_;
  runtime::BankedExecutor banks_;
};

} // namespace pimdnn::ebnn
