// Host-side orchestration of eBNN inference over a persistent DPU pool.
//
// Implements the thesis' many-images-per-DPU mapping (§4.1.3): the input
// image batch is divided by 16 (images per DPU) to get the number of DPUs;
// all DPUs run in parallel and finish at the max time of one DPU; then the
// host parses each DPU's temporary results and runs the Softmax tail per
// image. The thesis' host runs that tail serially; here it runs on the
// host pool (runtime::HostPool), core::kTailBlock images per task, and
// the modeled host stage is its measured wall.
//
// The host is a core::Offloader client: it describes its program once
// (the kernel, its image/result slots and the WRAM constants — conv
// weights plus the BN LUT or float parameters) and supplies the tail
// (repack the feature bits + FC + softmax) and the reference-model
// fallback. Feature bits stay packed: one nn::BitMatrix row per image.
// Warm batches re-send only the images + counts, and every batch's
// host-side overhead lands in LaunchStats::host.
//
// `run` and `run_pipelined` both go through the engine's two banks:
// batch i+1 is scattered onto the idle bank while batch i's kernel
// occupies the other bank's DPUs, so consecutive batches' DPU phases
// overlap in the modeled timeline (runtime::PipelineModel), and a lone
// batch may split across both banks. Each bank's launches serialize and
// banks share no mutable state, so outputs are bit-identical to serial
// unsplit `run` calls.
#pragma once

#include <cstdint>
#include <vector>

#include "core/offloader.hpp"
#include "ebnn/dpu_kernel.hpp"
#include "ebnn/model.hpp"
#include "map/plan.hpp"
#include "nn/bitpack.hpp"

namespace pimdnn::ebnn {

/// One grayscale input image (img_h * img_w bytes).
using Image = std::vector<std::uint8_t>;

/// Result of a batched inference run (core::BatchStats + outputs).
struct EbnnBatchResult : core::BatchStats {
  /// Predicted class per image, in input order.
  std::vector<int> predicted;
  /// Feature bits per image (filters * pool_h * pool_w), one row per
  /// image, as read from the DPUs — exposed so tests can compare against
  /// the golden model.
  nn::BitMatrix features;
};

/// Result of a double-buffered multi-batch run.
using EbnnPipelineResult = core::PipelineResult<EbnnBatchResult>;

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
                      runtime::OptLevel opt = runtime::OptLevel::O3) {
    return engine_.run(images, hooks(), n_tasklets, opt);
  }

  /// Runs `batches` double-buffered over two bank pools (see file
  /// comment): batch i runs on bank i%2, its scatter overlapping the
  /// other bank's in-flight kernel. At most two batches are in flight;
  /// results are bit-identical to serial `run` calls on the same inputs,
  /// also under PIMDNN_FAULTS.
  EbnnPipelineResult run_pipelined(
      const std::vector<std::vector<Image>>& batches,
      std::uint32_t n_tasklets = map::kAutoTasklets,
      runtime::OptLevel opt = runtime::OptLevel::O3) {
    return engine_.run_pipelined(batches, hooks(), n_tasklets, opt);
  }

  /// Cumulative host-side accounting of the host's pools across every
  /// batch run so far.
  sim::HostXferStats pool_host_stats() const { return engine_.host_stats(); }

private:
  /// Sizes a batch's result and binds the tail (repack + FC + softmax
  /// per image) and the reference-model fallback to it.
  core::Offloader::Bind<EbnnBatchResult> hooks() const;

  EbnnConfig cfg_;
  EbnnWeights weights_;
  EbnnLayout layout_;
  EbnnReference reference_;
  core::Offloader engine_;
};

} // namespace pimdnn::ebnn
