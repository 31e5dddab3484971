// Multi-block (deep) eBNN — the depth-parameterized extension.
//
// The thesis evaluates a single Conv-Pool block (§4.1.1) and leaves as
// future work finding "the exact depth or size of a CNN that is best for
// UPMEM's system" (§6.1). This module stacks B binary Conv-Pool-BN-BinAct
// blocks, exactly in the eBNN style: block 0 consumes the binarized input
// image; block b>0 consumes the previous block's binary feature map as a
// multi-channel binary tensor, so its convolution accumulates over
// C_in * K * K XNOR taps. Every block's BN-BinAct is replaced by a
// host-built LUT whose input range is +-(C_in * K * K).
//
// The DPU mapping stays many-images-per-DPU, but the per-tasklet WRAM
// footprint grows with depth/width, so the images-per-DPU capacity is
// derived from the WRAM budget instead of being fixed at 16 — which is
// itself one of the answers to the thesis' depth question.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/offloader.hpp"
#include "ebnn/host.hpp"
#include "ebnn/lut.hpp"
#include "ebnn/model.hpp"
#include "nn/bitpack.hpp"

namespace pimdnn::ebnn {

/// One Conv-Pool block of the deep network.
struct DeepBlockConfig {
  int filters = 16; ///< output channels of this block
};

/// Whole-network configuration.
struct DeepEbnnConfig {
  int img_h = 28;
  int img_w = 28;
  int ksize = 3;
  int pool = 2;
  int classes = 10;
  std::uint8_t binarize_threshold = 128;
  std::vector<DeepBlockConfig> blocks{{16}};
};

/// Shape facts per block (validated; throws ConfigError on degenerate
/// geometry).
struct DeepBlockDims {
  int in_c, in_h, in_w;  ///< block input (binary bits)
  int conv_h, conv_w;    ///< after the valid convolution
  int out_h, out_w;      ///< after pooling
  int taps;              ///< in_c * ksize * ksize accumulation length
};

/// Computes and validates all block dimensions.
std::vector<DeepBlockDims> deep_dims(const DeepEbnnConfig& cfg);

/// Feature bits leaving the last block.
int deep_feature_bits(const DeepEbnnConfig& cfg);

/// Exact analytic kernel wall of one DPU holding `n_images` images run
/// with `n_tasklets` tasklets — prices the deep kernel's per-tasklet
/// charge record (the one its fast twin applies) with sim::wall_cycles on
/// `sys` (the calibration tests assert equality with the simulated
/// DpuRunStats in both sim modes). This is the kernel-cost callback `map::Mapper`
/// searches with.
Cycles estimate_deep_ebnn_wall_cycles(
    const DeepEbnnConfig& cfg, std::uint32_t n_images,
    std::uint32_t n_tasklets, runtime::OptLevel opt,
    const runtime::UpmemConfig& sys = sim::default_config());

/// Weights: per block, per filter, per input channel packed tap bits;
/// per block BN parameters; float FC tail.
struct DeepEbnnWeights {
  /// conv[b] has blocks[b].filters * in_c words; word (f*in_c + c) holds
  /// the K*K tap bits of filter f, channel c.
  std::vector<std::vector<std::uint32_t>> conv;
  /// BN parameters per block.
  std::vector<nn::BatchNormParams> bn;
  /// FC tail: classes x deep_feature_bits.
  std::vector<float> fc;

  /// Deterministic random weights.
  static DeepEbnnWeights random(const DeepEbnnConfig& cfg,
                                std::uint64_t seed);
};

/// Host golden model: full inference for one image; also exposes the
/// final feature bits for DPU comparison.
struct DeepEbnnActivations {
  std::vector<int> feature; ///< last block's bits, channel-major
  std::vector<float> probs;
  int predicted = -1;
};

/// Reference (host) implementation of the deep network.
class DeepEbnnReference {
public:
  /// Binds the model to a config and weights (borrowed; caller keeps them
  /// alive). The FC weights are copied here.
  DeepEbnnReference(const DeepEbnnConfig& cfg, const DeepEbnnWeights& w);

  /// Full inference of one grayscale image.
  DeepEbnnActivations infer(const std::uint8_t* image) const;

  /// Runs only the host-side tail (FC + softmax) on the last block's
  /// feature bits, packed as nn::bitpack_bits packs them, as the host does
  /// with DPU results; `logits` and `probs` are reusable scratch, resized
  /// to the class count.
  void infer_tail(std::span<const std::uint32_t> feature,
                  std::vector<float>& logits, std::vector<float>& probs,
                  int& predicted) const;

private:
  const DeepEbnnConfig& cfg_;
  const DeepEbnnWeights& w_;
  std::vector<DeepBlockDims> dims_;
  nn::SignFc fc_;
};

/// Result of a batched deep-eBNN DPU run (core::BatchStats + outputs).
struct DeepEbnnBatchResult : core::BatchStats {
  /// Predicted class per image, in input order.
  std::vector<int> predicted;
  /// The last block's feature bits, one row per image.
  nn::BitMatrix features;
};

/// Result of a double-buffered multi-batch deep-eBNN run.
using DeepEbnnPipelineResult = core::PipelineResult<DeepEbnnBatchResult>;

/// Host app mapping the deep network onto DPUs (LUT BN-BinAct only —
/// the single-block soft-float ablation already covers the float story).
class DeepEbnnHost {
public:
  DeepEbnnHost(const DeepEbnnConfig& cfg, DeepEbnnWeights weights,
               const runtime::UpmemConfig& sys = sim::default_config());

  /// Runs a batch. `n_tasklets` defaults to the `map::Mapper` sentinel:
  /// images per DPU and tasklets come from the cost-model search,
  /// PIMDNN_MAPPING honored; the paper mapping fills the WRAM capacity with
  /// one tasklet per image slot. An explicit count pins capacity-filling
  /// images with that many tasklets.
  DeepEbnnBatchResult run(const std::vector<Image>& images,
                          std::uint32_t n_tasklets = map::kAutoTasklets,
                          runtime::OptLevel opt = runtime::OptLevel::O3) {
    return engine_.run(images, hooks(), n_tasklets, opt);
  }

  /// Runs `batches` double-buffered over two bank pools, exactly like
  /// EbnnHost::run_pipelined: batch i runs on bank i%2, its scatter
  /// overlapping the other bank's in-flight kernel. Results are
  /// bit-identical to serial `run` calls on the same inputs.
  DeepEbnnPipelineResult run_pipelined(
      const std::vector<std::vector<Image>>& batches,
      std::uint32_t n_tasklets = map::kAutoTasklets,
      runtime::OptLevel opt = runtime::OptLevel::O3) {
    return engine_.run_pipelined(batches, hooks(), n_tasklets, opt);
  }

  /// Images one DPU can hold given the WRAM budget (1..16).
  std::uint32_t images_per_dpu() const { return images_per_dpu_; }

  /// Cumulative host-side accounting of the host's pools across every
  /// batch run so far.
  sim::HostXferStats pool_host_stats() const { return engine_.host_stats(); }

private:
  /// Sizes a batch's result and binds the tail (copy the feature bits +
  /// FC + softmax per image) and the reference-model fallback to it.
  core::Offloader::Bind<DeepEbnnBatchResult> hooks() const;

  DeepEbnnConfig cfg_;
  DeepEbnnWeights weights_;
  DeepEbnnReference reference_;
  std::uint32_t images_per_dpu_;
  core::Offloader engine_;
};

} // namespace pimdnn::ebnn
