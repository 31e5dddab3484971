// eBNN model definition and float golden reference.
//
// The thesis adopts "a custom architecture for eBNN ... one
// Convolutional-Pooling block, followed by a Softmax layer" (§4.1.1). The
// Conv-Pool block is binary: binarized input, binarized 3x3 weights, integer
// convolution outputs (XNOR + popcount), 2x2 max pooling, then BatchNorm +
// Binary Activation (BN-BinAct). The BN-BinAct stage is the only float
// computation — the part Chapter 4 moves into a LUT.
//
// `EbnnReference` computes the whole network on the host in float/integer
// exactly once per stage; the DPU kernel must match it bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"

namespace pimdnn::ebnn {

/// Static hyper-parameters of the eBNN instance.
struct EbnnConfig {
  int img_h = 28;      ///< MNIST image height
  int img_w = 28;      ///< MNIST image width
  int filters = 16;    ///< convolution filters
  int ksize = 3;       ///< square kernel side (valid padding)
  int pool = 2;        ///< max-pool window and stride
  int classes = 10;    ///< output classes (digits)
  std::uint8_t binarize_threshold = 128; ///< input pixel -> bit threshold

  /// Convolution output height (valid padding).
  int conv_h() const { return img_h - ksize + 1; }
  /// Convolution output width.
  int conv_w() const { return img_w - ksize + 1; }
  /// Pooled height.
  int pool_h() const { return (conv_h() - pool) / pool + 1; }
  /// Pooled width.
  int pool_w() const { return (conv_w() - pool) / pool + 1; }
  /// Feature bits per image leaving the Conv-Pool block.
  int feature_bits() const { return filters * pool_h() * pool_w(); }
  /// Taps per filter.
  int taps() const { return ksize * ksize; }
  /// Smallest possible conv output (all taps mismatch): -taps.
  int conv_min() const { return -taps(); }
  /// Largest possible conv output: +taps.
  int conv_max() const { return taps(); }
};

/// Model parameters: binary conv weights, BN parameters, float FC weights.
struct EbnnWeights {
  /// Per-filter packed kernel sign bits (bit k = tap k, row-major taps).
  std::vector<std::uint32_t> conv_bits;
  /// BatchNorm parameters, W0..W4 per filter (Algorithm 1).
  nn::BatchNormParams bn;
  /// Fully-connected weights, classes x feature_bits, host-side float.
  std::vector<float> fc;

  /// Deterministically random weights for a given seed. BN divisors (W2)
  /// are kept away from zero so the transform is well defined.
  static EbnnWeights random(const EbnnConfig& cfg, std::uint64_t seed);
};

/// Intermediate and final results of a reference inference.
struct EbnnActivations {
  /// Binarized input, img_h*img_w values in {0,1}.
  std::vector<int> input_bits;
  /// Integer conv outputs, filters x conv_h x conv_w, in [-taps, +taps].
  std::vector<int> conv;
  /// Max-pooled integer outputs, filters x pool_h x pool_w.
  std::vector<int> pooled;
  /// BN-BinAct output bits, filters x pool_h x pool_w.
  std::vector<int> feature;
  /// FC logits, one per class.
  std::vector<float> logits;
  /// Softmax probabilities.
  std::vector<float> probs;
  /// Predicted class.
  int predicted = -1;
};

/// Float/integer golden model of the full eBNN pipeline.
class EbnnReference {
public:
  /// Binds the model to a config and weights (borrowed; caller keeps them
  /// alive). The FC weights are copied here, so later changes to `w.fc`
  /// need a new reference.
  EbnnReference(const EbnnConfig& cfg, const EbnnWeights& w)
      : cfg_(cfg),
        w_(w),
        fc_(w.fc, static_cast<std::size_t>(cfg.classes),
            static_cast<std::size_t>(cfg.feature_bits())) {}

  /// Runs the whole network on one 8-bit grayscale image (img_h*img_w).
  EbnnActivations infer(const std::uint8_t* image) const;

  /// Runs only the host-side tail (FC + softmax) on a feature bitmap, as
  /// the host does with DPU results (§4.1.3: the host "serially sends a
  /// single image's processed result to the softmax layer for inference").
  void infer_tail(const std::vector<int>& feature, std::vector<float>& logits,
                  std::vector<float>& probs, int& predicted) const;

  /// The bound configuration.
  const EbnnConfig& config() const { return cfg_; }

private:
  const EbnnConfig& cfg_;
  const EbnnWeights& w_;
  nn::SignFc fc_;
};

} // namespace pimdnn::ebnn
