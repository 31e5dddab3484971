// Host-side reference CNN layers.
//
// These implement the non-offloaded parts of both networks (thesis §4: "the
// Convolutional layer/functions [go] to the DPUs while the other layers are
// executed by the host") plus float reference convolutions used as golden
// models for the DPU kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/im2col.hpp"

namespace pimdnn::nn {

/// Float 2-D convolution (CHW input, OIHW weights) via im2col + GEMM.
/// `bias` may be empty.
void conv2d_f32(const ConvGeom& g, std::span<const float> input,
                std::span<const float> weights, std::span<const float> bias,
                std::span<float> output);

/// Quantized int16 convolution with Algorithm 2 output semantics,
/// the exact computation the DPUs perform for YOLOv3.
void conv2d_q16(const ConvGeom& g, std::span<const std::int16_t> input,
                std::span<const std::int16_t> weights, std::int16_t alpha,
                std::span<std::int16_t> output);

/// 2x2 (or general) max pooling over a CHW tensor of any arithmetic type.
template <typename T>
void maxpool2d(int channels, int h, int w, int pool, int stride,
               std::span<const T> input, std::span<T> output) {
  const int oh = (h - pool) / stride + 1;
  const int ow = (w - pool) / stride + 1;
  for (int c = 0; c < channels; ++c) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        T best = input[(static_cast<std::size_t>(c) * h + oy * stride) * w +
                       ox * stride];
        for (int py = 0; py < pool; ++py) {
          for (int px = 0; px < pool; ++px) {
            const T v = input[(static_cast<std::size_t>(c) * h + oy * stride +
                               py) * w + ox * stride + px];
            if (v > best) best = v;
          }
        }
        output[(static_cast<std::size_t>(c) * oh + oy) * ow + ox] = best;
      }
    }
  }
}

/// Darknet-style max pooling: output is ceil(h/stride) x ceil(w/stride);
/// windows that extend past the input edge are clipped (equivalent to
/// -inf padding). Stride-1 size-2 pools therefore keep the map size, as in
/// YOLOv3-tiny's eleventh layer.
template <typename T>
void maxpool2d_darknet(int channels, int h, int w, int pool, int stride,
                       std::span<const T> input, std::span<T> output) {
  const int oh = (h + stride - 1) / stride;
  const int ow = (w + stride - 1) / stride;
  for (int c = 0; c < channels; ++c) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        bool first = true;
        T best{};
        for (int py = 0; py < pool; ++py) {
          for (int px = 0; px < pool; ++px) {
            const int iy = oy * stride + py;
            const int ix = ox * stride + px;
            if (iy >= h || ix >= w) continue;
            const T v = input[(static_cast<std::size_t>(c) * h + iy) * w + ix];
            if (first || v > best) {
              best = v;
              first = false;
            }
          }
        }
        output[(static_cast<std::size_t>(c) * oh + oy) * ow + ox] = best;
      }
    }
  }
}

/// Per-channel batch normalization parameters, the five weight vectors the
/// thesis' LUT-creation pseudocode consumes (Algorithm 1, W0..W4).
struct BatchNormParams {
  std::vector<float> w0; ///< pre-add (bias before mean subtraction)
  std::vector<float> w1; ///< running mean
  std::vector<float> w2; ///< running stddev (divisor)
  std::vector<float> w3; ///< scale (gamma)
  std::vector<float> w4; ///< shift (beta)

  /// Number of channels/filters.
  std::size_t channels() const { return w0.size(); }

  /// Applies the BN transform of Algorithm 1 lines 9-13 to one value of
  /// channel `f`: ((x + w0 - w1) / w2) * w3 + w4.
  float apply(float x, std::size_t f) const {
    return ((x + w0[f] - w1[f]) / w2[f]) * w3[f] + w4[f];
  }
};

/// Binary activation (Algorithm 1 lines 14-17): 1 if x >= 0 else 0.
inline int binact(float x) { return x >= 0.0f ? 1 : 0; }

/// Fully-connected layer over ±1 features (the eBNN tail): logit c is
/// Σ_i w[c][i] · s_i, with s_i = +1 for a nonzero feature and -1 for a
/// zero one. Every class sums its features in order i = 0, 1, ..., so the
/// logits equal, bit for bit, the class-major loop
/// `acc += w[c * n + i] * s_i` (w · (±1) is exact: a sign flip). The
/// weights are transposed once, at construction, into blocks of kLanes
/// classes, so one pass over the features keeps a block's accumulators in
/// registers.
class SignFc {
public:
  /// Copies `weights` (classes x features, row-major).
  SignFc(std::span<const float> weights, std::size_t classes,
         std::size_t features);

  /// Writes the logit of every class for `feature` (one value per
  /// feature) into `logits` (one per class); throws UsageError on other
  /// counts.
  void logits(std::span<const int> feature, std::span<float> logits) const;

  /// Output classes.
  std::size_t classes() const { return classes_; }

private:
  /// Classes summed per pass over the features.
  static constexpr std::size_t kLanes = 16;

  std::size_t classes_;
  std::size_t features_;
  /// Weight bits, [class block][feature][lane]; padding lanes are zero.
  std::vector<std::uint32_t> wt_;
};

/// Numerically stable softmax over `logits` into `probs`.
void softmax(std::span<const float> logits, std::span<float> probs);

/// Index of the maximum element (argmax); ties resolve to the lowest index.
std::size_t argmax(std::span<const float> v);

/// Nearest-neighbor 2x upsample of a CHW tensor (YOLOv3 route path).
template <typename T>
void upsample2x(int channels, int h, int w, std::span<const T> input,
                std::span<T> output) {
  for (int c = 0; c < channels; ++c) {
    for (int y = 0; y < 2 * h; ++y) {
      for (int x = 0; x < 2 * w; ++x) {
        output[(static_cast<std::size_t>(c) * 2 * h + y) * 2 * w + x] =
            input[(static_cast<std::size_t>(c) * h + y / 2) * w + x / 2];
      }
    }
  }
}

/// Element-wise saturating add of two int16 CHW tensors (YOLOv3 shortcut).
void shortcut_q16(std::span<const std::int16_t> a,
                  std::span<const std::int16_t> b,
                  std::span<std::int16_t> out);

/// Leaky-ReLU on a quantized tensor: x if x >= 0 else x/8 (2^-3 slope,
/// the power-of-two approximation of Darknet's 0.1 used so the DPU needs
/// only shifts).
void leaky_relu_q16(std::span<std::int16_t> x);

} // namespace pimdnn::nn
