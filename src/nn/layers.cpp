#include "nn/layers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "nn/bitpack.hpp"
#include "nn/gemm.hpp"

namespace pimdnn::nn {

void conv2d_f32(const ConvGeom& g, std::span<const float> input,
                std::span<const float> weights, std::span<const float> bias,
                std::span<float> output) {
  const int m = g.gemm_m();
  const int k = g.gemm_k();
  const int n = g.gemm_n();
  require(output.size() >= static_cast<std::size_t>(m) * n,
          "conv2d_f32: output too small");
  std::vector<float> cols(static_cast<std::size_t>(k) * n);
  im2col<float>(g, input, cols);
  std::fill(output.begin(), output.begin() + static_cast<std::size_t>(m) * n,
            0.0f);
  gemm_f32_reference(m, n, k, 1.0f, weights, cols, output);
  if (!bias.empty()) {
    require(bias.size() >= static_cast<std::size_t>(m),
            "conv2d_f32: bias too small");
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        output[static_cast<std::size_t>(i) * n + j] += bias[i];
      }
    }
  }
}

void conv2d_q16(const ConvGeom& g, std::span<const std::int16_t> input,
                std::span<const std::int16_t> weights, std::int16_t alpha,
                std::span<std::int16_t> output) {
  const int m = g.gemm_m();
  const int k = g.gemm_k();
  const int n = g.gemm_n();
  std::vector<std::int16_t> cols(static_cast<std::size_t>(k) * n);
  im2col<std::int16_t>(g, input, cols);
  gemm_q16_reference(m, n, k, alpha, weights, cols, output);
}

SignFc::SignFc(std::span<const float> weights, std::size_t classes,
               std::size_t features)
    : classes_(classes), features_(features) {
  require(classes > 0 && weights.size() == classes * features,
          "SignFc: weights must be classes x features");
  const std::size_t blocks = (classes + kLanes - 1) / kLanes;
  wt_.assign(blocks * features * kLanes, 0u);
  for (std::size_t c = 0; c < classes; ++c) {
    std::uint32_t* dst =
        wt_.data() + c / kLanes * features * kLanes + c % kLanes;
    for (std::size_t i = 0; i < features; ++i) {
      dst[i * kLanes] = std::bit_cast<std::uint32_t>(weights[c * features + i]);
    }
  }
}

namespace {

/// Four float or uint32 lanes: one SSE register (GCC/Clang vector
/// extension), so the FC's accumulators are registers, not memory.
using Lanes4f = float __attribute__((vector_size(16)));
using Lanes4u = std::uint32_t __attribute__((vector_size(16)));

} // namespace

void SignFc::logits(std::span<const std::uint32_t> feature,
                    std::span<float> logits) const {
  static_assert(kLanes == 16, "SignFc::logits keeps four 4-lane sums");
  require(feature.size() == words_for_bits(features_) &&
              logits.size() == classes_,
          "SignFc: feature or logit count mismatch");
  const std::uint32_t* w = wt_.data();
  for (std::size_t c0 = 0; c0 < classes_; c0 += kLanes) {
    // Starting from +0, as the class-major loop does, keeps every sum's
    // bits; w · (-1) flips w's sign bit.
    Lanes4f a0{};
    Lanes4f a1{};
    Lanes4f a2{};
    Lanes4f a3{};
    for (std::size_t i = 0; i < features_; ++i, w += kLanes) {
      // Bit 31 set for a clear feature bit.
      const std::uint32_t f = ~feature[i / 32] >> (i % 32) << 31;
      const Lanes4u flip = {f, f, f, f};
      const auto term = [w, flip](std::size_t k) {
        Lanes4u v;
        std::memcpy(&v, w + 4 * k, sizeof v);
        return std::bit_cast<Lanes4f>(v ^ flip);
      };
      a0 += term(0);
      a1 += term(1);
      a2 += term(2);
      a3 += term(3);
    }
    const std::array<Lanes4f, 4> acc = {a0, a1, a2, a3};
    std::memcpy(logits.data() + c0, acc.data(),
                std::min(kLanes, classes_ - c0) * sizeof(float));
  }
}

void softmax(std::span<const float> logits, std::span<float> probs) {
  require(probs.size() >= logits.size(), "softmax: output too small");
  require(!logits.empty(), "softmax of empty vector");
  const float mx = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - mx);
    sum += probs[i];
  }
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = static_cast<float>(probs[i] / sum);
  }
}

std::size_t argmax(std::span<const float> v) {
  require(!v.empty(), "argmax of empty vector");
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

void shortcut_q16(std::span<const std::int16_t> a,
                  std::span<const std::int16_t> b,
                  std::span<std::int16_t> out) {
  require(a.size() == b.size() && out.size() >= a.size(),
          "shortcut_q16: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int32_t s =
        static_cast<std::int32_t>(a[i]) + static_cast<std::int32_t>(b[i]);
    out[i] = static_cast<std::int16_t>(std::clamp(s, -32767, 32767));
  }
}

void leaky_relu_q16(std::span<std::int16_t> x) {
  for (auto& v : x) {
    if (v < 0) {
      v = static_cast<std::int16_t>(v / 8);
    }
  }
}

} // namespace pimdnn::nn
