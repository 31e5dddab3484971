#include "ebnn/model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/bitpack.hpp"

namespace pimdnn::ebnn {

EbnnWeights EbnnWeights::random(const EbnnConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  EbnnWeights w;
  w.conv_bits.resize(static_cast<std::size_t>(cfg.filters));
  for (int f = 0; f < cfg.filters; ++f) {
    std::uint32_t bits = 0;
    for (int k = 0; k < cfg.taps(); ++k) {
      if (rng.sign() > 0) {
        bits |= (std::uint32_t{1} << k);
      }
    }
    w.conv_bits[static_cast<std::size_t>(f)] = bits;
  }

  const auto nf = static_cast<std::size_t>(cfg.filters);
  w.bn.w0.resize(nf);
  w.bn.w1.resize(nf);
  w.bn.w2.resize(nf);
  w.bn.w3.resize(nf);
  w.bn.w4.resize(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    w.bn.w0[f] = static_cast<float>(rng.uniform(-1.0, 1.0));
    w.bn.w1[f] = static_cast<float>(rng.uniform(-2.0, 2.0));
    // Divisor: keep |w2| in [0.5, 2.5] so BN stays well conditioned.
    w.bn.w2[f] = static_cast<float>(rng.uniform(0.5, 2.5)) *
                 static_cast<float>(rng.sign());
    w.bn.w3[f] = static_cast<float>(rng.uniform(0.25, 1.5));
    w.bn.w4[f] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  w.fc.resize(static_cast<std::size_t>(cfg.classes) *
              static_cast<std::size_t>(cfg.feature_bits()));
  for (auto& v : w.fc) {
    v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return w;
}

EbnnActivations EbnnReference::infer(const std::uint8_t* image) const {
  EbnnActivations a;
  const int H = cfg_.img_h;
  const int W = cfg_.img_w;
  const int CH = cfg_.conv_h();
  const int CW = cfg_.conv_w();
  const int PH = cfg_.pool_h();
  const int PW = cfg_.pool_w();
  const int F = cfg_.filters;
  const int K = cfg_.ksize;

  // 1. Binarize the input.
  a.input_bits.resize(static_cast<std::size_t>(H) * W);
  for (int i = 0; i < H * W; ++i) {
    a.input_bits[static_cast<std::size_t>(i)] =
        image[i] >= cfg_.binarize_threshold ? 1 : 0;
  }

  // 2. Binary convolution: sum over taps of (input bit == weight bit ? +1 : -1).
  a.conv.assign(static_cast<std::size_t>(F) * CH * CW, 0);
  for (int f = 0; f < F; ++f) {
    const std::uint32_t wf = w_.conv_bits[static_cast<std::size_t>(f)];
    for (int y = 0; y < CH; ++y) {
      for (int x = 0; x < CW; ++x) {
        int acc = 0;
        for (int ky = 0; ky < K; ++ky) {
          for (int kx = 0; kx < K; ++kx) {
            const int in =
                a.input_bits[static_cast<std::size_t>(y + ky) * W + (x + kx)];
            const int wb =
                static_cast<int>((wf >> (ky * K + kx)) & 1u);
            acc += (in == wb) ? 1 : -1;
          }
        }
        a.conv[(static_cast<std::size_t>(f) * CH + y) * CW + x] = acc;
      }
    }
  }

  // 3. 2x2 max pool.
  a.pooled.assign(static_cast<std::size_t>(F) * PH * PW, 0);
  nn::maxpool2d<int>(F, CH, CW, cfg_.pool, cfg_.pool, a.conv, a.pooled);

  // 4. BatchNorm + Binary Activation per filter (Figure 4.2a).
  a.feature.assign(a.pooled.size(), 0);
  for (int f = 0; f < F; ++f) {
    for (int i = 0; i < PH * PW; ++i) {
      const std::size_t idx = static_cast<std::size_t>(f) * PH * PW + i;
      const float bnv =
          w_.bn.apply(static_cast<float>(a.pooled[idx]),
                      static_cast<std::size_t>(f));
      a.feature[idx] = nn::binact(bnv);
    }
  }

  // 5. Host tail: FC + softmax.
  infer_tail(a.feature, a.logits, a.probs, a.predicted);
  return a;
}

void EbnnReference::infer_tail(const std::vector<int>& feature,
                               std::vector<float>& logits,
                               std::vector<float>& probs,
                               int& predicted) const {
  logits.resize(fc_.classes());
  fc_.logits(feature, logits);
  probs.resize(logits.size());
  nn::softmax(logits, probs);
  predicted = static_cast<int>(nn::argmax(probs));
}

} // namespace pimdnn::ebnn
