#include "ebnn/train.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/layers.hpp"

namespace pimdnn::ebnn {

TrainResult train_fc(const EbnnConfig& cfg, EbnnWeights& weights,
                     const std::vector<LabeledImage>& data,
                     const TrainConfig& tc) {
  require(!data.empty(), "train_fc: empty dataset");
  const auto nfeat = static_cast<std::size_t>(cfg.feature_bits());
  const auto nclass = static_cast<std::size_t>(cfg.classes);
  require(weights.fc.size() == nclass * nfeat, "train_fc: fc size mismatch");
  const EbnnReference ref(cfg, weights);

  // Precompute the frozen binary features as +-1 floats.
  std::vector<std::vector<float>> feats;
  feats.reserve(data.size());
  for (const auto& li : data) {
    const auto a = ref.infer(li.pixels.data());
    std::vector<float> f(nfeat);
    for (std::size_t i = 0; i < nfeat; ++i) {
      f[i] = a.feature[i] != 0 ? 1.0f : -1.0f;
    }
    feats.push_back(std::move(f));
  }

  TrainResult out;
  std::vector<float> logits(nclass);
  std::vector<float> probs(nclass);
  for (int epoch = 0; epoch < tc.epochs; ++epoch) {
    double loss = 0.0;
    std::size_t correct = 0;
    for (std::size_t s = 0; s < data.size(); ++s) {
      const auto& f = feats[s];
      const auto label = static_cast<std::size_t>(data[s].label);
      for (std::size_t c = 0; c < nclass; ++c) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < nfeat; ++i) {
          acc += weights.fc[c * nfeat + i] * f[i];
        }
        logits[c] = acc;
      }
      nn::softmax(logits, probs);
      loss -= std::log(std::max(probs[label], 1e-9f));
      if (nn::argmax(probs) == label) ++correct;
      // Gradient step: dL/dlogit_c = p_c - [c == label].
      for (std::size_t c = 0; c < nclass; ++c) {
        const float g = probs[c] - (c == label ? 1.0f : 0.0f);
        const float lr = tc.learning_rate;
        for (std::size_t i = 0; i < nfeat; ++i) {
          float& w = weights.fc[c * nfeat + i];
          w -= lr * (g * f[i] + tc.weight_decay * w);
        }
      }
    }
    out.final_loss = static_cast<float>(loss / data.size());
    out.train_accuracy =
        static_cast<float>(correct) / static_cast<float>(data.size());
  }
  return out;
}

float evaluate(const EbnnConfig& cfg, const EbnnWeights& weights,
               const std::vector<LabeledImage>& data) {
  require(!data.empty(), "evaluate: empty dataset");
  const EbnnReference ref(cfg, weights);
  std::size_t correct = 0;
  for (const auto& li : data) {
    if (ref.infer(li.pixels.data()).predicted == li.label) {
      ++correct;
    }
  }
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

} // namespace pimdnn::ebnn
