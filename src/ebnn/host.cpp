#include "ebnn/host.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"

namespace pimdnn::ebnn {

namespace {

/// The eBNN batch program: the conv weights and the BN stage (LUT or float
/// parameters) are its WRAM constants; its kernel is priced on `sys`.
core::BatchProgram ebnn_batch_program(const EbnnConfig& cfg,
                                      const EbnnWeights& w, BnMode mode,
                                      ConvKernel kernel,
                                      const runtime::UpmemConfig& sys) {
  const EbnnLayout layout = ebnn_layout(cfg);
  core::BatchProgram p;
  p.signature = "ebnn";
  p.build = [cfg, mode, kernel] {
    return make_ebnn_program(cfg, mode, kernel);
  };
  p.pipeline = "ebnn";
  p.capacity = layout.max_images;
  p.item_bytes = static_cast<MemSize>(cfg.img_h) * cfg.img_w;
  p.in_stride = layout.image_stride;
  p.out_stride = layout.result_stride;
  p.in_symbol = symbols::kImages;
  p.out_symbol = symbols::kResults;
  p.consts.push_back({symbols::kConvWeights, to_bytes(w.conv_bits)});
  if (mode == BnMode::HostLut) {
    p.consts.push_back({symbols::kBnLut, build_bn_binact_lut(cfg, w.bn).table});
  } else {
    std::vector<float> bn;
    for (const auto* v : {&w.bn.w0, &w.bn.w1, &w.bn.w2, &w.bn.w3, &w.bn.w4}) {
      bn.insert(bn.end(), v->begin(), v->end());
    }
    p.consts.push_back({symbols::kBnParams, to_bytes(bn)});
  }
  p.kernel_cost = [cfg, mode, kernel, sys](std::uint32_t items,
                                           std::uint32_t t,
                                           runtime::OptLevel opt) {
    return estimate_ebnn_wall_cycles(cfg, mode, kernel, items, t, opt, sys);
  };
  return p;
}

} // namespace

EbnnHost::EbnnHost(const EbnnConfig& cfg, EbnnWeights weights, BnMode mode,
                   const runtime::UpmemConfig& sys, ConvKernel kernel)
    : cfg_(cfg),
      weights_(std::move(weights)),
      layout_(ebnn_layout(cfg)),
      reference_(cfg_, weights_),
      engine_(ebnn_batch_program(cfg_, weights_, mode, kernel, sys), sys) {}

core::Offloader::Bind<EbnnBatchResult> EbnnHost::hooks() const {
  return [this](const std::vector<Image>& images,
                EbnnBatchResult& out) -> core::BatchHooks {
    // The tail runs once per image, serially: its logits and probs are
    // scratch it reuses across the batch.
    return {
        [this, &out, logits = std::vector<float>(),
         probs = std::vector<float>()](const map::MappingPlan&, std::size_t,
                                       const std::uint8_t* slot) mutable {
          // Unpack the packed feature words, then FC + softmax.
          const auto ppf =
              static_cast<std::size_t>(cfg_.pool_h() * cfg_.pool_w());
          std::vector<int> feature(
              static_cast<std::size_t>(cfg_.feature_bits()));
          for (std::size_t f = 0; f < static_cast<std::size_t>(cfg_.filters);
               ++f) {
            const std::uint8_t* row =
                slot + f * layout_.words_per_filter * sizeof(std::uint32_t);
            int* dst = feature.data() + f * ppf;
            for (std::size_t p0 = 0; p0 < ppf; p0 += 32) {
              std::uint32_t word;
              std::memcpy(&word, row + p0 / 32 * sizeof(word), sizeof(word));
              const std::size_t n = std::min<std::size_t>(32, ppf - p0);
              for (std::size_t b = 0; b < n; ++b) {
                dst[p0 + b] = static_cast<int>((word >> b) & 1u);
              }
            }
          }
          int predicted = -1;
          reference_.infer_tail(feature, logits, probs, predicted);
          out.predicted.push_back(predicted);
          out.features.push_back(std::move(feature));
        },
        [this, &images, &out](const map::MappingPlan&, std::size_t first,
                              std::size_t count) {
          for (std::size_t i = 0; i < count; ++i) {
            EbnnActivations a = reference_.infer(images[first + i].data());
            out.predicted.push_back(a.predicted);
            out.features.push_back(std::move(a.feature));
          }
        }};
  };
}

} // namespace pimdnn::ebnn
