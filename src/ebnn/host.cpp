#include "ebnn/host.hpp"

#include <cstring>
#include <span>
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
    out.predicted.assign(images.size(), -1);
    out.features = nn::BitMatrix(
        images.size(), static_cast<std::size_t>(cfg_.feature_bits()));
    return {
        [this, &out](const map::MappingPlan&, std::size_t first,
                     std::size_t count, const std::uint8_t* slots) {
          // One block's scratch: a slot's words, the logits and the probs.
          const auto ppf =
              static_cast<std::size_t>(cfg_.pool_h() * cfg_.pool_w());
          const std::size_t wpf = layout_.words_per_filter;
          std::vector<std::uint32_t> words(layout_.result_stride /
                                           sizeof(std::uint32_t));
          std::vector<float> logits;
          std::vector<float> probs;
          for (std::size_t k = 0; k < count; ++k) {
            // Each filter's bits start a fresh word in the slot; the
            // feature row packs them back to back.
            std::memcpy(words.data(), slots + k * layout_.result_stride,
                        layout_.result_stride);
            const std::span<std::uint32_t> row =
                out.features.row_words(first + k);
            for (std::size_t f = 0;
                 f < static_cast<std::size_t>(cfg_.filters); ++f) {
              nn::or_bits(std::span(words).subspan(f * wpf, wpf), ppf, row,
                          f * ppf);
            }
            reference_.infer_tail(row, logits, probs,
                                  out.predicted[first + k]);
          }
        },
        [this, &images, &out](const map::MappingPlan&, std::size_t first,
                              std::size_t count) {
          for (std::size_t i = first; i < first + count; ++i) {
            const EbnnActivations a = reference_.infer(images[i].data());
            out.predicted[i] = a.predicted;
            out.features.set_row(i, a.feature);
          }
        }};
  };
}

} // namespace pimdnn::ebnn
