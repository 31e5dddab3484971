#include "ebnn/deep.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "ebnn/charges.hpp"
#include "nn/bitpack.hpp"
#include "nn/layers.hpp"

namespace pimdnn::ebnn {

using sim::MemKind;
using sim::TaskletCtx;

std::vector<DeepBlockDims> deep_dims(const DeepEbnnConfig& cfg) {
  if (cfg.blocks.empty()) {
    throw ConfigError("deep eBNN needs at least one block");
  }
  std::vector<DeepBlockDims> out;
  int c = 1;
  int h = cfg.img_h;
  int w = cfg.img_w;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    DeepBlockDims d;
    d.in_c = c;
    d.in_h = h;
    d.in_w = w;
    d.conv_h = h - cfg.ksize + 1;
    d.conv_w = w - cfg.ksize + 1;
    if (d.conv_h < cfg.pool || d.conv_w < cfg.pool) {
      throw ConfigError("deep eBNN: block " + std::to_string(b) +
                        " input " + std::to_string(h) + "x" +
                        std::to_string(w) + " is too small");
    }
    d.out_h = (d.conv_h - cfg.pool) / cfg.pool + 1;
    d.out_w = (d.conv_w - cfg.pool) / cfg.pool + 1;
    d.taps = d.in_c * cfg.ksize * cfg.ksize;
    out.push_back(d);
    c = cfg.blocks[b].filters;
    h = d.out_h;
    w = d.out_w;
  }
  return out;
}

int deep_feature_bits(const DeepEbnnConfig& cfg) {
  const auto dims = deep_dims(cfg);
  const auto& last = dims.back();
  return cfg.blocks.back().filters * last.out_h * last.out_w;
}

DeepEbnnWeights DeepEbnnWeights::random(const DeepEbnnConfig& cfg,
                                        std::uint64_t seed) {
  const auto dims = deep_dims(cfg);
  Rng rng(seed);
  DeepEbnnWeights w;
  w.conv.resize(cfg.blocks.size());
  w.bn.resize(cfg.blocks.size());
  const int k2 = cfg.ksize * cfg.ksize;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const int f = cfg.blocks[b].filters;
    const int c = dims[b].in_c;
    w.conv[b].resize(static_cast<std::size_t>(f) * c);
    for (auto& word : w.conv[b]) {
      word = 0;
      for (int t = 0; t < k2; ++t) {
        if (rng.sign() > 0) {
          word |= std::uint32_t{1} << t;
        }
      }
    }
    auto& bn = w.bn[b];
    const auto nf = static_cast<std::size_t>(f);
    bn.w0.resize(nf);
    bn.w1.resize(nf);
    bn.w2.resize(nf);
    bn.w3.resize(nf);
    bn.w4.resize(nf);
    // Center the BN around the conv output's typical scale so deeper
    // blocks do not saturate to constant bits.
    const double span = dims[b].taps;
    for (std::size_t i = 0; i < nf; ++i) {
      bn.w0[i] = static_cast<float>(rng.uniform(-span / 8, span / 8));
      bn.w1[i] = static_cast<float>(rng.uniform(-span / 4, span / 4));
      bn.w2[i] = static_cast<float>(rng.uniform(0.5, 2.5)) *
                 static_cast<float>(rng.sign());
      bn.w3[i] = static_cast<float>(rng.uniform(0.25, 1.5));
      bn.w4[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  w.fc.resize(static_cast<std::size_t>(cfg.classes) *
              static_cast<std::size_t>(deep_feature_bits(cfg)));
  for (auto& v : w.fc) {
    v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return w;
}

DeepEbnnReference::DeepEbnnReference(const DeepEbnnConfig& cfg,
                                     const DeepEbnnWeights& w)
    : cfg_(cfg),
      w_(w),
      dims_(deep_dims(cfg)),
      fc_(w.fc, static_cast<std::size_t>(cfg.classes),
          static_cast<std::size_t>(deep_feature_bits(cfg))) {
  require(w.conv.size() == cfg.blocks.size() &&
              w.bn.size() == cfg.blocks.size(),
          "deep eBNN weights/config mismatch");
}

namespace {

/// One block on the host: binary multi-channel conv + pool + BN-BinAct.
/// `in` is channel-major bytes in {0,1}; returns the output bit map.
std::vector<int> run_block_reference(const DeepEbnnConfig& cfg,
                                     const DeepBlockDims& d, int filters,
                                     const std::vector<std::uint32_t>& conv_w,
                                     const nn::BatchNormParams& bn,
                                     const std::vector<int>& in) {
  const int K = cfg.ksize;
  std::vector<int> out(static_cast<std::size_t>(filters) * d.out_h *
                       d.out_w);
  std::vector<int> conv(static_cast<std::size_t>(d.conv_h) * d.conv_w);
  for (int f = 0; f < filters; ++f) {
    for (int y = 0; y < d.conv_h; ++y) {
      for (int x = 0; x < d.conv_w; ++x) {
        int acc = 0;
        for (int c = 0; c < d.in_c; ++c) {
          const std::uint32_t wf =
              conv_w[static_cast<std::size_t>(f) * d.in_c + c];
          for (int ky = 0; ky < K; ++ky) {
            for (int kx = 0; kx < K; ++kx) {
              const int bit =
                  in[(static_cast<std::size_t>(c) * d.in_h + y + ky) *
                         d.in_w +
                     (x + kx)];
              const int wb = static_cast<int>((wf >> (ky * K + kx)) & 1u);
              acc += (bit == wb) ? 1 : -1;
            }
          }
        }
        conv[static_cast<std::size_t>(y) * d.conv_w + x] = acc;
      }
    }
    for (int py = 0; py < d.out_h; ++py) {
      for (int px = 0; px < d.out_w; ++px) {
        int best = conv[static_cast<std::size_t>(py * cfg.pool) * d.conv_w +
                        px * cfg.pool];
        for (int dy = 0; dy < cfg.pool; ++dy) {
          for (int dx = 0; dx < cfg.pool; ++dx) {
            best = std::max(
                best,
                conv[static_cast<std::size_t>(py * cfg.pool + dy) *
                         d.conv_w +
                     px * cfg.pool + dx]);
          }
        }
        const float bnv = bn.apply(static_cast<float>(best),
                                   static_cast<std::size_t>(f));
        out[(static_cast<std::size_t>(f) * d.out_h + py) * d.out_w + px] =
            nn::binact(bnv);
      }
    }
  }
  return out;
}

} // namespace

DeepEbnnActivations DeepEbnnReference::infer(
    const std::uint8_t* image) const {
  std::vector<int> map(static_cast<std::size_t>(cfg_.img_h) * cfg_.img_w);
  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] = image[i] >= cfg_.binarize_threshold ? 1 : 0;
  }
  for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
    map = run_block_reference(cfg_, dims_[b], cfg_.blocks[b].filters,
                              w_.conv[b], w_.bn[b], map);
  }

  DeepEbnnActivations a;
  a.feature = std::move(map);
  std::vector<float> logits;
  infer_tail(nn::bitpack_bits(a.feature), logits, a.probs, a.predicted);
  return a;
}

void DeepEbnnReference::infer_tail(std::span<const std::uint32_t> feature,
                                   std::vector<float>& logits,
                                   std::vector<float>& probs,
                                   int& predicted) const {
  logits.resize(fc_.classes());
  fc_.logits(feature, logits);
  probs.resize(logits.size());
  nn::softmax(logits, probs);
  predicted = static_cast<int>(nn::argmax(probs));
}

// ---- DPU side ---------------------------------------------------------------

namespace {

/// Geometry + WRAM offsets baked into the kernel closure.
struct DeepKernelParams {
  DeepEbnnConfig cfg;
  std::vector<DeepBlockDims> dims;
  std::vector<MemSize> conv_w_offsets; ///< word offset of each block's taps
  std::vector<MemSize> lut_offsets;    ///< byte offset of each block's LUT
  std::vector<int> lut_mins;           ///< per-block LUT input minimum
  MemSize image_stride;
  MemSize result_stride;
  std::size_t map_bytes;  ///< per-tasklet size of each ping-pong map
  std::size_t conv_elems; ///< per-tasklet conv buffer (int16 elements)
  std::uint32_t capacity; ///< images per DPU
  MemSize conv_words;     ///< conv tap words over all blocks
  MemSize lut_bytes;      ///< LUT bytes over all blocks
};

void deep_tasklet(TaskletCtx& ctx, const DeepKernelParams& p) {
  const DeepEbnnConfig& cfg = p.cfg;
  const int K = cfg.ksize;
  require(ctx.n_tasklets() <= p.capacity,
          "deep eBNN: tasklets exceed image slots");

  auto meta = ctx.wram_span<std::uint64_t>("meta");
  ctx.charge_alu(1);
  const std::uint64_t n_images = meta[0];

  auto conv_w = ctx.wram_span<std::uint32_t>("conv_w");
  auto luts = ctx.wram_span<std::uint8_t>("luts");
  auto map_a_all = ctx.wram_span<std::uint8_t>("map_a");
  auto map_b_all = ctx.wram_span<std::uint8_t>("map_b");
  auto conv_all = ctx.wram_span<std::int16_t>("conv_buf");
  auto feat_all = ctx.wram_span<std::uint32_t>("feat_buf");

  std::uint8_t* map_a = map_a_all.data() + ctx.id() * p.map_bytes;
  std::uint8_t* map_b = map_b_all.data() + ctx.id() * p.map_bytes;
  std::int16_t* conv = conv_all.data() + ctx.id() * p.conv_elems;
  const std::size_t feat_words = p.result_stride / sizeof(std::uint32_t);
  std::uint32_t* feat = feat_all.data() + ctx.id() * feat_words;

  const MemSize images_base = ctx.mram_addr("images");
  const MemSize results_base = ctx.mram_addr("results");
  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg.img_h) * cfg.img_w;

  for (std::uint64_t im = ctx.id(); im < n_images;
       im += ctx.n_tasklets()) {
    // 1. Image in, binarize into map_a.
    ctx.mram_read(map_a, images_base + im * p.image_stride, img_bytes);
    ctx.charge_loop(img_bytes);
    ctx.charge_alu(3 * img_bytes);
    for (std::size_t i = 0; i < img_bytes; ++i) {
      map_a[i] = map_a[i] >= cfg.binarize_threshold ? 1 : 0;
    }

    // 2. Blocks, ping-ponging between map_a and map_b.
    std::uint8_t* in = map_a;
    std::uint8_t* out = map_b;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      const DeepBlockDims& d = p.dims[b];
      const int filters = cfg.blocks[b].filters;
      const std::uint32_t* wtaps = conv_w.data() + p.conv_w_offsets[b];
      const std::uint8_t* lut = luts.data() + p.lut_offsets[b];
      const int lut_min = p.lut_mins[b];
      const std::uint32_t tap_mask = (std::uint32_t{1} << (K * K)) - 1;

      for (int f = 0; f < filters; ++f) {
        // Multi-channel binary convolution.
        for (int y = 0; y < d.conv_h; ++y) {
          for (int x = 0; x < d.conv_w; ++x) {
            std::int32_t acc = 0;
            for (int c = 0; c < d.in_c; ++c) {
              ctx.charge_loop(static_cast<std::uint64_t>(K * K) + 1);
              ctx.charge_alu(3 * static_cast<std::uint64_t>(K * K) + 1);
              std::uint32_t win = 0;
              for (int ky = 0; ky < K; ++ky) {
                for (int kx = 0; kx < K; ++kx) {
                  const std::uint32_t bit =
                      in[(static_cast<std::size_t>(c) * d.in_h + y + ky) *
                             d.in_w +
                         (x + kx)];
                  win |= bit << (ky * K + kx);
                }
              }
              std::uint32_t xn =
                  ctx.xor_(win, wtaps[static_cast<std::size_t>(f) * d.in_c +
                                      c]);
              xn = ctx.xor_(xn, 0xffffffffu);
              xn = ctx.and_(xn, tap_mask);
              const std::int32_t pc = ctx.popcount(xn);
              acc = ctx.add(acc,
                            ctx.sub(static_cast<std::int32_t>(ctx.shl(
                                        static_cast<std::uint32_t>(pc), 1)),
                                    K * K));
            }
            conv[static_cast<std::size_t>(y) * d.conv_w + x] =
                static_cast<std::int16_t>(acc);
            ctx.charge_alu(1);
          }
          ctx.charge_loop(static_cast<std::uint64_t>(d.conv_w));
        }
        ctx.charge_loop(static_cast<std::uint64_t>(d.conv_h));

        // Pool + LUT BN-BinAct into the output map.
        for (int py = 0; py < d.out_h; ++py) {
          for (int px = 0; px < d.out_w; ++px) {
            ctx.charge_alu(8);
            int best =
                conv[static_cast<std::size_t>(py * cfg.pool) * d.conv_w +
                     px * cfg.pool];
            for (int dy = 0; dy < cfg.pool; ++dy) {
              for (int dx = 0; dx < cfg.pool; ++dx) {
                best = std::max(
                    best,
                    static_cast<int>(
                        conv[static_cast<std::size_t>(py * cfg.pool + dy) *
                                 d.conv_w +
                             px * cfg.pool + dx]));
              }
            }
            const std::int32_t off = ctx.sub(best, lut_min);
            std::int32_t idx = ctx.mul(off, filters, 32);
            idx = ctx.add(idx, f);
            out[(static_cast<std::size_t>(f) * d.out_h + py) * d.out_w +
                px] = lut[static_cast<std::size_t>(idx)];
            ctx.charge_alu(2); // table load + store
          }
          ctx.charge_loop(static_cast<std::uint64_t>(d.out_w));
        }
        ctx.charge_loop(static_cast<std::uint64_t>(d.out_h));
      }
      ctx.charge_loop(static_cast<std::uint64_t>(filters));
      std::swap(in, out);
    }

    // 3. Pack the final map (now in `in` after the last swap) and DMA out.
    const DeepBlockDims& last = p.dims.back();
    const std::size_t bits = static_cast<std::size_t>(
        cfg.blocks.back().filters * last.out_h * last.out_w);
    for (std::size_t wdx = 0; wdx < feat_words; ++wdx) {
      feat[wdx] = 0;
    }
    ctx.charge_alu(feat_words);
    ctx.charge_loop(bits);
    ctx.charge_alu(2 * bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (in[i] != 0) {
        feat[i / 32] |= std::uint32_t{1} << (i % 32);
      }
    }
    ctx.mram_write(results_base + im * p.result_stride, feat,
                   feat_words * sizeof(std::uint32_t));
  }
}

/// What `deep_tasklet` charges tasklet `t` of `n_tasklets` over a launch
/// of `n_images` images (see deep_tasklet for the op-level breakdown). The
/// twin applies this record and estimate_deep_ebnn_wall_cycles prices it.
sim::KernelCharges deep_charges(const DeepEbnnConfig& cfg,
                                const std::vector<DeepBlockDims>& dims,
                                std::uint64_t n_images, std::uint32_t t,
                                std::uint32_t n_tasklets) {
  const std::uint64_t k2 =
      static_cast<std::uint64_t>(cfg.ksize) * cfg.ksize;
  const auto img_bytes =
      static_cast<std::uint64_t>(cfg.img_h) * cfg.img_w;
  const DeepBlockDims& last = dims.back();
  const auto bits = static_cast<std::uint64_t>(cfg.blocks.back().filters) *
                    last.out_h * last.out_w;
  const std::uint64_t feat_words =
      align_up(nn::words_for_bits(static_cast<std::size_t>(bits)) *
                   sizeof(std::uint32_t),
               kXferAlign) /
      sizeof(std::uint32_t);

  // Binarize, zero and pack the feature words, then per block and filter
  // the multi-channel conv and the pool + LUT BN-BinAct.
  sim::KernelCharges image;
  image.alu = 3 * img_bytes + feat_words + 2 * bits;
  image.loops = img_bytes + bits;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const DeepBlockDims& d = dims[b];
    const auto filters = static_cast<std::uint64_t>(cfg.blocks[b].filters);
    const auto cp = static_cast<std::uint64_t>(d.conv_h) * d.conv_w;
    const auto op = static_cast<std::uint64_t>(d.out_h) * d.out_w;
    const auto chans = static_cast<std::uint64_t>(d.in_c);
    image.alu += filters * (cp * (chans * (3 * k2 + 7) + 1) + op * 12);
    image.loops +=
        filters * (cp * chans * (k2 + 1) + cp + d.conv_h + op + d.out_h) +
        filters;
    image.slots += 12 * filters * cp * chans; // popcount trees
    image.mul32 += filters * op;              // LUT index __mulsi3
  }
  image.dma = sim::CostModel::dma_cycles(img_bytes) +
              sim::CostModel::dma_cycles(feat_words * sizeof(std::uint32_t));
  return strided_charges(image, n_images, t, n_tasklets);
}

/// Fast-path twin of `deep_tasklet` (SimMode::Fast): the same per-image
/// block pipeline computed with native integer arithmetic, with the
/// kernel's charges applied once per tasklet from deep_charges. The
/// dual-run cross-check tests enforce equivalence.
void deep_tasklet_fast(TaskletCtx& ctx, const DeepKernelParams& p) {
  const DeepEbnnConfig& cfg = p.cfg;
  const int K = cfg.ksize;
  require(ctx.n_tasklets() <= p.capacity,
          "deep eBNN: tasklets exceed image slots");

  const std::uint64_t n_images = ctx.wram_span<std::uint64_t>("meta")[0];
  sim::apply_counts(ctx, deep_charges(cfg, p.dims, n_images, ctx.id(),
                                      ctx.n_tasklets()));

  auto conv_w = ctx.wram_span<std::uint32_t>("conv_w");
  auto luts = ctx.wram_span<std::uint8_t>("luts");
  auto map_a_all = ctx.wram_span<std::uint8_t>("map_a");
  auto map_b_all = ctx.wram_span<std::uint8_t>("map_b");
  auto conv_all = ctx.wram_span<std::int16_t>("conv_buf");
  auto feat_all = ctx.wram_span<std::uint32_t>("feat_buf");

  std::uint8_t* map_a = map_a_all.data() + ctx.id() * p.map_bytes;
  std::uint8_t* map_b = map_b_all.data() + ctx.id() * p.map_bytes;
  std::int16_t* conv = conv_all.data() + ctx.id() * p.conv_elems;
  const std::size_t feat_words = p.result_stride / sizeof(std::uint32_t);
  std::uint32_t* feat = feat_all.data() + ctx.id() * feat_words;

  const MemSize images_base = ctx.mram_addr("images");
  const MemSize results_base = ctx.mram_addr("results");
  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg.img_h) * cfg.img_w;
  const DeepBlockDims& last = p.dims.back();
  const std::size_t bits = static_cast<std::size_t>(
      cfg.blocks.back().filters * last.out_h * last.out_w);

  for (std::uint64_t im = ctx.id(); im < n_images;
       im += ctx.n_tasklets()) {
    ctx.mram_read(map_a, images_base + im * p.image_stride, img_bytes);
    for (std::size_t i = 0; i < img_bytes; ++i) {
      map_a[i] = map_a[i] >= cfg.binarize_threshold ? 1 : 0;
    }

    std::uint8_t* in = map_a;
    std::uint8_t* out = map_b;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      const DeepBlockDims& d = p.dims[b];
      const int filters = cfg.blocks[b].filters;
      const std::uint32_t* wtaps = conv_w.data() + p.conv_w_offsets[b];
      const std::uint8_t* lut = luts.data() + p.lut_offsets[b];
      const int lut_min = p.lut_mins[b];
      const std::uint32_t tap_mask = (std::uint32_t{1} << (K * K)) - 1;

      for (int f = 0; f < filters; ++f) {
        for (int y = 0; y < d.conv_h; ++y) {
          for (int x = 0; x < d.conv_w; ++x) {
            std::int32_t acc = 0;
            for (int c = 0; c < d.in_c; ++c) {
              std::uint32_t win = 0;
              for (int ky = 0; ky < K; ++ky) {
                for (int kx = 0; kx < K; ++kx) {
                  const std::uint32_t bit =
                      in[(static_cast<std::size_t>(c) * d.in_h + y + ky) *
                             d.in_w +
                         (x + kx)];
                  win |= bit << (ky * K + kx);
                }
              }
              const std::uint32_t xn =
                  ~(win ^
                    wtaps[static_cast<std::size_t>(f) * d.in_c + c]) &
                  tap_mask;
              acc += 2 * std::popcount(xn) - K * K;
            }
            conv[static_cast<std::size_t>(y) * d.conv_w + x] =
                static_cast<std::int16_t>(acc);
          }
        }

        for (int py = 0; py < d.out_h; ++py) {
          for (int px = 0; px < d.out_w; ++px) {
            int best =
                conv[static_cast<std::size_t>(py * cfg.pool) * d.conv_w +
                     px * cfg.pool];
            for (int dy = 0; dy < cfg.pool; ++dy) {
              for (int dx = 0; dx < cfg.pool; ++dx) {
                best = std::max(
                    best,
                    static_cast<int>(
                        conv[static_cast<std::size_t>(py * cfg.pool + dy) *
                                 d.conv_w +
                             px * cfg.pool + dx]));
              }
            }
            const std::int32_t idx = (best - lut_min) * filters + f;
            out[(static_cast<std::size_t>(f) * d.out_h + py) * d.out_w +
                px] = lut[static_cast<std::size_t>(idx)];
          }
        }
      }
      std::swap(in, out);
    }

    for (std::size_t wdx = 0; wdx < feat_words; ++wdx) {
      feat[wdx] = 0;
    }
    for (std::size_t i = 0; i < bits; ++i) {
      if (in[i] != 0) {
        feat[i / 32] |= std::uint32_t{1} << (i % 32);
      }
    }
    ctx.mram_write(results_base + im * p.result_stride, feat,
                   feat_words * sizeof(std::uint32_t));
  }
}

DeepKernelParams make_params(const DeepEbnnConfig& cfg,
                             const std::vector<DeepBlockDims>& dims,
                             const runtime::UpmemConfig& sys) {
  DeepKernelParams p;
  p.cfg = cfg;
  p.dims = dims;
  p.image_stride = align_up(
      static_cast<MemSize>(cfg.img_h) * static_cast<MemSize>(cfg.img_w),
      kXferAlign);

  MemSize woff = 0;
  MemSize loff = 0;
  std::size_t max_map = static_cast<std::size_t>(cfg.img_h) * cfg.img_w;
  std::size_t max_conv = 0;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const auto& d = dims[b];
    const int filters = cfg.blocks[b].filters;
    p.conv_w_offsets.push_back(woff);
    woff += static_cast<MemSize>(filters) * d.in_c;
    p.lut_offsets.push_back(loff);
    p.lut_mins.push_back(-d.taps);
    loff += static_cast<MemSize>(2 * d.taps + 1) * filters;
    max_map = std::max(max_map, static_cast<std::size_t>(filters) *
                                    d.out_h * d.out_w);
    max_map = std::max(max_map, static_cast<std::size_t>(d.in_c) * d.in_h *
                                    d.in_w);
    max_conv = std::max(max_conv,
                        static_cast<std::size_t>(d.conv_h) * d.conv_w);
  }
  p.map_bytes = align_up(max_map, kXferAlign);
  p.conv_elems = align_up(max_conv * 2, kXferAlign) / 2;

  const auto& last = dims.back();
  const std::size_t feat_bits = static_cast<std::size_t>(
      cfg.blocks.back().filters * last.out_h * last.out_w);
  p.result_stride = align_up(
      nn::words_for_bits(feat_bits) * sizeof(std::uint32_t), kXferAlign);

  p.conv_words = woff;
  p.lut_bytes = loff;
  // WRAM budget -> images per DPU: shared symbols + per-tasklet buffers.
  const MemSize shared = 8 + align_up(woff * 4, kXferAlign) +
                         align_up(loff, kXferAlign);
  const MemSize per_tasklet = 2 * p.map_bytes + p.conv_elems * 2 +
                              p.result_stride;
  const MemSize budget = sys.wram_bytes > shared + 512
                             ? sys.wram_bytes - shared - 512
                             : 0;
  const MemSize cap = per_tasklet > 0 ? budget / per_tasklet : 0;
  if (cap == 0) {
    throw CapacityError("deep eBNN: one image's buffers exceed WRAM");
  }
  p.capacity = static_cast<std::uint32_t>(std::min<MemSize>(cap, 16));
  return p;
}

sim::DpuProgram make_deep_program(const DeepKernelParams& p) {
  sim::DpuProgram prog;
  prog.name = "ebnn_deep";
  prog.iram_bytes = 8 * 1024;
  prog.symbols = {
      {"images", MemKind::Mram, p.capacity * p.image_stride},
      {"results", MemKind::Mram, p.capacity * p.result_stride},
      {"meta", MemKind::Wram, 8},
      {"conv_w", MemKind::Wram, align_up(p.conv_words * 4, kXferAlign)},
      {"luts", MemKind::Wram, align_up(p.lut_bytes, kXferAlign)},
      {"map_a", MemKind::Wram, p.capacity * p.map_bytes},
      {"map_b", MemKind::Wram, p.capacity * p.map_bytes},
      {"conv_buf", MemKind::Wram, p.capacity * p.conv_elems * 2},
      {"feat_buf", MemKind::Wram, p.capacity * p.result_stride},
  };
  prog.entry = [p](TaskletCtx& ctx) { deep_tasklet(ctx, p); };
  prog.fast_entry = [p](TaskletCtx& ctx) { deep_tasklet_fast(ctx, p); };
  return prog;
}

/// The deep network's batch program: per-block weights and LUTs are WRAM
/// constants, concatenated once here.
core::BatchProgram deep_batch_program(const DeepEbnnConfig& cfg,
                                      const DeepEbnnWeights& w,
                                      const runtime::UpmemConfig& sys) {
  const std::vector<DeepBlockDims> dims = deep_dims(cfg);
  const DeepKernelParams params = make_params(cfg, dims, sys);
  std::vector<std::uint32_t> conv_words;
  std::vector<std::uint8_t> lut_bytes;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    conv_words.insert(conv_words.end(), w.conv[b].begin(), w.conv[b].end());
    const BnBinactLut lut =
        build_bn_binact_lut_range(-dims[b].taps, dims[b].taps, w.bn[b]);
    lut_bytes.insert(lut_bytes.end(), lut.table.begin(), lut.table.end());
  }

  core::BatchProgram p;
  p.signature = "ebnn_deep";
  p.build = [params] { return make_deep_program(params); };
  p.pipeline = "deep_ebnn";
  p.capacity = params.capacity;
  p.item_bytes = static_cast<MemSize>(cfg.img_h) * cfg.img_w;
  p.in_stride = params.image_stride;
  p.out_stride = params.result_stride;
  p.in_symbol = "images";
  p.out_symbol = "results";
  p.consts = {{"conv_w", to_bytes(conv_words)}, {"luts", lut_bytes}};
  p.kernel_cost = [cfg, sys](std::uint32_t items, std::uint32_t t,
                             runtime::OptLevel opt) {
    return estimate_deep_ebnn_wall_cycles(cfg, items, t, opt, sys);
  };
  return p;
}

} // namespace

Cycles estimate_deep_ebnn_wall_cycles(const DeepEbnnConfig& cfg,
                                      std::uint32_t n_images,
                                      std::uint32_t n_tasklets,
                                      runtime::OptLevel opt,
                                      const runtime::UpmemConfig& sys) {
  require(n_tasklets >= 1,
          "estimate_deep_ebnn_wall_cycles: tasklets must be >= 1");
  const auto dims = deep_dims(cfg);
  return sim::priced_wall(n_tasklets, opt, sys, [&](std::uint32_t t) {
    return deep_charges(cfg, dims, n_images, t, n_tasklets);
  });
}

DeepEbnnHost::DeepEbnnHost(const DeepEbnnConfig& cfg,
                           DeepEbnnWeights weights,
                           const runtime::UpmemConfig& sys)
    : cfg_(cfg),
      weights_(std::move(weights)),
      reference_(cfg_, weights_),
      images_per_dpu_(make_params(cfg_, deep_dims(cfg_), sys).capacity),
      engine_(deep_batch_program(cfg_, weights_, sys), sys) {}

core::Offloader::Bind<DeepEbnnBatchResult> DeepEbnnHost::hooks() const {
  return [this](const std::vector<Image>& images,
                DeepEbnnBatchResult& out) -> core::BatchHooks {
    const auto bits = static_cast<std::size_t>(deep_feature_bits(cfg_));
    out.predicted.assign(images.size(), -1);
    out.features = nn::BitMatrix(images.size(), bits);
    return {
        [this, &out, bits](const map::MappingPlan&, std::size_t first,
                           std::size_t count, const std::uint8_t* slots) {
          // One block's scratch: a slot's words, the logits and the probs.
          const MemSize stride = engine_.out_stride();
          std::vector<std::uint32_t> words(stride / sizeof(std::uint32_t));
          std::vector<float> logits;
          std::vector<float> probs;
          for (std::size_t k = 0; k < count; ++k) {
            std::memcpy(words.data(), slots + k * stride, stride);
            const std::span<std::uint32_t> row =
                out.features.row_words(first + k);
            nn::or_bits(words, bits, row, 0);
            reference_.infer_tail(row, logits, probs,
                                  out.predicted[first + k]);
          }
        },
        [this, &images, &out](const map::MappingPlan&, std::size_t first,
                              std::size_t count) {
          for (std::size_t i = first; i < first + count; ++i) {
            const DeepEbnnActivations a = reference_.infer(images[i].data());
            out.predicted[i] = a.predicted;
            out.features.set_row(i, a.feature);
          }
        }};
  };
}

} // namespace pimdnn::ebnn
