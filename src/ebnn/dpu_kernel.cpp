#include "ebnn/dpu_kernel.hpp"

#include <algorithm>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "ebnn/charges.hpp"
#include "nn/bitpack.hpp"
#include "sim/softfloat.hpp"

namespace pimdnn::ebnn {

using sim::MemKind;
using sim::TaskletCtx;

EbnnLayout ebnn_layout(const EbnnConfig& cfg) {
  EbnnLayout l;
  l.image_stride = align_up(
      static_cast<MemSize>(cfg.img_h) * static_cast<MemSize>(cfg.img_w),
      kXferAlign);
  l.words_per_filter = static_cast<std::uint32_t>(
      nn::words_for_bits(static_cast<std::size_t>(cfg.pool_h()) *
                         static_cast<std::size_t>(cfg.pool_w())));
  l.result_stride =
      align_up(static_cast<MemSize>(cfg.filters) * l.words_per_filter *
                   sizeof(std::uint32_t),
               kXferAlign);
  l.max_images = 16;
  return l;
}

namespace {

/// Everything the kernel closure needs, captured by value.
struct KernelParams {
  EbnnConfig cfg;
  BnMode mode;
  ConvKernel kernel;
  EbnnLayout layout;
  int lut_min;
};

void ebnn_tasklet(TaskletCtx& ctx, const KernelParams& p) {
  const EbnnConfig& cfg = p.cfg;
  const int H = cfg.img_h;
  const int W = cfg.img_w;
  const int K = cfg.ksize;
  const int CH = cfg.conv_h();
  const int CW = cfg.conv_w();
  const int PH = cfg.pool_h();
  const int PW = cfg.pool_w();
  const int F = cfg.filters;
  const int taps = cfg.taps();
  const std::uint32_t tap_mask = (std::uint32_t{1} << taps) - 1;

  require(ctx.n_tasklets() <= p.layout.max_images,
          "eBNN program supports at most 16 tasklets (one per image slot)");

  auto meta = ctx.wram_span<std::uint64_t>(symbols::kMeta);
  ctx.charge_alu(1);
  const std::uint64_t n_images = meta[0];

  auto conv_w = ctx.wram_span<std::uint32_t>(symbols::kConvWeights);
  auto img_all = ctx.wram_span<std::uint8_t>("img_buf");
  auto conv_all = ctx.wram_span<std::int8_t>("conv_buf");
  auto feat_all = ctx.wram_span<std::uint32_t>("feat_buf");
  std::span<std::uint32_t> prow_all;
  if (p.kernel == ConvKernel::PackedRows) {
    prow_all = ctx.wram_span<std::uint32_t>("prow_buf");
  }

  const std::size_t img_bytes = static_cast<std::size_t>(H) * W;
  const std::size_t conv_px = static_cast<std::size_t>(CH) * CW;
  const std::size_t wpf = p.layout.words_per_filter;
  const std::size_t feat_words = static_cast<std::size_t>(F) * wpf;

  std::uint8_t* img = img_all.data() + ctx.id() * img_bytes;
  std::int8_t* conv = conv_all.data() + ctx.id() * conv_px;
  std::uint32_t* feat = feat_all.data() + ctx.id() * feat_words;

  const MemSize images_base = ctx.mram_addr(symbols::kImages);
  const MemSize results_base = ctx.mram_addr(symbols::kResults);

  for (std::uint64_t im = ctx.id(); im < n_images; im += ctx.n_tasklets()) {
    // --- 1. DMA the image from MRAM into this tasklet's WRAM slice. ---
    ctx.mram_read(img, images_base + im * p.layout.image_stride, img_bytes);

    // --- 2. Binarize: pixel >= threshold -> bit. Scalar keeps one byte
    // per bit; PackedRows folds binarization into packing each image row
    // into one 32-bit word. ---
    std::uint32_t* prow = nullptr;
    if (p.kernel == ConvKernel::PackedRows) {
      prow = prow_all.data() + ctx.id() * static_cast<std::size_t>(H);
      ctx.charge_loop(img_bytes);
      ctx.charge_alu(4 * img_bytes); // load, compare, shift, or per pixel
      for (int y = 0; y < H; ++y) {
        std::uint32_t word = 0;
        for (int x = 0; x < W; ++x) {
          if (img[static_cast<std::size_t>(y) * W + x] >=
              cfg.binarize_threshold) {
            word |= std::uint32_t{1} << x;
          }
        }
        prow[y] = word;
      }
    } else {
      ctx.charge_loop(img_bytes);
      ctx.charge_alu(3 * img_bytes); // load, compare, store per pixel
      for (std::size_t i = 0; i < img_bytes; ++i) {
        img[i] = img[i] >= cfg.binarize_threshold ? 1 : 0;
      }
    }

    for (std::uint32_t w = 0; w < feat_words; ++w) {
      feat[w] = 0;
    }
    ctx.charge_alu(feat_words);

    for (int f = 0; f < F; ++f) {
      const std::uint32_t wf = conv_w[static_cast<std::size_t>(f)];
      ctx.charge_alu(1);

      // --- 3. Binary convolution (XNOR + popcount) into conv buffer. ---
      for (int y = 0; y < CH; ++y) {
        for (int x = 0; x < CW; ++x) {
          std::uint32_t win = 0;
          if (p.kernel == ConvKernel::PackedRows) {
            // Word-parallel gather: one shift/mask per window row.
            const std::uint32_t w0 =
                ctx.and_(ctx.shr(prow[y], static_cast<unsigned>(x)), 7u);
            const std::uint32_t w1 = ctx.shl(
                ctx.and_(ctx.shr(prow[y + 1], static_cast<unsigned>(x)), 7u),
                3);
            const std::uint32_t w2 = ctx.shl(
                ctx.and_(ctx.shr(prow[y + 2], static_cast<unsigned>(x)), 7u),
                6);
            win = ctx.or_(ctx.or_(w0, w1), w2);
            ctx.charge_alu(3); // the three packed-row loads
          } else {
            // Scalar gather: load/shift/or per tap.
            ctx.charge_loop(static_cast<std::uint64_t>(taps));
            ctx.charge_alu(3 * static_cast<std::uint64_t>(taps));
            for (int ky = 0; ky < K; ++ky) {
              for (int kx = 0; kx < K; ++kx) {
                const std::uint32_t bit =
                    img[static_cast<std::size_t>(y + ky) * W + (x + kx)];
                win |= bit << (ky * K + kx);
              }
            }
          }
          std::uint32_t xn = ctx.xor_(win, wf);
          xn = ctx.xor_(xn, 0xffffffffu); // complement -> XNOR
          xn = ctx.and_(xn, tap_mask);
          const std::int32_t pc = ctx.popcount(xn);
          const std::int32_t dot =
              ctx.sub(static_cast<std::int32_t>(ctx.shl(
                          static_cast<std::uint32_t>(pc), 1)),
                      taps);
          conv[static_cast<std::size_t>(y) * CW + x] =
              static_cast<std::int8_t>(dot);
          ctx.charge_alu(1); // store
        }
        ctx.charge_loop(static_cast<std::uint64_t>(CW));
      }
      ctx.charge_loop(static_cast<std::uint64_t>(CH));

      // Per-filter BN operand loads (float mode) happen once per filter.
      float w0 = 0;
      float w1 = 0;
      float w2 = 1;
      float w3 = 1;
      float w4 = 0;
      if (p.mode == BnMode::SoftFloat) {
        auto bn = ctx.wram_span<float>(symbols::kBnParams);
        const std::size_t nf = static_cast<std::size_t>(F);
        w0 = bn[0 * nf + static_cast<std::size_t>(f)];
        w1 = bn[1 * nf + static_cast<std::size_t>(f)];
        w2 = bn[2 * nf + static_cast<std::size_t>(f)];
        w3 = bn[3 * nf + static_cast<std::size_t>(f)];
        w4 = bn[4 * nf + static_cast<std::size_t>(f)];
        ctx.charge_alu(5);
      }

      // --- 4. 2x2 max pool + 5. BN-BinAct + 6. pack bits. ---
      for (int py = 0; py < PH; ++py) {
        for (int px = 0; px < PW; ++px) {
          ctx.charge_alu(8); // 4 loads + 3 compares + 1 register move
          int best = conv[static_cast<std::size_t>(py * cfg.pool) * CW +
                          px * cfg.pool];
          for (int dy = 0; dy < cfg.pool; ++dy) {
            for (int dx = 0; dx < cfg.pool; ++dx) {
              const int v =
                  conv[static_cast<std::size_t>(py * cfg.pool + dy) * CW +
                       px * cfg.pool + dx];
              if (v > best) best = v;
            }
          }

          int bit = 0;
          if (p.mode == BnMode::SoftFloat) {
            // Figure 4.2(a): the BN-BinAct float chain inside the DPU.
            float t = ctx.i2f(best);
            t = ctx.fadd(t, w0);
            t = ctx.fsub(t, w1);
            t = ctx.fdiv(t, w2);
            t = ctx.fmul(t, w3);
            t = ctx.fadd(t, w4);
            bit = ctx.flt(t, 0.0f) ? 0 : 1;
          } else {
            // Figure 4.2(b): one LUT access. The index multiply is the
            // __mulsi3 the thesis could not eliminate (Figure 4.3b).
            auto lut = ctx.wram_span<std::uint8_t>(symbols::kBnLut);
            const std::int32_t off = ctx.sub(best, p.lut_min);
            std::int32_t idx = ctx.mul(off, F, 32);
            idx = ctx.add(idx, f);
            bit = lut[static_cast<std::size_t>(idx)];
            ctx.charge_alu(1); // table load
          }

          // Pack the bit into the per-filter feature words.
          const int pos = py * PW + px;
          if (bit != 0) {
            feat[static_cast<std::size_t>(f) * wpf +
                 static_cast<std::size_t>(pos) / 32] |=
                std::uint32_t{1} << (pos % 32);
          }
          ctx.charge_alu(2); // shift + or
        }
        ctx.charge_loop(static_cast<std::uint64_t>(PW));
      }
      ctx.charge_loop(static_cast<std::uint64_t>(PH));
    }
    ctx.charge_loop(static_cast<std::uint64_t>(F));

    // --- 7. DMA the packed feature bits back to MRAM. ---
    ctx.mram_write(results_base + im * p.layout.result_stride, feat,
                   feat_words * sizeof(std::uint32_t));
  }
}

/// What `ebnn_tasklet` charges tasklet `t` of `n_tasklets` over a launch
/// of `n_images` images (see ebnn_tasklet for the op-level breakdown). The
/// twin applies this record and estimate_ebnn_wall_cycles prices it.
sim::KernelCharges ebnn_charges(const EbnnConfig& cfg, BnMode mode,
                                ConvKernel kernel, std::uint64_t n_images,
                                std::uint32_t t, std::uint32_t n_tasklets) {
  const bool packed = kernel == ConvKernel::PackedRows;
  const bool softfloat_bn = mode == BnMode::SoftFloat;
  const auto img_bytes = static_cast<std::uint64_t>(cfg.img_h) * cfg.img_w;
  const auto conv_px =
      static_cast<std::uint64_t>(cfg.conv_h()) * cfg.conv_w();
  const auto pool_px =
      static_cast<std::uint64_t>(cfg.pool_h()) * cfg.pool_w();
  const auto F = static_cast<std::uint64_t>(cfg.filters);
  const auto taps = static_cast<std::uint64_t>(cfg.taps());
  const std::uint64_t feat_words = F * ebnn_layout(cfg).words_per_filter;
  const std::uint64_t conv_ops = F * conv_px;
  const std::uint64_t pool_ops = F * pool_px;

  sim::KernelCharges image;
  // Binarize, zero the feature words, per filter its tap word (and five
  // BN loads), per conv pixel the gather, XNOR, dot and store, per pooled
  // pixel the pool, the BN-BinAct and the bit pack.
  image.alu = (packed ? 4 : 3) * img_bytes + feat_words +
              F * (1 + (softfloat_bn ? 5 : 0)) +
              conv_ops * (packed ? 19 : 3 * taps + 6) +
              pool_ops * (10 + (softfloat_bn ? 7 : 3));
  image.loops = img_bytes +
                F * ((packed ? 0 : conv_px * taps) + conv_px +
                     static_cast<std::uint64_t>(cfg.conv_h()) + pool_px +
                     static_cast<std::uint64_t>(cfg.pool_h())) +
                F;
  image.slots = 12 * conv_ops; // popcount shift/mask trees
  if (softfloat_bn) {
    image.call(sim::Subroutine::FloatSISF, pool_ops);
    image.call(sim::Subroutine::AddSF3, 2 * pool_ops);
    image.call(sim::Subroutine::SubSF3, pool_ops);
    image.call(sim::Subroutine::DivSF3, pool_ops);
    image.call(sim::Subroutine::MulSF3, pool_ops);
    image.call(sim::Subroutine::LtSF2, pool_ops);
  } else {
    image.mul32 = pool_ops; // the LUT index __mulsi3
  }
  image.dma = sim::CostModel::dma_cycles(img_bytes) +
              sim::CostModel::dma_cycles(feat_words * sizeof(std::uint32_t));
  return strided_charges(image, n_images, t, n_tasklets);
}

/// Bit count by shifts and masks, so that scoring a window calls no
/// library routine on CPUs without a popcount instruction.
constexpr int bit_count(std::uint32_t v) {
  v -= (v >> 1) & 0x55555555u;
  v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
  v = (v + (v >> 4)) & 0x0f0f0f0fu;
  v += v >> 8;
  v += v >> 16;
  return static_cast<int>(v & 0x3fu);
}

/// Fast-path twin of `ebnn_tasklet` (SimMode::Fast): the same DMAs and the
/// same bytes in every WRAM buffer, computed natively, with the kernel's
/// charges applied once per tasklet from ebnn_charges. Each image's
/// windows are gathered once for all filters; as a window holds only tap
/// bits, XNOR(win, w) over the taps is win ^ (~w & tap_mask), counted by
/// bit_count. Soft-float BN stays in the soft-float bit domain, so its
/// chain is bit-exact. A nonzero kPool is cfg.pool known at compile time,
/// so the paper's 2x2 pool unrolls.
template <int kPool>
void ebnn_tasklet_fast(TaskletCtx& ctx, const KernelParams& p) {
  namespace sf = sim::softfloat;
  const EbnnConfig& cfg = p.cfg;
  const int H = cfg.img_h;
  const int W = cfg.img_w;
  const int K = cfg.ksize;
  const int CH = cfg.conv_h();
  const int CW = cfg.conv_w();
  const int PH = cfg.pool_h();
  const int PW = cfg.pool_w();
  const int F = cfg.filters;
  const int P = kPool != 0 ? kPool : cfg.pool;
  const int taps = cfg.taps();
  const std::uint32_t tap_mask = (std::uint32_t{1} << taps) - 1;
  const bool packed = p.kernel == ConvKernel::PackedRows;
  const bool softfloat_bn = p.mode == BnMode::SoftFloat;

  require(ctx.n_tasklets() <= p.layout.max_images,
          "eBNN program supports at most 16 tasklets (one per image slot)");

  const std::uint64_t n_images =
      ctx.wram_span<std::uint64_t>(symbols::kMeta)[0];
  sim::apply_counts(ctx, ebnn_charges(cfg, p.mode, p.kernel, n_images,
                                      ctx.id(), ctx.n_tasklets()));

  auto conv_w = ctx.wram_span<std::uint32_t>(symbols::kConvWeights);
  auto img_all = ctx.wram_span<std::uint8_t>("img_buf");
  auto conv_all = ctx.wram_span<std::int8_t>("conv_buf");
  auto feat_all = ctx.wram_span<std::uint32_t>("feat_buf");
  std::span<std::uint32_t> prow_all;
  if (packed) {
    prow_all = ctx.wram_span<std::uint32_t>("prow_buf");
  }
  std::span<float> bn;
  std::span<std::uint8_t> lut;
  if (softfloat_bn) {
    bn = ctx.wram_span<float>(symbols::kBnParams);
  } else {
    lut = ctx.wram_span<std::uint8_t>(symbols::kBnLut);
  }

  const std::size_t img_bytes = static_cast<std::size_t>(H) * W;
  const std::size_t conv_px = static_cast<std::size_t>(CH) * CW;
  const std::size_t wpf = p.layout.words_per_filter;
  const std::size_t feat_words = static_cast<std::size_t>(F) * wpf;

  std::uint8_t* img = img_all.data() + ctx.id() * img_bytes;
  std::int8_t* conv = conv_all.data() + ctx.id() * conv_px;
  std::uint32_t* feat = feat_all.data() + ctx.id() * feat_words;
  std::uint32_t* prow =
      packed ? prow_all.data() + ctx.id() * static_cast<std::size_t>(H)
             : nullptr;

  const MemSize images_base = ctx.mram_addr(symbols::kImages);
  const MemSize results_base = ctx.mram_addr(symbols::kResults);
  std::vector<std::uint32_t> wins(conv_px); // host-local, not WRAM

  for (std::uint64_t im = ctx.id(); im < n_images; im += ctx.n_tasklets()) {
    ctx.mram_read(img, images_base + im * p.layout.image_stride, img_bytes);

    // Binarize as the kernel does, then gather every window once: bit
    // ky*K + kx of window (y, x) is pixel (y + ky, x + kx).
    if (packed) {
      for (int y = 0; y < H; ++y) {
        std::uint32_t word = 0;
        for (int x = 0; x < W; ++x) {
          word |= static_cast<std::uint32_t>(
                      img[static_cast<std::size_t>(y) * W + x] >=
                      cfg.binarize_threshold)
                  << x;
        }
        prow[y] = word;
      }
      for (int y = 0; y < CH; ++y) {
        for (int x = 0; x < CW; ++x) {
          wins[static_cast<std::size_t>(y) * CW + x] =
              ((prow[y] >> x) & 7u) | (((prow[y + 1] >> x) & 7u) << 3) |
              (((prow[y + 2] >> x) & 7u) << 6);
        }
      }
    } else {
      for (std::size_t i = 0; i < img_bytes; ++i) {
        img[i] = img[i] >= cfg.binarize_threshold ? 1 : 0;
      }
      for (int y = 0; y < CH; ++y) {
        for (int x = 0; x < CW; ++x) {
          std::uint32_t win = 0;
          for (int ky = 0; ky < K; ++ky) {
            for (int kx = 0; kx < K; ++kx) {
              win |= std::uint32_t{
                         img[static_cast<std::size_t>(y + ky) * W + x + kx]}
                     << (ky * K + kx);
            }
          }
          wins[static_cast<std::size_t>(y) * CW + x] = win;
        }
      }
    }

    std::fill_n(feat, feat_words, 0u);
    for (int f = 0; f < F; ++f) {
      // --- Binary convolution into the conv buffer. ---
      const std::uint32_t key =
          ~conv_w[static_cast<std::size_t>(f)] & tap_mask;
      for (std::size_t i = 0; i < conv_px; ++i) {
        conv[i] =
            static_cast<std::int8_t>(2 * bit_count(wins[i] ^ key) - taps);
      }

      std::uint32_t bn0 = 0;
      std::uint32_t bn1 = 0;
      std::uint32_t bn2 = 0;
      std::uint32_t bn3 = 0;
      std::uint32_t bn4 = 0;
      if (softfloat_bn) {
        const std::size_t nf = static_cast<std::size_t>(F);
        bn0 = sf::to_bits(bn[0 * nf + static_cast<std::size_t>(f)]);
        bn1 = sf::to_bits(bn[1 * nf + static_cast<std::size_t>(f)]);
        bn2 = sf::to_bits(bn[2 * nf + static_cast<std::size_t>(f)]);
        bn3 = sf::to_bits(bn[3 * nf + static_cast<std::size_t>(f)]);
        bn4 = sf::to_bits(bn[4 * nf + static_cast<std::size_t>(f)]);
      }
      // Filter f's LUT entry for value v is lut_f[v * F]: the kernel's
      // index (v - lut_min) * F + f.
      const std::uint8_t* lut_f =
          softfloat_bn ? nullptr
                       : lut.data() + (f - static_cast<std::ptrdiff_t>(
                                               p.lut_min) * F);
      std::uint32_t* feat_f = feat + static_cast<std::size_t>(f) * wpf;

      // --- Max pool, BN-BinAct and bit packing. ---
      for (int py = 0; py < PH; ++py) {
        for (int px = 0; px < PW; ++px) {
          const std::int8_t* win =
              conv + static_cast<std::size_t>(py * P) * CW + px * P;
          int best = win[0];
          for (int dy = 0; dy < P; ++dy) {
            for (int dx = 0; dx < P; ++dx) {
              best = std::max(best, int{win[dy * CW + dx]});
            }
          }

          std::uint32_t bit = 0;
          if (softfloat_bn) {
            // The interpreted BN-BinAct chain, kept in soft-float bits.
            std::uint32_t t = sf::from_i32(best);
            t = sf::add(t, bn0);
            t = sf::sub(t, bn1);
            t = sf::div(t, bn2);
            t = sf::mul(t, bn3);
            t = sf::add(t, bn4);
            bit = sf::lt(t, sf::to_bits(0.0f)) ? 0 : 1;
          } else {
            bit = lut_f[static_cast<std::ptrdiff_t>(best) * F] != 0 ? 1 : 0;
          }
          const int pos = py * PW + px;
          feat_f[pos / 32] |= bit << (pos % 32);
        }
      }
    }

    ctx.mram_write(results_base + im * p.layout.result_stride, feat,
                   feat_words * sizeof(std::uint32_t));
  }
}

} // namespace

sim::DpuProgram make_ebnn_program(const EbnnConfig& cfg, BnMode mode,
                                  ConvKernel kernel) {
  const EbnnLayout layout = ebnn_layout(cfg);
  require(layout.image_stride <= 2048,
          "eBNN image exceeds the 2048-byte MRAM->WRAM transfer limit");
  if (kernel == ConvKernel::PackedRows) {
    require(cfg.ksize == 3 && cfg.img_w <= 32,
            "PackedRows kernel requires ksize == 3 and img_w <= 32");
  }

  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg.img_h) * cfg.img_w;
  const std::size_t conv_px =
      static_cast<std::size_t>(cfg.conv_h()) * cfg.conv_w();
  const std::size_t feat_bytes = static_cast<std::size_t>(cfg.filters) *
                                 layout.words_per_filter *
                                 sizeof(std::uint32_t);
  const int lut_rows = cfg.conv_max() - cfg.conv_min() + 1;

  sim::DpuProgram prog;
  prog.name = mode == BnMode::HostLut ? "ebnn_lut" : "ebnn_softfloat";
  prog.iram_bytes = 6 * 1024; // small kernel; well inside the 24 KB IRAM
  prog.symbols = {
      {symbols::kImages, MemKind::Mram,
       layout.max_images * layout.image_stride},
      {symbols::kResults, MemKind::Mram,
       layout.max_images * layout.result_stride},
      {symbols::kMeta, MemKind::Wram, 8},
      {symbols::kConvWeights, MemKind::Wram,
       align_up(static_cast<MemSize>(cfg.filters) * sizeof(std::uint32_t),
                kXferAlign)},
      {"img_buf", MemKind::Wram, layout.max_images * img_bytes},
      {"conv_buf", MemKind::Wram, layout.max_images * conv_px},
      {"feat_buf", MemKind::Wram, layout.max_images * feat_bytes},
  };
  if (mode == BnMode::HostLut) {
    prog.symbols.push_back(
        {symbols::kBnLut, MemKind::Wram,
         align_up(static_cast<MemSize>(lut_rows) * cfg.filters, kXferAlign)});
  } else {
    prog.symbols.push_back(
        {symbols::kBnParams, MemKind::Wram,
         align_up(5ull * cfg.filters * sizeof(float), kXferAlign)});
  }
  if (kernel == ConvKernel::PackedRows) {
    prog.symbols.push_back(
        {"prow_buf", MemKind::Wram,
         layout.max_images * static_cast<MemSize>(cfg.img_h) *
             sizeof(std::uint32_t)});
  }

  KernelParams params{cfg, mode, kernel, layout, cfg.conv_min()};
  prog.entry = [params](TaskletCtx& ctx) { ebnn_tasklet(ctx, params); };
  prog.fast_entry = [params](TaskletCtx& ctx) {
    if (params.cfg.pool == 2) {
      ebnn_tasklet_fast<2>(ctx, params);
    } else {
      ebnn_tasklet_fast<0>(ctx, params);
    }
  };
  return prog;
}

Cycles estimate_ebnn_wall_cycles(const EbnnConfig& cfg, BnMode mode,
                                 ConvKernel kernel, std::uint32_t n_images,
                                 std::uint32_t n_tasklets,
                                 sim::OptLevel opt,
                                 const sim::UpmemConfig& sys) {
  require(n_tasklets >= 1, "estimate_ebnn_wall_cycles: tasklets must be >= 1");
  return sim::priced_wall(n_tasklets, opt, sys, [&](std::uint32_t t) {
    return ebnn_charges(cfg, mode, kernel, n_images, t, n_tasklets);
  });
}

} // namespace pimdnn::ebnn
