// Unit tests for the NN substrate: tensors, GEMM (float + Algorithm 2
// quantized), im2col, layers, bit packing, quantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/bitpack.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layers.hpp"
#include "nn/quantize.hpp"
#include "nn/alexnet.hpp"
#include "nn/tensor.hpp"

namespace pimdnn::nn {
namespace {

TEST(Shape, NumelAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_THROW(s.dim(3), UsageError);
  EXPECT_THROW(Shape({0, 2}), UsageError);
}

TEST(Tensor, FlatAndMultiDimAccess) {
  Tensor<int> t(Shape{2, 3});
  t.at(1, 2) = 42;
  EXPECT_EQ(t[5], 42);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_THROW(t[6], UsageError);
  t.fill(7);
  EXPECT_EQ(t.at(0, 0), 7);
}

TEST(Tensor, ChwAccess) {
  Tensor<float> t(Shape{2, 4, 5});
  t.at(1, 3, 4) = 2.5f;
  EXPECT_EQ(t[1 * 20 + 3 * 5 + 4], 2.5f);
}

TEST(Gemm, FloatIdentity) {
  // A = I2, so C = alpha * B.
  const std::vector<float> a = {1, 0, 0, 1};
  const std::vector<float> b = {1, 2, 3, 4, 5, 6};
  std::vector<float> c(6, 0.0f);
  gemm_f32_reference(2, 3, 2, 2.0f, a, b, c);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(c[i], 2.0f * b[i]);
  }
}

TEST(Gemm, FloatAccumulatesIntoC) {
  const std::vector<float> a = {1};
  const std::vector<float> b = {3};
  std::vector<float> c = {10};
  gemm_f32_reference(1, 1, 1, 1.0f, a, b, c);
  EXPECT_FLOAT_EQ(c[0], 13.0f); // Darknet semantics: +=
}

TEST(Gemm, RejectsUndersizedBuffers) {
  std::vector<float> a(1), b(1), c(0);
  EXPECT_THROW(gemm_f32_reference(1, 1, 1, 1.0f, a, b, c), UsageError);
}

TEST(Gemm, QuantizedMatchesManualComputation) {
  // 1x1x2: ctmp = alpha*a0*b0 + alpha*a1*b1 = 1*(2*3 + 4*5) = 26;
  // C = 26/32 = 0.
  const std::vector<std::int16_t> a = {2, 4};
  const std::vector<std::int16_t> b = {3, 5};
  std::vector<std::int16_t> c(1, -1);
  gemm_q16_reference(1, 1, 2, 1, a, b, c);
  EXPECT_EQ(c[0], 0);
  // With alpha=16: ctmp = 16*26 = 416; 416/32 = 13.
  gemm_q16_reference(1, 1, 2, 16, a, b, c);
  EXPECT_EQ(c[0], 13);
}

TEST(Gemm, QuantizedClampsAtLimit) {
  // ctmp = 2*1000*1000 = 2e6 (no int32 overflow); /32 = 62500 -> clamp.
  const std::vector<std::int16_t> a = {1000};
  const std::vector<std::int16_t> b = {1000};
  std::vector<std::int16_t> c(1, 0);
  gemm_q16_reference(1, 1, 1, 2, a, b, c);
  EXPECT_EQ(c[0], 32767);
  const std::vector<std::int16_t> an = {-1000};
  gemm_q16_reference(1, 1, 1, 2, an, b, c);
  EXPECT_EQ(c[0], -32767);
}

TEST(Gemm, RowDecompositionEqualsFullGemm) {
  // The row-per-DPU unrolling (Figure 4.6) must equal the full GEMM.
  Rng rng(55);
  const int m = 7, n = 13, k = 9;
  std::vector<std::int16_t> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  std::vector<std::int16_t> full(m * n), rows(m * n);
  gemm_q16_reference(m, n, k, 3, a, b, full);
  for (int i = 0; i < m; ++i) {
    gemm_q16_row_reference(i, n, k, 3,
                           std::span<const std::int16_t>(a).subspan(i * k, k),
                           b, std::span<std::int16_t>(rows).subspan(i * n, n));
  }
  EXPECT_EQ(full, rows);
}

TEST(Im2col, GeometryDerivations) {
  ConvGeom g{3, 8, 8, 16, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  EXPECT_EQ(g.gemm_m(), 16);
  EXPECT_EQ(g.gemm_k(), 27);
  EXPECT_EQ(g.gemm_n(), 64);
  EXPECT_EQ(g.macs(), 16 * 27 * 64);
  ConvGeom s{3, 8, 8, 4, 3, 2, 1};
  EXPECT_EQ(s.out_h(), 4);
}

TEST(Im2col, ValuesLandInExpectedCells) {
  // 1x3x3 input, 2x2 kernel, stride 1, no pad: K=4, N=4.
  ConvGeom g{1, 3, 3, 1, 2, 1, 0};
  std::vector<int> in = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> out(g.gemm_k() * g.gemm_n());
  im2col<int>(g, in, out);
  // Row 0 = kernel tap (0,0): the 2x2 top-left corners: 1,2,4,5.
  EXPECT_EQ((std::vector<int>{out[0], out[1], out[2], out[3]}),
            (std::vector<int>{1, 2, 4, 5}));
  // Row 3 = tap (1,1): 5,6,8,9.
  EXPECT_EQ((std::vector<int>{out[12], out[13], out[14], out[15]}),
            (std::vector<int>{5, 6, 8, 9}));
}

TEST(Im2col, ZeroPaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 1, 3, 1, 1};
  std::vector<int> in = {1, 2, 3, 4};
  std::vector<int> out(g.gemm_k() * g.gemm_n());
  im2col<int>(g, in, out);
  // Tap (0,0) of output (0,0) reads input (-1,-1) -> 0.
  EXPECT_EQ(out[0], 0);
}

TEST(Conv2dF32, MatchesDirectConvolution) {
  Rng rng(66);
  ConvGeom g{2, 6, 6, 3, 3, 1, 1};
  std::vector<float> in(g.in_c * g.in_h * g.in_w);
  std::vector<float> w(g.out_c * g.gemm_k());
  std::vector<float> bias(g.out_c);
  for (auto& v : in) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : w) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> out(g.out_c * g.out_h() * g.out_w());
  conv2d_f32(g, in, w, bias, out);

  // Direct nested-loop convolution.
  for (int oc = 0; oc < g.out_c; ++oc) {
    for (int oy = 0; oy < g.out_h(); ++oy) {
      for (int ox = 0; ox < g.out_w(); ++ox) {
        float acc = bias[oc];
        for (int ic = 0; ic < g.in_c; ++ic) {
          for (int ky = 0; ky < g.ksize; ++ky) {
            for (int kx = 0; kx < g.ksize; ++kx) {
              const int iy = oy * g.stride + ky - g.pad;
              const int ix = ox * g.stride + kx - g.pad;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              acc += w[((oc * g.in_c + ic) * g.ksize + ky) * g.ksize + kx] *
                     in[(ic * g.in_h + iy) * g.in_w + ix];
            }
          }
        }
        EXPECT_NEAR(out[(oc * g.out_h() + oy) * g.out_w() + ox], acc, 1e-4f);
      }
    }
  }
}

TEST(MaxPool, PicksWindowMaxima) {
  std::vector<int> in = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  std::vector<int> out(4);
  maxpool2d<int>(1, 4, 4, 2, 2, in, out);
  EXPECT_EQ(out, (std::vector<int>{6, 8, 14, 16}));
}

TEST(MaxPool, HandlesNegatives) {
  std::vector<int> in = {-9, -5, -7, -3};
  std::vector<int> out(1);
  maxpool2d<int>(1, 2, 2, 2, 2, in, out);
  EXPECT_EQ(out[0], -3);
}

TEST(BatchNorm, ApplyMatchesFormula) {
  BatchNormParams bn;
  bn.w0 = {1.0f};
  bn.w1 = {2.0f};
  bn.w2 = {4.0f};
  bn.w3 = {3.0f};
  bn.w4 = {0.5f};
  // ((x + 1 - 2) / 4) * 3 + 0.5 at x=5 -> (4/4)*3+0.5 = 3.5.
  EXPECT_FLOAT_EQ(bn.apply(5.0f, 0), 3.5f);
  EXPECT_EQ(binact(3.5f), 1);
  EXPECT_EQ(binact(-0.1f), 0);
  EXPECT_EQ(binact(0.0f), 1);
}

TEST(Softmax, NormalizesAndOrders) {
  std::vector<float> logits = {1.0f, 3.0f, 2.0f};
  std::vector<float> probs(3);
  softmax(logits, probs);
  float sum = 0.0f;
  for (float p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(probs[1], probs[2]);
  EXPECT_GT(probs[2], probs[0]);
  EXPECT_EQ(argmax(probs), 1u);
}

TEST(Softmax, StableForLargeLogits) {
  std::vector<float> logits = {1000.0f, 1001.0f};
  std::vector<float> probs(2);
  softmax(logits, probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-6f);
}

TEST(Upsample, NearestNeighbor2x) {
  std::vector<int> in = {1, 2, 3, 4};
  std::vector<int> out(16);
  upsample2x<int>(1, 2, 2, in, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[3], 2);
  EXPECT_EQ(out[15], 4);
}

TEST(Shortcut, SaturatingAdd) {
  const std::vector<std::int16_t> a = {30000, -30000, 5};
  const std::vector<std::int16_t> b = {10000, -10000, 6};
  std::vector<std::int16_t> out(3);
  shortcut_q16(a, b, out);
  EXPECT_EQ(out[0], 32767);
  EXPECT_EQ(out[1], -32767);
  EXPECT_EQ(out[2], 11);
}

TEST(LeakyRelu, PowerOfTwoSlope) {
  std::vector<std::int16_t> x = {-80, -7, 0, 5};
  leaky_relu_q16(x);
  EXPECT_EQ(x[0], -10);
  EXPECT_EQ(x[1], 0); // -7/8 truncates toward zero
  EXPECT_EQ(x[2], 0);
  EXPECT_EQ(x[3], 5);
}

TEST(Bitpack, SignsRoundTrip) {
  const std::vector<float> vals = {1.0f, -2.0f, 0.0f, -0.5f, 3.0f};
  const auto packed = bitpack_signs(vals);
  EXPECT_EQ(bit_at(packed, 0), 1);
  EXPECT_EQ(bit_at(packed, 1), 0);
  EXPECT_EQ(bit_at(packed, 2), 1); // 0.0 >= 0
  EXPECT_EQ(bit_at(packed, 3), 0);
  EXPECT_EQ(bit_at(packed, 4), 1);
}

TEST(Bitpack, CrossWordBoundary) {
  std::vector<int> bits(40, 0);
  bits[31] = 1;
  bits[32] = 1;
  bits[39] = 1;
  const auto packed = bitpack_bits(bits);
  ASSERT_EQ(packed.size(), 2u);
  EXPECT_EQ(bit_at(packed, 31), 1);
  EXPECT_EQ(bit_at(packed, 32), 1);
  EXPECT_EQ(bit_at(packed, 39), 1);
  EXPECT_EQ(bit_at(packed, 38), 0);
}

TEST(Bitpack, BinaryDotMatchesScalar) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_u32() % 70;
    std::vector<int> abits(n), bbits(n);
    for (auto& v : abits) v = static_cast<int>(rng.next_u32() & 1);
    for (auto& v : bbits) v = static_cast<int>(rng.next_u32() & 1);
    std::int32_t expect = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect += abits[i] == bbits[i] ? 1 : -1;
    }
    const auto pa = bitpack_bits(abits);
    const auto pb = bitpack_bits(bbits);
    EXPECT_EQ(binary_dot(pa, pb, n), expect) << "n=" << n;
  }
}

TEST(Bitpack, OrBitsPacksSegmentsBackToBack) {
  // 16 segments of 169 bits — the paper's pooled map per filter — each
  // packed from a fresh word with its padding bits set, as DPU results
  // may hold them: the row must read the segments back to back, and the
  // bits past each segment must not leak in.
  Rng rng(92);
  const std::size_t seg = 169;
  std::vector<int> bits(16 * seg);
  for (int& v : bits) v = static_cast<int>(rng.next_u32() & 1);
  BitMatrix m(1, bits.size());
  for (std::size_t s = 0; s < 16; ++s) {
    auto words = bitpack_bits(std::span(bits).subspan(s * seg, seg));
    words.back() |= ~std::uint32_t{0} << (seg % 32);
    or_bits(words, seg, m.row_words(0), s * seg);
  }
  EXPECT_EQ(m[0], bits);
  const auto expect = bitpack_bits(bits);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                         m[0].words().begin(), m[0].words().end()));
  // Short sources and destinations throw.
  const std::vector<std::uint32_t> one(1, ~std::uint32_t{0});
  EXPECT_THROW(or_bits(one, 33, m.row_words(0), 0), UsageError);
  const std::size_t past_end = m.row_words(0).size() * 32 - 31;
  EXPECT_THROW(or_bits(one, 32, m.row_words(0), past_end), UsageError);
}

TEST(BitMatrix, RowsReadBackTheirBitsWithZeroPadding) {
  // One bit, one word, one past it, and the eBNN feature widths of the
  // 8-filter test config (1,352) and the paper (2,704).
  Rng rng(91);
  for (const std::size_t width : {1u, 32u, 33u, 1352u, 2704u}) {
    std::vector<std::vector<int>> rows(3, std::vector<int>(width, 1));
    for (int& v : rows[2]) v = static_cast<int>(rng.next_u32() & 1);
    rows[1].assign(width, 0);
    BitMatrix m(rows.size(), width);
    ASSERT_EQ(m.size(), rows.size());
    EXPECT_EQ(m.bits(), width);
    EXPECT_EQ(m[0], std::vector<int>(width, 0)); // fresh rows are zero
    for (std::size_t i = 0; i < rows.size(); ++i) {
      m.set_row(i, rows[i]);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const BitMatrix::Row row = m[i];
      ASSERT_EQ(row.size(), width);
      for (std::size_t j = 0; j < width; ++j) {
        ASSERT_EQ(row[j], rows[i][j]) << "width " << width << " bit " << j;
      }
      EXPECT_EQ(row, rows[i]);
      EXPECT_EQ(rows[i], row);
      // Padding bits stay zero, so an all-ones row's last word holds
      // exactly the row's tail bits.
      ASSERT_EQ(row.words().size(), words_for_bits(width));
      if (width % 32 != 0) {
        EXPECT_EQ(row.words().back() >> (width % 32), 0u) << width;
      }
      auto flipped = rows[i];
      flipped[width - 1] ^= 1;
      EXPECT_FALSE(row == flipped);
      flipped.push_back(0);
      EXPECT_FALSE(row == flipped);
      EXPECT_FALSE(row == std::vector<int>(width, 2));
    }
    EXPECT_EQ(m[0], BitMatrix::Row(m[0].words(), width));
    EXPECT_FALSE(m[0] == m[1]);
    BitMatrix copy = m;
    EXPECT_EQ(copy, m);
    auto changed = rows[2];
    changed[0] ^= 1;
    copy.set_row(2, changed);
    EXPECT_FALSE(copy == m);
    EXPECT_THROW(m.set_row(3, rows[0]), UsageError);
    EXPECT_THROW(m.set_row(0, std::vector<int>(width + 1, 0)), UsageError);
  }
}

TEST(Quantize, RoundTripWithinOneLsb) {
  Rng rng(88);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-100, 100));
  const auto q = quantize_i16(x, 7);
  const auto back = dequantize_i16(q, 7);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1.0f / 128.0f + 1e-6f);
  }
}

TEST(Quantize, ChooseFracBitsFitsRange) {
  std::vector<float> small = {0.1f, -0.2f};
  EXPECT_EQ(choose_frac_bits_i16(small), 14);
  std::vector<float> big = {1000.0f};
  const int bits = choose_frac_bits_i16(big);
  EXPECT_LE(1000.0f * (1 << bits), 32767.0f * 2.0f);
  const auto q = quantize_i16(big, bits);
  EXPECT_LT(std::abs(static_cast<int>(q[0])), 32768);
}

TEST(Alexnet, LayerGeometryAndMacs) {
  const auto layers = alexnet_layers();
  ASSERT_EQ(layers.size(), 8u);
  // conv1: 96 filters, 11x11/4 on 227x227x3 -> 55x55 output, 105.4 M MACs.
  EXPECT_EQ(layers[0].geom.out_h(), 55);
  EXPECT_EQ(layers[0].geom.macs(), 105415200);
  // conv2 on the pooled 27x27x96 map (ungrouped): 447.9 M MACs.
  EXPECT_EQ(layers[1].geom.out_h(), 27);
  EXPECT_EQ(layers[1].geom.macs(), 447897600);
  // fc6: 9216 x 4096.
  EXPECT_FALSE(layers[5].is_conv);
  EXPECT_EQ(layers[5].macs(), 9216 * 4096);
  // Total ~1.14 G MACs ungrouped (the 2-GPU grouped original halves
  // conv2/4/5 to ~0.72 G; the thesis' 2.59e9 "TOPs" counts finer-grained
  // primitive operations).
  EXPECT_GT(alexnet_macs(), 1.0e9);
  EXPECT_LT(alexnet_macs(), 1.25e9);
}

TEST(Quantize, I8Saturation) {
  std::vector<float> x = {100.0f, -100.0f};
  const auto q = quantize_i8(x, 5);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -128);
}

} // namespace
} // namespace pimdnn::nn
