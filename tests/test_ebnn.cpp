// eBNN tests: LUT construction (Algorithm 1), golden model self-checks,
// the FC tail's bit-exact logits (shallow and deep references),
// DPU-vs-reference bit-exact agreement in both BN modes, host orchestration
// (batching, padding, tasklet sweep), subroutine-profile shape (Fig 4.3),
// and the LUT speedup (Fig 4.4).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/dpu_kernel.hpp"
#include "ebnn/host.hpp"
#include "ebnn/lut.hpp"
#include "ebnn/mnist_synth.hpp"
#include "ebnn/train.hpp"
#include "ebnn/model.hpp"

namespace pimdnn::ebnn {
namespace {

EbnnConfig small_config() {
  EbnnConfig cfg;
  cfg.filters = 8;
  return cfg;
}

TEST(EbnnConfig, DerivedDimensions) {
  EbnnConfig cfg;
  EXPECT_EQ(cfg.conv_h(), 26);
  EXPECT_EQ(cfg.conv_w(), 26);
  EXPECT_EQ(cfg.pool_h(), 13);
  EXPECT_EQ(cfg.pool_w(), 13);
  EXPECT_EQ(cfg.feature_bits(), 16 * 169);
  EXPECT_EQ(cfg.conv_min(), -9);
  EXPECT_EQ(cfg.conv_max(), 9);
}

TEST(EbnnWeights, DeterministicAndWellFormed) {
  const EbnnConfig cfg = small_config();
  const auto a = EbnnWeights::random(cfg, 42);
  const auto b = EbnnWeights::random(cfg, 42);
  EXPECT_EQ(a.conv_bits, b.conv_bits);
  EXPECT_EQ(a.fc, b.fc);
  EXPECT_EQ(a.bn.channels(), static_cast<std::size_t>(cfg.filters));
  for (float w2 : a.bn.w2) {
    EXPECT_GE(std::abs(w2), 0.5f); // divisor stays away from zero
  }
  for (auto bits : a.conv_bits) {
    EXPECT_EQ(bits >> cfg.taps(), 0u); // only tap bits set
  }
}

TEST(Lut, MatchesFloatBnBinactForAllInputs) {
  // The core property of Algorithm 1: for every possible conv-pool value
  // and every filter, the LUT bit equals the float BN-BinAct bit.
  const EbnnConfig cfg = small_config();
  for (std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    const auto w = EbnnWeights::random(cfg, seed);
    const auto lut = build_bn_binact_lut(cfg, w.bn);
    EXPECT_EQ(lut.rows(), 19);
    EXPECT_EQ(lut.bytes(), 19u * 8u);
    for (int v = cfg.conv_min(); v <= cfg.conv_max(); ++v) {
      for (int f = 0; f < cfg.filters; ++f) {
        const float bnv =
            w.bn.apply(static_cast<float>(v), static_cast<std::size_t>(f));
        EXPECT_EQ(lut.lookup(v, f), nn::binact(bnv))
            << "seed=" << seed << " v=" << v << " f=" << f;
      }
    }
  }
}

TEST(Lut, RejectsMismatchedFilters) {
  EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 1);
  cfg.filters = 4; // now inconsistent with bn params
  EXPECT_THROW(build_bn_binact_lut(cfg, w.bn), UsageError);
}

TEST(Reference, ConvOutputsWithinTapRange) {
  const EbnnConfig cfg = small_config();
  const auto w = EbnnWeights::random(cfg, 5);
  const auto data = make_synthetic_mnist(3, 11);
  EbnnReference ref(cfg, w);
  for (const auto& li : data) {
    const auto a = ref.infer(li.pixels.data());
    for (int v : a.conv) {
      EXPECT_GE(v, cfg.conv_min());
      EXPECT_LE(v, cfg.conv_max());
      // Parity: 9 taps of +-1 always sum to an odd number.
      EXPECT_EQ((v + 9) % 2, 0);
    }
    EXPECT_EQ(a.probs.size(), 10u);
    EXPECT_GE(a.predicted, 0);
    EXPECT_LT(a.predicted, 10);
  }
}

TEST(Reference, PoolIsMaxOfConvWindow) {
  const EbnnConfig cfg = small_config();
  const auto w = EbnnWeights::random(cfg, 6);
  const auto data = make_synthetic_mnist(1, 3);
  EbnnReference ref(cfg, w);
  const auto a = ref.infer(data[0].pixels.data());
  const int CW = cfg.conv_w();
  const int PW = cfg.pool_w();
  for (int f = 0; f < cfg.filters; ++f) {
    for (int py = 0; py < cfg.pool_h(); ++py) {
      for (int px = 0; px < PW; ++px) {
        int mx = -100;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            mx = std::max(mx, a.conv[(f * cfg.conv_h() + py * 2 + dy) * CW +
                                     px * 2 + dx]);
          }
        }
        EXPECT_EQ(a.pooled[(f * cfg.pool_h() + py) * PW + px], mx);
      }
    }
  }
}

/// The class-major ±1 FC written out: logit c sums
/// w[c][i] · (feature_i != 0 ? +1 : -1) in feature order.
std::vector<float> class_major_logits(const std::vector<float>& fc,
                                      int classes,
                                      const std::vector<int>& feature) {
  const std::size_t n = feature.size();
  std::vector<float> logits(static_cast<std::size_t>(classes));
  for (std::size_t c = 0; c < logits.size(); ++c) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      acc += fc[c * n + i] * (feature[i] != 0 ? 1.0f : -1.0f);
    }
    logits[c] = acc;
  }
  return logits;
}

/// All-zero, all-one and random 0/1 feature vectors of `n` features.
std::vector<std::vector<int>> tail_features(int n, std::uint64_t seed) {
  const auto size = static_cast<std::size_t>(n);
  std::vector<int> random(size);
  Rng rng(seed);
  for (int& v : random) {
    v = rng.sign() > 0 ? 1 : 0;
  }
  return {std::vector<int>(size, 0), std::vector<int>(size, 1), random};
}

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits;
  for (const float x : v) {
    bits.push_back(std::bit_cast<std::uint32_t>(x));
  }
  return bits;
}

TEST(FcTail, EbnnLogitsBitExactForAnyClassCount) {
  // 1, 10 and 17 classes: one partly-filled lane block, the paper's ten
  // digits, and a second block holding a single class.
  for (const int classes : {1, 10, 17}) {
    EbnnConfig cfg = small_config();
    cfg.classes = classes;
    const auto w = EbnnWeights::random(cfg, 80 + classes);
    const EbnnReference ref(cfg, w);
    for (const auto& feature : tail_features(cfg.feature_bits(), classes)) {
      std::vector<float> logits;
      std::vector<float> probs;
      int predicted = -1;
      ref.infer_tail(feature, logits, probs, predicted);
      const std::vector<float> expect =
          class_major_logits(w.fc, classes, feature);
      EXPECT_EQ(float_bits(logits), float_bits(expect))
          << "classes=" << classes;
      std::vector<float> expect_probs(expect.size());
      nn::softmax(expect, expect_probs);
      EXPECT_EQ(float_bits(probs), float_bits(expect_probs));
      EXPECT_EQ(predicted, static_cast<int>(nn::argmax(expect_probs)));
    }
  }
}

TEST(FcTail, DeepEbnnLogitsBitExactForAnyClassCount) {
  // The deep tail exposes probabilities, not logits: they must be the
  // softmax of the class-major logits, bit for bit.
  for (const int classes : {1, 10, 17}) {
    DeepEbnnConfig cfg;
    cfg.classes = classes;
    cfg.blocks = {{6}, {4}};
    const auto w = DeepEbnnWeights::random(cfg, 90 + classes);
    const DeepEbnnReference ref(cfg, w);
    for (const auto& feature :
         tail_features(deep_feature_bits(cfg), classes)) {
      std::vector<float> probs;
      int predicted = -1;
      ref.infer_tail(feature, probs, predicted);
      const std::vector<float> expect =
          class_major_logits(w.fc, classes, feature);
      std::vector<float> expect_probs(expect.size());
      nn::softmax(expect, expect_probs);
      EXPECT_EQ(float_bits(probs), float_bits(expect_probs))
          << "classes=" << classes;
      EXPECT_EQ(predicted, static_cast<int>(nn::argmax(expect_probs)));
    }
  }
}

class EbnnDpuAgreement : public ::testing::TestWithParam<BnMode> {};

TEST_P(EbnnDpuAgreement, FeaturesAndPredictionsMatchGoldenModel) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 21);
  EbnnReference ref(cfg, w);
  const auto data = make_synthetic_mnist(20, 31); // spans 2 DPUs
  EbnnHost host(cfg, w, GetParam());
  const auto result = host.run(images_only(data), 16);
  ASSERT_EQ(result.predicted.size(), data.size());
  ASSERT_EQ(result.features.size(), data.size());
  EXPECT_EQ(result.dpus_used, 2u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto golden = ref.infer(data[i].pixels.data());
    EXPECT_EQ(result.features[i], golden.feature) << "image " << i;
    EXPECT_EQ(result.predicted[i], golden.predicted) << "image " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BothBnModes, EbnnDpuAgreement,
                         ::testing::Values(BnMode::SoftFloat, BnMode::HostLut),
                         [](const auto& info) {
                           return info.param == BnMode::SoftFloat
                                      ? "SoftFloat"
                                      : "HostLut";
                         });

class EbnnTaskletSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EbnnTaskletSweep, ResultsIndependentOfTaskletCount) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 22);
  const auto data = make_synthetic_mnist(16, 32);
  EbnnHost host(cfg, w, BnMode::HostLut);
  const auto base = host.run(images_only(data), 1);
  const auto result = host.run(images_only(data), GetParam());
  EXPECT_EQ(result.predicted, base.predicted);
  EXPECT_EQ(result.features, base.features);
}

INSTANTIATE_TEST_SUITE_P(Tasklets, EbnnTaskletSweep,
                         ::testing::Values(2u, 3u, 4u, 8u, 11u, 16u));

TEST(EbnnPackedKernel, BitIdenticalToScalarAndFaster) {
  // The word-parallel gather (§4.3.4's "most optimal mapping" direction)
  // must produce identical features at lower cycle cost.
  const EbnnConfig cfg; // full 16-filter model
  auto w = EbnnWeights::random(cfg, 71);
  const auto data = make_synthetic_mnist(16, 72);
  EbnnHost scalar(cfg, w, BnMode::HostLut, sim::default_config(),
                  ConvKernel::Scalar);
  EbnnHost packed(cfg, w, BnMode::HostLut, sim::default_config(),
                  ConvKernel::PackedRows);
  const auto rs = scalar.run(images_only(data), 16);
  const auto rp = packed.run(images_only(data), 16);
  EXPECT_EQ(rs.features, rp.features);
  EXPECT_EQ(rs.predicted, rp.predicted);
  EXPECT_LT(rp.launch.wall_cycles, rs.launch.wall_cycles);
  const double gain = static_cast<double>(rs.launch.wall_cycles) /
                      static_cast<double>(rp.launch.wall_cycles);
  EXPECT_GT(gain, 1.3);
  EXPECT_LT(gain, 4.0);
}

TEST(EbnnPackedKernel, AgreesWithGoldenModelInBothBnModes) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 73);
  EbnnReference ref(cfg, w);
  const auto data = make_synthetic_mnist(8, 74);
  for (BnMode mode : {BnMode::SoftFloat, BnMode::HostLut}) {
    EbnnHost host(cfg, w, mode, sim::default_config(),
                  ConvKernel::PackedRows);
    const auto r = host.run(images_only(data), 8);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto golden = ref.infer(data[i].pixels.data());
      EXPECT_EQ(r.features[i], golden.feature) << "image " << i;
      EXPECT_EQ(r.predicted[i], golden.predicted) << "image " << i;
    }
  }
}

TEST(EbnnPackedKernel, RejectsUnsupportedGeometry) {
  EbnnConfig cfg;
  cfg.ksize = 5; // packed gather is 3x3-specific
  EXPECT_THROW(make_ebnn_program(cfg, BnMode::HostLut,
                                 ConvKernel::PackedRows),
               UsageError);
  EXPECT_NO_THROW(make_ebnn_program(cfg, BnMode::HostLut,
                                    ConvKernel::Scalar));
}

TEST(EbnnHost, MoreTaskletsNeverSlower) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 23);
  const auto data = make_synthetic_mnist(16, 33);
  EbnnHost host(cfg, w, BnMode::HostLut);
  Cycles prev = ~0ull;
  for (std::uint32_t t : {1u, 2u, 4u, 8u, 16u}) {
    const auto r = host.run(images_only(data), t);
    EXPECT_LE(r.launch.wall_cycles, prev) << t << " tasklets";
    prev = r.launch.wall_cycles;
  }
}

TEST(EbnnHost, LutModeFasterThanSoftFloat) {
  // Figure 4.4: the LUT rework speeds up a 16-image run; the thesis
  // measured ~1.4x. Assert a speedup in a sane band.
  const EbnnConfig cfg; // full 16-filter model
  auto w = EbnnWeights::random(cfg, 24);
  const auto data = make_synthetic_mnist(16, 34);
  EbnnHost flt(cfg, w, BnMode::SoftFloat);
  EbnnHost lut(cfg, w, BnMode::HostLut);
  const auto rf = flt.run(images_only(data), 16);
  const auto rl = lut.run(images_only(data), 16);
  // The thesis measured 1.4x; our binary-conv kernel is leaner than the
  // eBNN-generated C, so removing the float BN-BinAct is worth more here
  // (see EXPERIMENTS.md). Assert the direction and a sane magnitude.
  const double speedup = static_cast<double>(rf.launch.wall_cycles) /
                         static_cast<double>(rl.launch.wall_cycles);
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 10.0);
}

TEST(EbnnHost, SubroutineProfileShapeMatchesFigure43) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 25);
  const auto data = make_synthetic_mnist(4, 35);
  EbnnHost flt(cfg, w, BnMode::SoftFloat);
  EbnnHost lut(cfg, w, BnMode::HostLut);
  const auto rf = flt.run(images_only(data), 4);
  const auto rl = lut.run(images_only(data), 4);
  // Soft-float mode exercises many float subroutines (the thesis' program
  // showed 11+ call sites; our op mix hits 6 distinct routines: i2f, add,
  // sub, mul, div, compare)...
  EXPECT_GE(rf.launch.profile.distinct(), 6u);
  EXPECT_GT(rf.launch.profile.occurrences(sim::Subroutine::DivSF3), 0u);
  // ...the LUT rework leaves only the residual __mulsi3 (Fig 4.3b).
  EXPECT_LE(rl.launch.profile.distinct(), 2u);
  EXPECT_EQ(rl.launch.profile.float_total(), 0u);
  EXPECT_GT(rl.launch.profile.occurrences(sim::Subroutine::MulSI3), 0u);
}

TEST(EbnnHost, ValidatesInputs) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 26);
  EbnnHost host(cfg, w, BnMode::HostLut);
  EXPECT_THROW(host.run({}, 16), UsageError);
  EXPECT_THROW(host.run({Image(10, 0)}, 16), UsageError);
  const auto data = make_synthetic_mnist(1, 36);
  EXPECT_THROW(host.run(images_only(data), 17), UsageError);
  EXPECT_THROW(host.run(images_only(data), 0), UsageError);
}

TEST(EbnnHost, PartialLastDpuBatch) {
  const EbnnConfig cfg = small_config();
  auto w = EbnnWeights::random(cfg, 27);
  EbnnReference ref(cfg, w);
  const auto data = make_synthetic_mnist(17, 37); // 16 + 1
  EbnnHost host(cfg, w, BnMode::HostLut);
  const auto r = host.run(images_only(data), 16);
  EXPECT_EQ(r.dpus_used, 2u);
  ASSERT_EQ(r.predicted.size(), 17u);
  const auto golden = ref.infer(data[16].pixels.data());
  EXPECT_EQ(r.predicted[16], golden.predicted);
}

TEST(EbnnLayout, StridesAreXferAligned) {
  const auto l = ebnn_layout(EbnnConfig{});
  EXPECT_EQ(l.image_stride % 8, 0u);
  EXPECT_EQ(l.result_stride % 8, 0u);
  EXPECT_EQ(l.image_stride, 784u);
  EXPECT_EQ(l.words_per_filter, 6u); // 169 bits -> 6 words
  EXPECT_EQ(l.max_images, 16u);
}

TEST(EbnnProgram, RejectsOversizedImages) {
  EbnnConfig cfg;
  cfg.img_h = 64;
  cfg.img_w = 64; // 4096 B > 2048 B transfer limit
  EXPECT_THROW(make_ebnn_program(cfg, BnMode::HostLut), UsageError);
}

TEST(Train, FcTailLearnsSyntheticDigits) {
  const EbnnConfig cfg;
  auto w = EbnnWeights::random(cfg, 42);
  const auto train = make_synthetic_mnist(300, 100);
  const auto held_out = make_synthetic_mnist(100, 999);
  const float before = evaluate(cfg, w, held_out);
  const auto r = train_fc(cfg, w, train);
  const float after = evaluate(cfg, w, held_out);
  EXPECT_GT(r.train_accuracy, 0.95f);
  EXPECT_LT(r.final_loss, 0.2f);
  EXPECT_GT(after, 0.85f); // generalizes to unseen jitter
  EXPECT_GT(after, before);
}

TEST(Train, TrainedModelAgreesAcrossDpuPath) {
  // Training only touches the host tail, so DPU features are unchanged
  // and DPU-path predictions equal reference predictions after training.
  EbnnConfig cfg;
  cfg.filters = 8;
  auto w = EbnnWeights::random(cfg, 43);
  train_fc(cfg, w, make_synthetic_mnist(100, 101), {10, 0.05f, 1e-4f});
  const auto data = make_synthetic_mnist(12, 102);
  const EbnnReference ref(cfg, w);
  EbnnHost host(cfg, w, BnMode::HostLut);
  const auto r = host.run(images_only(data), 12);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(r.predicted[i], ref.infer(data[i].pixels.data()).predicted);
  }
}

TEST(Train, ValidatesInputs) {
  const EbnnConfig cfg;
  auto w = EbnnWeights::random(cfg, 44);
  EXPECT_THROW(train_fc(cfg, w, {}), UsageError);
  EXPECT_THROW(evaluate(cfg, w, {}), UsageError);
}

TEST(MnistSynth, DeterministicAndLabeled) {
  const auto a = make_synthetic_mnist(10, 99);
  const auto b = make_synthetic_mnist(10, 99);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pixels, b[i].pixels);
    EXPECT_EQ(a[i].label, static_cast<int>(i % 10));
    EXPECT_EQ(a[i].pixels.size(), 28u * 28u);
  }
}

TEST(MnistSynth, DifferentDigitsDiffer) {
  const auto d = make_synthetic_mnist(10, 7);
  int diff = 0;
  for (std::size_t i = 0; i < 28 * 28; ++i) {
    if ((d[0].pixels[i] >= 128) != (d[1].pixels[i] >= 128)) ++diff;
  }
  EXPECT_GT(diff, 20); // digit 0 and digit 1 have distinct glyphs
}

TEST(MnistSynth, HasForegroundAndBackground) {
  const auto d = make_synthetic_mnist(10, 8);
  for (const auto& li : d) {
    int on = 0;
    for (auto px : li.pixels) {
      if (px >= 128) ++on;
    }
    EXPECT_GT(on, 15) << "digit " << li.label;
    EXPECT_LT(on, 28 * 28 / 2) << "digit " << li.label;
  }
}

} // namespace
} // namespace pimdnn::ebnn
