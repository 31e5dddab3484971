// Multi-block (deep) eBNN tests: geometry validation, reference sanity,
// DPU-vs-golden bit-exactness across depths, WRAM-derived capacity, and
// determinism.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/mnist_synth.hpp"

namespace pimdnn::ebnn {
namespace {

DeepEbnnConfig depth_config(int blocks, int filters = 8) {
  DeepEbnnConfig cfg;
  cfg.blocks.clear();
  for (int b = 0; b < blocks; ++b) {
    cfg.blocks.push_back({filters});
  }
  return cfg;
}

TEST(DeepDims, GeometryChainsCorrectly) {
  const auto dims = deep_dims(depth_config(3));
  ASSERT_EQ(dims.size(), 3u);
  // 28 -> conv 26 -> pool 13; 13 -> 11 -> 5; 5 -> 3 -> 1.
  EXPECT_EQ(dims[0].in_c, 1);
  EXPECT_EQ(dims[0].out_h, 13);
  EXPECT_EQ(dims[1].in_c, 8);
  EXPECT_EQ(dims[1].in_h, 13);
  EXPECT_EQ(dims[1].out_h, 5);
  EXPECT_EQ(dims[2].in_h, 5);
  EXPECT_EQ(dims[2].out_h, 1);
  EXPECT_EQ(dims[1].taps, 8 * 9);
  EXPECT_EQ(deep_feature_bits(depth_config(3)), 8);
}

TEST(DeepDims, RejectsTooDeepNetworks) {
  // A 4th block would need a conv on a 1x1 map.
  EXPECT_THROW(deep_dims(depth_config(4)), ConfigError);
  DeepEbnnConfig empty;
  empty.blocks.clear();
  EXPECT_THROW(deep_dims(empty), ConfigError);
}

TEST(DeepWeights, ShapesFollowDims) {
  const auto cfg = depth_config(2, 6);
  const auto w = DeepEbnnWeights::random(cfg, 11);
  ASSERT_EQ(w.conv.size(), 2u);
  EXPECT_EQ(w.conv[0].size(), 6u * 1u);
  EXPECT_EQ(w.conv[1].size(), 6u * 6u);
  EXPECT_EQ(w.bn[1].channels(), 6u);
  EXPECT_EQ(w.fc.size(),
            static_cast<std::size_t>(cfg.classes) *
                static_cast<std::size_t>(deep_feature_bits(cfg)));
}

TEST(DeepReference, SingleBlockMatchesShallowModel) {
  // With one block, the deep reference must agree with the original
  // single-block golden model (independent implementations).
  EbnnConfig shallow;
  shallow.filters = 8;
  const auto sw = EbnnWeights::random(shallow, 21);

  DeepEbnnConfig dcfg = depth_config(1, 8);
  DeepEbnnWeights dw;
  dw.conv = {sw.conv_bits};
  dw.bn = {sw.bn};
  dw.fc = sw.fc;

  const EbnnReference ref_s(shallow, sw);
  const DeepEbnnReference ref_d(dcfg, dw);
  const auto data = make_synthetic_mnist(6, 22);
  for (const auto& li : data) {
    const auto a = ref_s.infer(li.pixels.data());
    const auto b = ref_d.infer(li.pixels.data());
    EXPECT_EQ(a.feature, b.feature);
    EXPECT_EQ(a.predicted, b.predicted);
  }
}

class DeepDpuAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DeepDpuAgreement, DpuMatchesGoldenModel) {
  const int depth = GetParam();
  const auto cfg = depth_config(depth, 6);
  auto w = DeepEbnnWeights::random(cfg, 31 + depth);
  const DeepEbnnReference ref(cfg, w);
  const auto data = make_synthetic_mnist(10, 32);
  DeepEbnnHost host(cfg, w);
  const auto r = host.run(images_only(data));
  ASSERT_EQ(r.predicted.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto golden = ref.infer(data[i].pixels.data());
    EXPECT_EQ(r.features[i], golden.feature)
        << "depth=" << depth << " image=" << i;
    EXPECT_EQ(r.predicted[i], golden.predicted);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, DeepDpuAgreement, ::testing::Values(1, 2, 3));

TEST(DeepHost, CapacityShrinksWithWidth) {
  const auto narrow = DeepEbnnHost(depth_config(2, 4),
                                   DeepEbnnWeights::random(depth_config(2, 4),
                                                           1))
                          .images_per_dpu();
  const auto wide = DeepEbnnHost(depth_config(2, 32),
                                 DeepEbnnWeights::random(depth_config(2, 32),
                                                         1))
                        .images_per_dpu();
  EXPECT_GE(narrow, wide);
  EXPECT_GE(narrow, 1u);
  EXPECT_LE(narrow, 16u);
}

TEST(DeepHost, DeterministicAndTaskletInvariant) {
  const auto cfg = depth_config(2, 6);
  auto w = DeepEbnnWeights::random(cfg, 41);
  DeepEbnnHost host(cfg, w);
  const auto data = images_only(make_synthetic_mnist(8, 42));
  const auto a = host.run(data, 1);
  const auto b = host.run(data, std::min(4u, host.images_per_dpu()));
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.features, b.features);
  const auto c = host.run(data, 1);
  EXPECT_EQ(a.launch.wall_cycles, c.launch.wall_cycles);
}

TEST(DeepHost, DeeperCostsMoreCyclesPerImage) {
  const auto data = images_only(make_synthetic_mnist(4, 52));
  Cycles prev = 0;
  for (int depth : {1, 2}) {
    const auto cfg = depth_config(depth, 8);
    DeepEbnnHost host(cfg, DeepEbnnWeights::random(cfg, 51));
    const auto r = host.run(data, 1);
    EXPECT_GT(r.launch.wall_cycles, prev) << depth;
    prev = r.launch.wall_cycles;
  }
}

TEST(DeepHost, ValidatesInputs) {
  const auto cfg = depth_config(1, 4);
  DeepEbnnHost host(cfg, DeepEbnnWeights::random(cfg, 61));
  EXPECT_THROW(host.run({}), UsageError);
  EXPECT_THROW(host.run({Image(5, 0)}), UsageError);
  EXPECT_THROW(host.run({Image(28 * 28, 0)}, 17), UsageError);
  // 0 is not the auto sentinel (map::kAutoTasklets is), as on EbnnHost.
  EXPECT_THROW(host.run({Image(28 * 28, 0)}, 0), UsageError);
}

} // namespace
} // namespace pimdnn::ebnn
