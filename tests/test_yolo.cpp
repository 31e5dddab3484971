// YOLOv3 tests: config structure (Darknet-53 counts), GEMM offload
// bit-exactness vs Algorithm 2 reference, analytic estimator == simulated
// cycles, whole-network DPU == CPU agreement, tasklet saturation at 11,
// optimization-level ordering, kernel-variant ablation, and head decoding.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace pimdnn::yolo {
namespace {

using runtime::OptLevel;

TEST(Config, FullYolov3HasPublishedStructure) {
  const auto defs = yolov3_config();
  const auto s = summarize(defs, 3, 416, 416);
  // Darknet yolov3.cfg: 75 conv, 23 shortcut, 4 route, 2 upsample, 3 yolo.
  EXPECT_EQ(s.conv_layers, 75);
  EXPECT_EQ(s.shortcut_layers, 23);
  EXPECT_EQ(s.route_layers, 4);
  EXPECT_EQ(s.upsample_layers, 2);
  EXPECT_EQ(s.yolo_layers, 3);
  EXPECT_EQ(defs.size(), 107u);
  // Total MACs for 416x416 is ~32.8 G (the published figure ~65.9 GFLOPs
  // counts multiply and add separately).
  EXPECT_GT(s.total_macs, 30e9);
  EXPECT_LT(s.total_macs, 36e9);
}

TEST(Config, FullYolov3AtOtherResolutions) {
  const auto defs = yolov3_config();
  const auto s320 = summarize(defs, 3, 320, 320);
  const auto s608 = summarize(defs, 3, 608, 608);
  EXPECT_LT(s320.total_macs, s608.total_macs);
  // MACs scale roughly with area.
  const double ratio = static_cast<double>(s608.total_macs) /
                       static_cast<double>(s320.total_macs);
  EXPECT_NEAR(ratio, (608.0 * 608) / (320.0 * 320), 0.4);
}

TEST(Config, TinyConfigMatchesPublishedStructure) {
  const auto defs = yolov3_tiny_config();
  const auto s = summarize(defs, 3, 416, 416);
  EXPECT_EQ(s.conv_layers, 13);
  EXPECT_EQ(s.maxpool_layers, 6);
  EXPECT_EQ(s.route_layers, 2);
  EXPECT_EQ(s.upsample_layers, 1);
  EXPECT_EQ(s.yolo_layers, 2);
  EXPECT_EQ(defs.size(), 24u);
  // YOLOv3-tiny is ~2.8 GMACs at 416x416 (published ~5.6 GFLOPs).
  EXPECT_GT(s.total_macs, 2.4e9);
  EXPECT_LT(s.total_macs, 3.2e9);
}

TEST(Config, TinyStrideOnePoolKeepsSize) {
  // Layer 11 of tiny is a size-2 stride-1 maxpool: 13x13 stays 13x13, so
  // the following 1024-filter conv still sees a 13x13 map.
  const auto defs = yolov3_tiny_config();
  const auto est = YoloRunner::estimate(defs, 3, 416, 416,
                                        GemmVariant::WramTiled, 11,
                                        runtime::OptLevel::O3);
  EXPECT_EQ(est[10].out_h, 13); // conv 512 at /32
  EXPECT_EQ(est[11].out_h, 13); // stride-1 pool
  EXPECT_EQ(est[12].out_c, 1024);
  EXPECT_EQ(est[12].out_h, 13);
}

TEST(Config, TinyRunsEndToEndDpuEqualsCpu) {
  const auto defs = yolov3_tiny_config();
  const auto w = YoloWeights::random(defs, 3, 77);
  YoloRunner runner(defs, w, 3, 64, 64);
  const auto img = make_synthetic_image(3, 64, 64, 5, 6);
  const auto cpu = runner.run(img, ExecMode::Cpu);
  const auto dpu = runner.run(img, ExecMode::DpuWram, 8);
  EXPECT_EQ(cpu.outputs, dpu.outputs);
  // Both heads produce 255-channel maps.
  EXPECT_EQ(dpu.layers[16 - 1].out_c, 255);
  EXPECT_EQ(dpu.layers.back().out_c, 255);
}

TEST(MaxpoolDarknet, CeilGeometryAndEdgeClipping) {
  // 3x3 input, size-2 stride-2 pool -> 2x2 output with clipped edges.
  std::vector<std::int16_t> in = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<std::int16_t> out(4);
  nn::maxpool2d_darknet<std::int16_t>(1, 3, 3, 2, 2, in, out);
  EXPECT_EQ(out, (std::vector<std::int16_t>{5, 6, 8, 9}));
  // size-2 stride-1 keeps the size.
  std::vector<std::int16_t> same(9);
  nn::maxpool2d_darknet<std::int16_t>(1, 3, 3, 2, 1, in, same);
  EXPECT_EQ(same, (std::vector<std::int16_t>{5, 6, 6, 8, 9, 9, 8, 9, 9}));
}

TEST(Config, LiteConfigValidatesAndScales) {
  const auto lite1 = yolov3_lite_config(1, 1);
  const auto s1 = summarize(lite1, 3, 64, 64);
  EXPECT_GT(s1.conv_layers, 10);
  EXPECT_EQ(s1.yolo_layers, 2);
  EXPECT_GE(s1.route_layers, 2);
  const auto lite2 = yolov3_lite_config(2, 2);
  const auto s2 = summarize(lite2, 3, 64, 64);
  EXPECT_GT(s2.total_macs, s1.total_macs);
}

TEST(Config, SummarizeRejectsBadTopology) {
  std::vector<LayerDef> defs;
  LayerDef sc;
  sc.type = LayerType::Shortcut;
  sc.from = -3; // nothing before it
  defs.push_back(sc);
  EXPECT_THROW(layer_shapes(defs, 3, 32, 32), UsageError);
  EXPECT_THROW(summarize(defs, 3, 32, 32), UsageError);
}

/// Expects layer_shapes, summarize and the runner's constructor to reject
/// `defs` at input `in` with a UsageError whose message starts with `what`.
void expect_rejected(const std::vector<LayerDef>& defs,
                     const std::string& what, Shape in = {3, 16, 16}) {
  const auto check = [&](const char* caller, auto&& call) {
    try {
      call();
      ADD_FAILURE() << caller << " accepted it; expected \"" << what << "\"";
    } catch (const UsageError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(what, 0), 0u)
          << caller << ": " << e.what();
    }
  };
  check("layer_shapes", [&] { layer_shapes(defs, in.c, in.h, in.w); });
  check("summarize", [&] { summarize(defs, in.c, in.h, in.w); });
  YoloWeights w;
  w.conv.resize(defs.size());
  check("YoloRunner", [&] { YoloRunner(defs, w, in.c, in.h, in.w); });
}

/// A layer of `type` with the given geometry.
LayerDef layer(LayerType type, int filters, int size, int stride, int pad) {
  LayerDef d;
  d.type = type;
  d.filters = filters;
  d.size = size;
  d.stride = stride;
  d.pad = pad;
  return d;
}

/// A valid 4-filter 3x3 conv, then `second`.
std::vector<LayerDef> conv_then(const LayerDef& second) {
  return {layer(LayerType::Convolutional, 4, 3, 1, 1), second};
}

TEST(Config, RejectsNonPositiveInputShape) {
  const auto defs = conv_then(layer(LayerType::Convolutional, 4, 1, 1, 0));
  for (const Shape in : {Shape{0, 16, 16}, Shape{3, 0, 16}, Shape{3, 16, -1}}) {
    expect_rejected(defs, "layer 0: input shape is not positive", in);
  }
}

TEST(Config, RejectsMalformedConv) {
  const std::string what = "layer 1: conv needs";
  const LayerType conv = LayerType::Convolutional;
  expect_rejected(conv_then(layer(conv, 0, 1, 1, 0)), what);  // filters
  expect_rejected(conv_then(layer(conv, 4, 0, 1, 0)), what);  // size
  expect_rejected(conv_then(layer(conv, 4, 1, 0, 0)), what);  // stride
  expect_rejected(conv_then(layer(conv, 4, 1, 1, -1)), what); // pad
}

TEST(Config, RejectsMalformedMaxpool) {
  const std::string what = "layer 1: maxpool needs";
  expect_rejected(conv_then(layer(LayerType::Maxpool, 0, 0, 2, 0)), what);
  expect_rejected(conv_then(layer(LayerType::Maxpool, 0, 2, 0, 0)), what);
}

TEST(Config, LayerShapesMatchRunAndEstimate) {
  // Each layer's input is the previous output, and a CPU-mode run's
  // layers and outputs carry the pass's output shapes.
  const struct {
    std::vector<LayerDef> defs;
    int side;
    Shape last;
  } nets[] = {{yolov3_lite_config(1, 1), 64, {27, 8, 8}},
              {yolov3_tiny_config(), 128, {255, 8, 8}}};
  for (const auto& net : nets) {
    const auto shapes = layer_shapes(net.defs, 3, net.side, net.side);
    YoloRunner runner(net.defs, YoloWeights::random(net.defs, 3, 408), 3,
                      net.side, net.side);
    const auto r = runner.run(
        make_synthetic_image(3, net.side, net.side, 5, 13), ExecMode::Cpu);
    ASSERT_EQ(shapes.size(), r.layers.size());
    Shape in{3, net.side, net.side};
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const LayerStats& ls = r.layers[i];
      EXPECT_EQ(shapes[i].in, in) << "layer " << i;
      EXPECT_EQ(shapes[i].out, (Shape{ls.out_c, ls.out_h, ls.out_w}))
          << "layer " << i;
      EXPECT_EQ(shapes[i].out.size(), r.outputs[i].size()) << "layer " << i;
      in = shapes[i].out;
    }
    EXPECT_EQ(shapes.back().out, net.last);
  }

  // Full YOLOv3 at 416: the estimator reads the same shapes, and the three
  // heads sit at /32, /16 and /8.
  const auto defs = yolov3_config();
  const auto shapes = layer_shapes(defs, 3, 416, 416);
  const auto est = YoloRunner::estimate(defs, 3, 416, 416,
                                        GemmVariant::WramTiled, 11,
                                        OptLevel::O3);
  ASSERT_EQ(shapes.size(), est.size());
  for (std::size_t i = 0; i < est.size(); ++i) {
    EXPECT_EQ(shapes[i].out, (Shape{est[i].out_c, est[i].out_h, est[i].out_w}))
        << "layer " << i;
  }
  EXPECT_EQ(shapes[82].out, (Shape{255, 13, 13}));
  EXPECT_EQ(shapes[94].out, (Shape{255, 26, 26}));
  EXPECT_EQ(shapes[106].out, (Shape{255, 52, 52}));
}

TEST(Config, ResolveRefCountsBackAndRejectsUnbuiltLayers) {
  // Negative references count back from the referring layer, others are
  // absolute; only an earlier layer resolves.
  EXPECT_EQ(resolve_ref(5, -1), 4u);
  EXPECT_EQ(resolve_ref(5, -5), 0u);
  EXPECT_EQ(resolve_ref(5, 0), 0u);
  EXPECT_EQ(resolve_ref(5, 4), 4u);
  for (int bad : {-6, 5, 7}) {
    try {
      resolve_ref(5, bad);
      ADD_FAILURE() << "reference " << bad << " resolved";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "layer 5: reference " + std::to_string(bad)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(resolve_ref(0, -1), UsageError); // the first layer has none
}

TEST(Config, RandomWeightsRejectForwardRouteReference) {
  // A route at layer 1 naming layer 5 refers past every built layer.
  std::vector<LayerDef> defs(2);
  defs[0].filters = 4;
  defs[0].size = 3;
  defs[0].pad = 1;
  defs[1].type = LayerType::Route;
  defs[1].layers = {5};
  EXPECT_THROW(YoloWeights::random(defs, 3, 1), UsageError);
  try {
    YoloWeights::random(defs, 3, 1);
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("layer 1: reference 5"),
              std::string::npos)
        << e.what();
  }
}

TEST(Config, SummarizeRejectsShapeMismatchShortcut) {
  auto defs = yolov3_lite_config();
  LayerDef sc;
  sc.type = LayerType::Shortcut;
  sc.from = 0; // layer 0 has a different channel count than the tail
  defs.push_back(sc);
  EXPECT_THROW(layer_shapes(defs, 3, 64, 64), UsageError);
  EXPECT_THROW(summarize(defs, 3, 64, 64), UsageError);
}

// ---- GEMM offload ----------------------------------------------------------

struct GemmCase {
  int m, n, k;
  std::int16_t alpha;
};

class DpuGemmBitExact
    : public ::testing::TestWithParam<std::tuple<GemmCase, GemmVariant>> {};

TEST_P(DpuGemmBitExact, MatchesAlgorithm2Reference) {
  const auto [c, variant] = GetParam();
  Rng rng(2000 + c.m * 7 + c.n * 3 + c.k);
  std::vector<std::int16_t> a(static_cast<std::size_t>(c.m) * c.k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(c.k) * c.n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-99, 99));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-99, 99));

  std::vector<std::int16_t> expect(static_cast<std::size_t>(c.m) * c.n);
  nn::gemm_q16_reference(c.m, c.n, c.k, c.alpha, a, b, expect);

  const auto r = dpu_gemm(c.m, c.n, c.k, c.alpha, a, b, variant, 4);
  EXPECT_EQ(r.dpus_used, static_cast<std::uint32_t>(c.m));
  EXPECT_EQ(r.c, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, DpuGemmBitExact,
    ::testing::Combine(
        ::testing::Values(GemmCase{1, 1, 1, 1}, GemmCase{3, 17, 5, 2},
                          GemmCase{2, 256, 9, 1},   // exactly one strip
                          GemmCase{2, 257, 9, 1},   // strip + 1 column
                          GemmCase{4, 300, 31, 3},  // partial second strip
                          GemmCase{1, 1030, 7, 1}), // many strips
        ::testing::Values(GemmVariant::WramTiled, GemmVariant::MramResident)));

class DpuGemmRowsPacked
    : public ::testing::TestWithParam<std::tuple<GemmCase, GemmVariant, int>> {
};

TEST_P(DpuGemmRowsPacked, PackedRowsBitExactWithCorrectDpuCount) {
  // rows_per_dpu > 1 exercises the zero-padded scatter (tail rows of the
  // last DPU), the per-slot MRAM offsets inside each DPU's A/C blocks and
  // the batched gather's per-slot unpacking — all against the same
  // Algorithm 2 reference as the row-per-DPU mapping.
  const auto [c, variant, rows] = GetParam();
  Rng rng(4000 + c.m * 11 + c.n * 5 + c.k + rows);
  std::vector<std::int16_t> a(static_cast<std::size_t>(c.m) * c.k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(c.k) * c.n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-99, 99));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-99, 99));

  std::vector<std::int16_t> expect(static_cast<std::size_t>(c.m) * c.n);
  nn::gemm_q16_reference(c.m, c.n, c.k, c.alpha, a, b, expect);

  const auto r = dpu_gemm(c.m, c.n, c.k, c.alpha, a, b, variant, 4,
                          OptLevel::O3, sim::default_config(), rows);
  EXPECT_EQ(r.dpus_used, static_cast<std::uint32_t>((c.m + rows - 1) / rows));
  EXPECT_EQ(r.c, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, DpuGemmRowsPacked,
    ::testing::Combine(
        ::testing::Values(GemmCase{4, 40, 6, 1},   // m % rows == 0 for rows=2
                          GemmCase{5, 257, 9, 2},  // padded tail, strip + 1
                          GemmCase{7, 300, 31, 3}),
        ::testing::Values(GemmVariant::WramTiled, GemmVariant::MramResident),
        ::testing::Values(2, 3)));

TEST(DpuGemm, ResultsIndependentOfTaskletCountAndOpt) {
  Rng rng(77);
  const int m = 3, n = 530, k = 12;
  std::vector<std::int16_t> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-30, 30));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-30, 30));
  const auto base = dpu_gemm(m, n, k, 1, a, b, GemmVariant::WramTiled, 1);
  for (std::uint32_t t : {2u, 8u, 11u, 16u}) {
    for (OptLevel opt : {OptLevel::O0, OptLevel::O3}) {
      const auto r = dpu_gemm(m, n, k, 1, a, b, GemmVariant::WramTiled, t, opt);
      EXPECT_EQ(r.c, base.c) << "t=" << t;
    }
  }
}

class GemmEstimatorExact
    : public ::testing::TestWithParam<
          std::tuple<GemmVariant, std::uint32_t, OptLevel>> {};

TEST_P(GemmEstimatorExact, EstimateEqualsSimulatedCycles) {
  const auto [variant, tasklets, opt] = GetParam();
  Rng rng(91);
  const int n = 700, k = 23;
  std::vector<std::int16_t> a(k), b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
  const auto r = dpu_gemm(1, n, k, 1, a, b, variant, tasklets, opt);
  const Cycles est = estimate_gemm_row_cycles(n, k, variant, tasklets, opt);
  EXPECT_EQ(r.stats.wall_cycles, est)
      << "variant=" << static_cast<int>(variant) << " t=" << tasklets
      << " opt=" << static_cast<int>(opt);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemmEstimatorExact,
    ::testing::Combine(::testing::Values(GemmVariant::WramTiled,
                                         GemmVariant::MramResident),
                       ::testing::Values(1u, 3u, 11u, 16u),
                       ::testing::Values(OptLevel::O0, OptLevel::O3)));

TEST(DpuGemm, TaskletSpeedupSaturatesAtEleven) {
  // Figure 4.7(a), YOLOv3 series: speedup grows to ~11 tasklets (pipeline
  // depth) and flattens beyond.
  const int n = 33 * kGemmStrip, k = 16; // 33 strips: work for >16 tasklets
  auto cyc = [&](std::uint32_t t) {
    return estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, t,
                                    OptLevel::O3);
  };
  const double s2 = static_cast<double>(cyc(1)) / cyc(2);
  const double s11 = static_cast<double>(cyc(1)) / cyc(11);
  const double s16 = static_cast<double>(cyc(1)) / cyc(16);
  EXPECT_GT(s2, 1.7);
  EXPECT_GT(s11, 8.0);
  EXPECT_LT(s16 / s11, 1.15); // saturation: < 15% beyond 11 tasklets
}

TEST(DpuGemm, OptimizationOrderingMatchesFigure47b) {
  const int n = 1024, k = 32;
  const auto c_o0_t1 =
      estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, 1, OptLevel::O0);
  const auto c_o3_t1 =
      estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, 1, OptLevel::O3);
  const auto c_o0_t11 =
      estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, 11, OptLevel::O0);
  const auto c_o3_t11 =
      estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, 11, OptLevel::O3);
  // Worst: O0 no threading; best: O3 + threading; threading is the bigger
  // jump (thesis §4.3.3).
  EXPECT_GT(c_o0_t1, c_o3_t1);
  EXPECT_GT(c_o0_t1, c_o0_t11);
  EXPECT_GT(c_o3_t1, c_o3_t11);
  EXPECT_GT(c_o0_t11, c_o3_t11);
  const double thread_gain = static_cast<double>(c_o0_t1) / c_o0_t11;
  const double opt_gain = static_cast<double>(c_o0_t1) / c_o3_t1;
  EXPECT_GT(thread_gain, opt_gain);
}

TEST(DpuGemm, MramResidentSlowerThanWramTiled) {
  // The §4.3.3 takeaway: pushing accumulator traffic to MRAM costs cycles.
  for (std::uint32_t t : {1u, 11u}) {
    const auto wram =
        estimate_gemm_row_cycles(1500, 64, GemmVariant::WramTiled, t,
                                 OptLevel::O3);
    const auto mram =
        estimate_gemm_row_cycles(1500, 64, GemmVariant::MramResident, t,
                                 OptLevel::O3);
    EXPECT_GT(mram, wram);
  }
}

class GemmRowsPerDpu : public ::testing::TestWithParam<int> {};

TEST_P(GemmRowsPerDpu, PackedMappingBitExactAndUsesFewerDpus) {
  // §6.1 future-work mapping: pack several output rows per DPU. Results
  // must stay bit-identical to the row-per-DPU mapping; DPU count shrinks.
  const int rows = GetParam();
  Rng rng(500 + rows);
  const int m = 10, n = 300, k = 17;
  std::vector<std::int16_t> a(m * k), b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
  std::vector<std::int16_t> expect(static_cast<std::size_t>(m) * n);
  nn::gemm_q16_reference(m, n, k, 2, a, b, expect);
  for (GemmVariant variant :
       {GemmVariant::WramTiled, GemmVariant::MramResident}) {
    const auto r = dpu_gemm(m, n, k, 2, a, b, variant, 4, OptLevel::O3,
                            sim::default_config(), rows);
    EXPECT_EQ(r.c, expect) << "rows=" << rows;
    EXPECT_EQ(r.dpus_used,
              static_cast<std::uint32_t>((m + rows - 1) / rows));
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, GemmRowsPerDpu,
                         ::testing::Values(1, 2, 3, 5, 10, 16));

TEST(GemmRowsPerDpuTiming, EstimatorExactAndLatencyScalesWithRows) {
  Rng rng(91);
  const int n = 520, k = 12;
  std::vector<std::int16_t> a(4 * k), b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
  Cycles prev = 0;
  for (int rows : {1, 2, 4}) {
    for (GemmVariant variant :
         {GemmVariant::WramTiled, GemmVariant::MramResident}) {
      const auto r = dpu_gemm(4, n, k, 1, a, b, variant, 3, OptLevel::O0,
                              sim::default_config(), rows);
      EXPECT_EQ(r.stats.wall_cycles,
                estimate_gemm_row_cycles(n, k, variant, 3, OptLevel::O0,
                                         rows))
          << "rows=" << rows;
    }
    const Cycles c = estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled,
                                              11, OptLevel::O3, rows);
    EXPECT_GT(c, prev); // latency grows with packed rows
    prev = c;
  }
  // Packing R rows costs ~R x the single-row latency (amortization keeps
  // it slightly under).
  const auto c1 = estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, 11,
                                           OptLevel::O3, 1);
  const auto c8 = estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, 11,
                                           OptLevel::O3, 8);
  EXPECT_LE(c8, 8 * c1);
  EXPECT_GT(c8, 6 * c1);
}

TEST(GemmRowsPerDpu, RejectsOversizedStaging) {
  EXPECT_THROW(make_gemm_program(16, 2048, GemmVariant::WramTiled, 8),
               UsageError); // 8 * 2048 * 2 B > 20 KB WRAM stage budget
}

TEST(DpuGemm, MulSi3DominatesProfile) {
  // Every MAC multiplies 32-bit APART by B -> __mulsi3 per MAC.
  Rng rng(13);
  const int n = 64, k = 8;
  std::vector<std::int16_t> a(k), b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-5, 5));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-5, 5));
  const auto r = dpu_gemm(1, n, k, 1, a, b, GemmVariant::WramTiled, 2);
  EXPECT_GE(r.stats.profile.occurrences(sim::Subroutine::MulSI3),
            static_cast<std::uint64_t>(n) * k);
  EXPECT_EQ(r.stats.profile.float_total(), 0u);
}

TEST(DpuGemm, ValidatesArguments) {
  std::vector<std::int16_t> a(4), b(4);
  EXPECT_THROW(dpu_gemm(0, 2, 2, 1, a, b, GemmVariant::WramTiled, 1),
               UsageError);
  EXPECT_THROW(dpu_gemm(1, 2, 2, 1, a, b, GemmVariant::WramTiled, 0),
               UsageError);
  EXPECT_THROW(dpu_gemm(1, 2, 2, 1, a, b, GemmVariant::WramTiled, 17),
               UsageError);
  EXPECT_THROW(dpu_gemm(4, 2, 2, 1, std::span<const std::int16_t>(a), b,
                        GemmVariant::WramTiled, 1),
               UsageError); // A too small for m=4
  EXPECT_THROW(make_gemm_program(16, 20000, GemmVariant::WramTiled),
               UsageError); // A row would not fit WRAM staging
}

// ---- Whole network ---------------------------------------------------------

TEST(YoloNetwork, DpuMatchesCpuBitForBit) {
  const auto defs = yolov3_lite_config(1, 1);
  const auto w = YoloWeights::random(defs, 3, 404);
  YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = make_synthetic_image(3, 32, 32, 5, 9);
  const auto cpu = runner.run(img, ExecMode::Cpu);
  const auto dpu = runner.run(img, ExecMode::DpuWram, 4);
  ASSERT_EQ(cpu.outputs.size(), dpu.outputs.size());
  for (std::size_t i = 0; i < cpu.outputs.size(); ++i) {
    EXPECT_EQ(cpu.outputs[i], dpu.outputs[i]) << "layer " << i;
  }
  EXPECT_GT(dpu.total_cycles, 0u);
  EXPECT_EQ(cpu.total_cycles, 0u); // CPU mode does not consume DPU cycles
}

TEST(YoloNetwork, MramVariantSameResultsMoreCycles) {
  const auto defs = yolov3_lite_config(1, 1);
  const auto w = YoloWeights::random(defs, 3, 405);
  YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = make_synthetic_image(3, 32, 32, 5, 10);
  const auto wram = runner.run(img, ExecMode::DpuWram, 4);
  const auto mram = runner.run(img, ExecMode::DpuMram, 4);
  EXPECT_EQ(wram.outputs.back(), mram.outputs.back());
  EXPECT_GT(mram.total_cycles, wram.total_cycles);
}

TEST(YoloNetwork, EstimateMatchesSimulatedRun) {
  const auto defs = yolov3_lite_config(1, 1);
  const auto w = YoloWeights::random(defs, 3, 406);
  YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = make_synthetic_image(3, 32, 32, 5, 11);
  const auto run = runner.run(img, ExecMode::DpuWram, 11);
  const auto est = YoloRunner::estimate(defs, 3, 32, 32,
                                        GemmVariant::WramTiled, 11,
                                        OptLevel::O3);
  ASSERT_EQ(run.layers.size(), est.size());
  for (std::size_t i = 0; i < est.size(); ++i) {
    EXPECT_EQ(run.layers[i].cycles, est[i].cycles) << "layer " << i;
    EXPECT_EQ(run.layers[i].dpus, est[i].dpus) << "layer " << i;
    EXPECT_EQ(run.layers[i].out_c, est[i].out_c) << "layer " << i;
  }
}

TEST(YoloNetwork, LayerShapesMatchSummary) {
  const auto defs = yolov3_lite_config(1, 1);
  const auto w = YoloWeights::random(defs, 3, 407);
  YoloRunner runner(defs, w, 3, 64, 64);
  const auto img = make_synthetic_image(3, 64, 64, 5, 12);
  const auto r = runner.run(img, ExecMode::Cpu);
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    const auto& ls = r.layers[i];
    EXPECT_EQ(r.outputs[i].size(),
              static_cast<std::size_t>(ls.out_c) * ls.out_h * ls.out_w)
        << "layer " << i;
  }
}

TEST(YoloNetwork, PlanMemoKeysOnCapacityNotAllocation) {
  // The plans depend only on the options and the banks' tightest plan
  // capacity: the allocation the first run makes must not re-plan, and a
  // quarantine that lowers the capacity must.
  sim::set_fault_config(sim::FaultConfig{});
  const auto defs = yolov3_lite_config(1, 1);
  const auto w = YoloWeights::random(defs, 3, 408);
  YoloRunner runner(defs, w, 3, 64, 64);
  const auto img = make_synthetic_image(3, 64, 64, 5, 13);
  auto& m = obs::Metrics::instance();
  m.reset();
  const auto clean = runner.run(img, ExecMode::DpuWram);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(runner.run(img, ExecMode::DpuWram).outputs, clean.outputs);
  }
  EXPECT_EQ(m.counter("map.plan.miss"), 1u);
  EXPECT_EQ(m.counter("map.plan.hit"), 3u);
  EXPECT_EQ(m.counter("map.plan.gemm"), 22u);

  // Physical DPU 0 is bad from allocation on: a fresh runner's first run
  // quarantines it, which lowers the capacity, so its second run re-plans
  // and its third plans from the memo again.
  sim::FaultConfig faults;
  faults.bad_dpu_mask = 0x1;
  sim::set_fault_config(faults);
  m.reset();
  YoloRunner faulty(defs, w, 3, 64, 64);
  EXPECT_EQ(faulty.run(img, ExecMode::DpuWram).outputs, clean.outputs);
  EXPECT_GT(m.counter("pool.quarantined"), 0u);
  EXPECT_EQ(m.counter("map.plan.miss"), 1u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(faulty.run(img, ExecMode::DpuWram).outputs, clean.outputs);
  }
  EXPECT_EQ(m.counter("map.plan.miss"), 2u);
  EXPECT_EQ(m.counter("map.plan.hit"), 1u);
  sim::set_fault_config(sim::FaultConfig{});
  m.reset();
}

TEST(YoloNetwork, WeightsValidation) {
  const auto defs = yolov3_lite_config(1, 1);
  YoloWeights empty;
  EXPECT_THROW(YoloRunner(defs, empty, 3, 32, 32), UsageError);
  const auto w = YoloWeights::random(defs, 3, 1);
  YoloRunner runner(defs, w, 3, 32, 32);
  std::vector<std::int16_t> wrong(10);
  EXPECT_THROW(runner.run(wrong, ExecMode::Cpu), UsageError);
}

// ---- Detection head --------------------------------------------------------

TEST(Detect, AnchorsArePublishedNine) {
  const auto a = yolov3_anchors();
  ASSERT_EQ(a.size(), 9u);
  EXPECT_FLOAT_EQ(a[0].w, 10.0f);
  EXPECT_FLOAT_EQ(a[8].h, 326.0f);
}

TEST(Detect, DecodeFindsPlantedObject) {
  // One box type, 2 classes -> channels = 1 * (5 + 2) = 7, on a 4x4 grid.
  const int classes = 2, h = 4, w = 4, frac = 5;
  const int channels = 7;
  std::vector<std::int16_t> preds(channels * h * w, 0);
  auto set = [&](int c, int y, int x, float v) {
    preds[(c * h + y) * w + x] = static_cast<std::int16_t>(v * (1 << frac));
  };
  // Background objectness strongly negative; one hot cell at (2,1).
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      set(4, y, x, -8.0f);
    }
  }
  set(4, 2, 1, 8.0f);       // objectness -> sigmoid ~ 1
  set(5, 2, 1, -8.0f);      // class 0 low
  set(6, 2, 1, 8.0f);       // class 1 high
  const auto anchors = yolov3_anchors();
  const int mask[] = {0};
  const auto dets = decode_yolo_layer(preds, channels, h, w, classes, anchors,
                                      mask, 64, 64, frac, 0.5f);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].class_id, 1);
  EXPECT_GT(dets[0].objectness, 0.9f);
  EXPECT_NEAR(dets[0].x, (1 + 0.5f) / 4.0f, 0.05f);
  EXPECT_NEAR(dets[0].y, (2 + 0.5f) / 4.0f, 0.05f);
}

TEST(Detect, IouProperties) {
  Detection a{0.5f, 0.5f, 0.2f, 0.2f, 1.0f, 0, 1.0f};
  EXPECT_NEAR(iou(a, a), 1.0f, 1e-6f);
  Detection b{0.9f, 0.9f, 0.1f, 0.1f, 1.0f, 0, 1.0f};
  EXPECT_FLOAT_EQ(iou(a, b), 0.0f);
}

TEST(Detect, NmsSuppressesOverlaps) {
  Detection strong{0.5f, 0.5f, 0.2f, 0.2f, 0.9f, 0, 1.0f};
  Detection weak{0.51f, 0.5f, 0.2f, 0.2f, 0.5f, 0, 1.0f};
  Detection other_class{0.5f, 0.5f, 0.2f, 0.2f, 0.6f, 1, 1.0f};
  Detection far{0.1f, 0.1f, 0.05f, 0.05f, 0.7f, 0, 1.0f};
  const auto kept = nms({weak, strong, other_class, far}, 0.5f);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_FLOAT_EQ(kept[0].objectness, 0.9f); // sorted by objectness
}

TEST(Detect, SyntheticImageIsDeterministicAndBounded) {
  const auto a = make_synthetic_image(3, 32, 32, 5, 1);
  const auto b = make_synthetic_image(3, 32, 32, 5, 1);
  EXPECT_EQ(a, b);
  for (auto v : a) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 32); // values in [0, 1] at 5 fractional bits
  }
}

} // namespace
} // namespace pimdnn::yolo
