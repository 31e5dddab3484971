// pimdnn::map tests: the PIMDNN_MAPPING override grammar, the shared
// constraint checks (satellite of the 10240-element WRAM A-stage bound),
// the candidate enumerators (including quarantine-reduced DPU caps and
// degenerate shapes), the Mapper's resolution precedence, and the
// calibration contract — the analytic kernel estimators the mapper
// searches with must equal the simulated wall cycles in both sim modes,
// and the auto plan must never be predicted worse than the paper mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sim_mode.hpp"
#include "core/offloader.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "map/constraints.hpp"
#include "map/mapper.hpp"
#include "map/plan.hpp"
#include "map/space.hpp"
#include "obs/metrics.hpp"
#include "runtime/banked_executor.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using runtime::OptLevel;
using yolo::GemmVariant;

// ---- override grammar ------------------------------------------------------

TEST(MappingOverride, ParsesKeywordsAndRoundTrips) {
  EXPECT_EQ(map::MappingOverride::parse("auto").kind,
            map::MappingOverride::Kind::Auto);
  EXPECT_EQ(map::MappingOverride::parse("paper").kind,
            map::MappingOverride::Kind::Paper);
  for (const char* text :
       {"auto", "paper", "rows=2", "images=8", "tasklets=4",
        "rows=2,images=8,tasklets=4", "tasklets=4,rows=2"}) {
    const auto o = map::MappingOverride::parse(text);
    // to_string canonicalizes order; re-parsing must reproduce the fields.
    const auto back = map::MappingOverride::parse(o.to_string());
    EXPECT_EQ(back.kind, o.kind) << text;
    EXPECT_EQ(back.rows_per_dpu, o.rows_per_dpu) << text;
    EXPECT_EQ(back.items_per_dpu, o.items_per_dpu) << text;
    EXPECT_EQ(back.n_tasklets, o.n_tasklets) << text;
  }
  const auto o = map::MappingOverride::parse("tasklets=4,rows=2");
  EXPECT_EQ(o.kind, map::MappingOverride::Kind::Pinned);
  EXPECT_EQ(o.rows_per_dpu, std::optional<int>(2));
  EXPECT_EQ(o.n_tasklets, std::optional<std::uint32_t>(4u));
  EXPECT_FALSE(o.items_per_dpu.has_value());
}

TEST(MappingOverride, RejectsMalformedText) {
  for (const char* text : {"bogus", "rows=", "rows=0", "tasklets=0",
                           "images=x", "rows=1,bogus=2", "rows"}) {
    EXPECT_THROW(map::MappingOverride::parse(text), ConfigError) << text;
  }
  // Values past the field's type, or past 2^64 - 1, must not wrap or
  // truncate into a legal value; the diagnostic names the token.
  for (const char* text :
       {"rows=4294967297", "rows=2147483648", "tasklets=4294967312",
        "rows=18446744073709551617", "images=4294967296"}) {
    try {
      map::MappingOverride::parse(text);
      FAIL() << "accepted '" << text << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
          << text << " -> " << e.what();
    }
  }
}

TEST(MappingOverride, ParsesAndRoundTripsSplit) {
  const auto lone = map::MappingOverride::parse("split=4");
  EXPECT_EQ(lone.kind, map::MappingOverride::Kind::Pinned);
  EXPECT_EQ(lone.split, std::optional<std::uint32_t>(4u));
  EXPECT_EQ(lone.to_string(), "split=4");
  // split=1 is legal: an explicit "stay unsplit".
  EXPECT_EQ(map::MappingOverride::parse("split=1").split,
            std::optional<std::uint32_t>(1u));
  const auto mixed = map::MappingOverride::parse("split=2,rows=3");
  EXPECT_EQ(mixed.rows_per_dpu, std::optional<int>(3));
  EXPECT_EQ(mixed.split, std::optional<std::uint32_t>(2u));
  const auto back = map::MappingOverride::parse(mixed.to_string());
  EXPECT_EQ(back.rows_per_dpu, mixed.rows_per_dpu);
  EXPECT_EQ(back.split, mixed.split);
}

TEST(MappingOverride, RejectsMalformedSplitNamingTheToken) {
  for (const char* text : {"split=", "split=0", "split=3", "split=abc",
                           "split=6", "rows=2,split=0", "split=4294967296"}) {
    try {
      map::MappingOverride::parse(text);
      FAIL() << "accepted '" << text << "'";
    } catch (const ConfigError& e) {
      // The diagnostic must name the offending token, not just the line.
      EXPECT_NE(std::string(e.what()).find("split"), std::string::npos)
          << text << " -> " << e.what();
    }
  }
}

TEST(MappingOverride, ScopedOverrideNestsAndRestores) {
  map::clear_default_mapping_override();
  {
    map::ScopedMappingOverride outer("paper");
    EXPECT_EQ(map::mapping_override().kind,
              map::MappingOverride::Kind::Paper);
    {
      map::ScopedMappingOverride inner("rows=3");
      EXPECT_EQ(map::mapping_override().kind,
                map::MappingOverride::Kind::Pinned);
    }
    EXPECT_EQ(map::mapping_override().kind,
              map::MappingOverride::Kind::Paper);
  }
}

// ---- shared constraints ----------------------------------------------------

TEST(MapConstraints, WramAStageBoundIsSingleSourceOfTruth) {
  // 10240 int16 elements at k=1024: exactly 5 rows fit (stride 2048 B).
  EXPECT_EQ(map::gemm_a_stride_bytes(1024), 2048u);
  EXPECT_EQ(map::max_gemm_rows_per_dpu(1024), 10);
  EXPECT_TRUE(map::gemm_rows_fit(1024, 10));
  EXPECT_FALSE(map::gemm_rows_fit(1024, 11));
  EXPECT_THROW(map::require_gemm_rows(1024, 11), UsageError);
  EXPECT_THROW(map::require_positive_rows(0), UsageError);
  EXPECT_THROW(map::require_positive_rows(-3), UsageError);
  EXPECT_THROW(map::require_gemm_tasklets(0), UsageError);
  EXPECT_THROW(map::require_gemm_tasklets(17), UsageError);
  EXPECT_THROW(map::require_gemm_shape(0, 5), UsageError);
  // A k too large for even one row: no feasible WramTiled mapping.
  EXPECT_EQ(map::max_gemm_rows_per_dpu(11000), 0);
}

TEST(MapConstraints, ErrorStringsAreStable) {
  try {
    map::require_gemm_rows(1024, 11);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(),
                 "A rows too large to stage in WRAM (rows_per_dpu * k > "
                 "10240)");
  }
  try {
    map::require_gemm_tasklets(17);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "GEMM tasklets must be in [1, 16]");
  }
}

// ---- candidate enumeration -------------------------------------------------

TEST(MappingSpace, GemmRowsIncludePaperAndWramEndpoints) {
  const auto rows = map::gemm_rows_candidates(256, 1152, {});
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front(), 1);
  // Every candidate fits the WRAM budget.
  for (int r : rows) {
    EXPECT_TRUE(map::gemm_rows_fit(1152, r)) << r;
  }
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST(MappingSpace, DpuCapForcesPackedRows) {
  // A quarantine-reduced pool of 32 DPUs for a 256-row GEMM: every
  // candidate must pack >= ceil(256/32) = 8 rows per DPU.
  map::Limits limits;
  limits.max_dpus = 32;
  const auto rows = map::gemm_rows_candidates(256, 128, limits);
  ASSERT_FALSE(rows.empty());
  for (int r : rows) {
    EXPECT_GE(r, 8) << r;
  }
  // An infeasible cap (rows needed exceed the WRAM fit) yields no
  // candidates at all.
  limits.max_dpus = 1;
  EXPECT_TRUE(map::gemm_rows_candidates(256, 1024, limits).empty());
}

TEST(MappingSpace, BatchItemsCoverDegenerateSingleImage) {
  const auto one = map::batch_items_candidates(16, 1, {});
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.front(), 1u);
  map::Limits limits;
  limits.max_dpus = 2;
  // 40 items over 2 DPUs: at least 20 per DPU — over the capacity of 16.
  EXPECT_TRUE(map::batch_items_candidates(16, 40, limits).empty());
}

TEST(MappingSpace, TaskletCandidatesIncludeSaturationPoint) {
  const auto t = map::tasklet_candidates(16);
  EXPECT_NE(std::find(t.begin(), t.end(), 11u), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), 16u), t.end());
  EXPECT_EQ(t.front(), 1u);
}

// ---- mapper precedence -----------------------------------------------------

map::GemmRequest small_gemm_request(int m, int n, int k) {
  map::GemmRequest req;
  req.m = m;
  req.n = n;
  req.k = k;
  req.kernel_cycles = [n, k](int rows, std::uint32_t t) {
    return yolo::estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled, t,
                                          OptLevel::O3, rows);
  };
  req.bcast_bytes_per_dpu = static_cast<MemSize>(k) * n * 2;
  req.a_bytes_per_row = map::gemm_a_stride_bytes(k);
  req.c_bytes_per_row = static_cast<MemSize>(n) * 2;
  return req;
}

TEST(Mapper, CallerPinsBeatEnvironment) {
  map::ScopedMappingOverride env("rows=4,tasklets=2");
  auto req = small_gemm_request(8, 300, 64);
  req.pinned_rows = 2;
  req.pinned_tasklets = 8;
  const auto plan = map::Mapper().plan_gemm(req);
  EXPECT_EQ(plan.source, map::MappingSource::Pinned);
  EXPECT_EQ(plan.rows_per_dpu, 2);
  EXPECT_EQ(plan.n_tasklets, 8u);
  EXPECT_EQ(plan.n_dpus, 4u);
}

TEST(Mapper, PartialPinFallsBackToPaperValues) {
  map::clear_default_mapping_override();
  auto req = small_gemm_request(8, 300, 64);
  req.pinned_tasklets = 8; // rows unpinned -> paper's 1 row per DPU
  const auto plan = map::Mapper().plan_gemm(req);
  EXPECT_EQ(plan.source, map::MappingSource::Pinned);
  EXPECT_EQ(plan.rows_per_dpu, 1);
  EXPECT_EQ(plan.n_tasklets, 8u);
}

TEST(Mapper, PaperOverrideReproducesThesisMapping) {
  map::ScopedMappingOverride env("paper");
  const auto plan = map::Mapper().plan_gemm(small_gemm_request(8, 300, 64));
  EXPECT_EQ(plan.source, map::MappingSource::Paper);
  EXPECT_EQ(plan.rows_per_dpu, 1);
  EXPECT_EQ(plan.n_tasklets, 11u);
  EXPECT_EQ(plan.n_dpus, 8u);
}

TEST(Mapper, AutoNeverPredictedWorseThanPaper) {
  map::clear_default_mapping_override();
  for (int m : {1, 8, 64, 256}) {
    const auto req = small_gemm_request(m, 2704, 1152);
    map::ScopedMappingOverride paper("paper");
    const auto paper_plan = map::Mapper().plan_gemm(req);
    map::ScopedMappingOverride auto_mode("auto");
    const auto auto_plan = map::Mapper().plan_gemm(req);
    EXPECT_EQ(auto_plan.source, map::MappingSource::Auto);
    EXPECT_LE(auto_plan.predicted.makespan_seconds,
              paper_plan.predicted.makespan_seconds)
        << "m=" << m;
  }
}

TEST(Mapper, AutoGemmRespectsDpuCapacityLimit) {
  map::ScopedMappingOverride env("auto");
  auto req = small_gemm_request(64, 300, 64);
  // A quarantine-shrunken pool caps the plan: the infeasible 64-DPU paper
  // seed must yield to a feasible packed mapping even when the packed
  // mapping prices worse.
  req.limits.max_dpus = 63;
  const auto plan = map::Mapper().plan_gemm(req);
  EXPECT_EQ(plan.source, map::MappingSource::Auto);
  EXPECT_LE(plan.n_dpus, 63u);
  EXPECT_GE(plan.rows_per_dpu, 2);
}

TEST(Mapper, AutoBatchRespectsDpuCapacityLimit) {
  map::ScopedMappingOverride env("auto");
  map::BatchRequest req;
  req.n_items = 64;
  req.capacity = 16;
  req.paper_items = 1; // paper seed: one item per DPU -> 64 DPUs
  req.paper_tasklets = 1;
  req.kernel_cycles = [](std::uint32_t items, std::uint32_t t) {
    return static_cast<Cycles>(1000 * ((items + t - 1) / t));
  };
  req.item_in_bytes = 784;
  req.item_out_bytes = 40;
  req.limits.max_dpus = 8;
  const auto plan = map::Mapper().plan_batch(req);
  EXPECT_LE(plan.n_dpus, 8u);
  EXPECT_GE(plan.items_per_dpu, 8u);
}

TEST(Mapper, BatchDegenerateSingleItem) {
  map::clear_default_mapping_override();
  map::BatchRequest req;
  req.n_items = 1;
  req.capacity = 16;
  req.kernel_cycles = [](std::uint32_t items, std::uint32_t t) {
    return static_cast<Cycles>(1000 * ((items + t - 1) / t));
  };
  req.item_in_bytes = 784;
  req.item_out_bytes = 40;
  const auto plan = map::Mapper().plan_batch(req);
  EXPECT_EQ(plan.n_dpus, 1u);
  EXPECT_GE(plan.items_per_dpu, 1u);
  EXPECT_GE(plan.n_tasklets, 1u);
}

TEST(Mapper, PlanObsSuffixNamesEveryDimension) {
  map::MappingPlan plan;
  plan.rows_per_dpu = 2;
  plan.items_per_dpu = 8;
  plan.n_tasklets = 11;
  plan.source = map::MappingSource::Auto;
  EXPECT_EQ(plan.obs_suffix(), "/map=auto/r=2/i=8/t=11");
  // A split plan gets its own signature bucket: "/s=K" only when split.
  plan.split = 2;
  EXPECT_EQ(plan.obs_suffix(), "/map=auto/r=2/i=8/t=11/s=2");
}

// ---- split selection -------------------------------------------------------

/// An eBNN-shaped batch request: real per-image transfer volumes and the
/// calibrated kernel estimator, the same request the bench prices.
map::BatchRequest ebnn_batch_request(std::size_t n_items,
                                     std::uint32_t max_split) {
  static const ebnn::EbnnConfig cfg;
  map::BatchRequest req;
  req.n_items = n_items;
  req.capacity = 16;
  req.kernel_cycles = [](std::uint32_t items, std::uint32_t tk) {
    return ebnn::estimate_ebnn_wall_cycles(cfg, ebnn::BnMode::HostLut,
                                           ebnn::ConvKernel::Scalar, items,
                                           tk, OptLevel::O3);
  };
  req.item_in_bytes = 28 * 28;
  req.item_out_bytes = 64;
  req.max_split = max_split;
  return req;
}

TEST(MapperSplit, CallSitesWithoutSplitPathNeverSplit) {
  map::clear_default_mapping_override();
  // max_split=1 (every historical call site): the split axis stays shut.
  const auto plan =
      map::Mapper().plan_batch(ebnn_batch_request(256, 1));
  EXPECT_EQ(plan.split, 1u);
}

TEST(MapperSplit, PaperOverrideNeverSplits) {
  map::ScopedMappingOverride env("paper");
  const auto plan =
      map::Mapper().plan_batch(ebnn_batch_request(256, 8));
  EXPECT_EQ(plan.source, map::MappingSource::Paper);
  EXPECT_EQ(plan.split, 1u);
}

TEST(MapperSplit, AutoSplitsOnlyOnStrictPredictedWin) {
  map::ScopedMappingOverride env("auto");
  const auto unsplit =
      map::Mapper().plan_batch(ebnn_batch_request(256, 1));
  const auto split =
      map::Mapper().plan_batch(ebnn_batch_request(256, 8));
  // The overlapped two-bank timeline hides transfers behind kernels:
  // the mapper must find a strictly cheaper split for this shape.
  EXPECT_GT(split.split, 1u);
  EXPECT_LT(split.predicted.makespan_seconds,
            unsplit.predicted.makespan_seconds);
  // n_dpus stays the TOTAL across sub-launches; executors re-derive the
  // cut points from (n_dpus, split) via runtime::split_ranges.
  const auto ranges = runtime::split_ranges(split.n_dpus, split.split);
  EXPECT_EQ(ranges.size(), split.split);
  std::uint32_t total = 0;
  for (const auto& r : ranges) total += r.n_units;
  EXPECT_EQ(total, split.n_dpus);
}

TEST(MapperSplit, EnvPinnedSplitClampedByCallSiteCapability) {
  map::ScopedMappingOverride env("split=8");
  // The call site can only double-buffer 2 sub-launches: clamp 8 -> 2.
  const auto clamped =
      map::Mapper().plan_batch(ebnn_batch_request(256, 2));
  EXPECT_EQ(clamped.split, 2u);
  // A split-incapable call site ignores the pin entirely.
  const auto unsplit =
      map::Mapper().plan_batch(ebnn_batch_request(256, 1));
  EXPECT_EQ(unsplit.split, 1u);
  // A fully capable call site honors it.
  const auto full = map::Mapper().plan_batch(ebnn_batch_request(256, 8));
  EXPECT_EQ(full.split, 8u);
}

TEST(MapperSplit, GemmSplitPricedAgainstUnsplitPaperFirst) {
  map::ScopedMappingOverride env("auto");
  auto req = small_gemm_request(64, 2704, 1152);
  const auto unsplit = map::Mapper().plan_gemm(req);
  req.max_split = 8;
  const auto split = map::Mapper().plan_gemm(req);
  // Split is only ever chosen on a strict predicted win over the best
  // unsplit plan (which itself never prices worse than paper).
  EXPECT_LE(split.predicted.makespan_seconds,
            unsplit.predicted.makespan_seconds);
  if (split.split > 1) {
    EXPECT_LT(split.predicted.makespan_seconds,
              unsplit.predicted.makespan_seconds);
  }
}

// ---- pipeline wiring -------------------------------------------------------

TEST(MapPipelines, GemmAutoMatchesPaperBitExactly) {
  map::clear_default_mapping_override();
  const int m = 24, n = 300, k = 64;
  Rng rng(99);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));

  runtime::DpuPool pool_auto{sim::default_config()};
  runtime::DpuPool pool_paper{sim::default_config()};
  const auto auto_r = yolo::dpu_gemm_pooled(
      pool_auto, m, n, k, 1, a, b, GemmVariant::WramTiled,
      map::kAutoTasklets, OptLevel::O3, map::kAutoRows);
  map::ScopedMappingOverride env("paper");
  const auto paper_r = yolo::dpu_gemm_pooled(
      pool_paper, m, n, k, 1, a, b, GemmVariant::WramTiled,
      map::kAutoTasklets, OptLevel::O3, map::kAutoRows);
  EXPECT_EQ(auto_r.c, paper_r.c);
  EXPECT_EQ(paper_r.dpus_used, static_cast<std::uint32_t>(m));
}

TEST(MapPipelines, YoloDefaultOptionsResolveThroughMapper) {
  map::clear_default_mapping_override();
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 515);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 6);

  // Auto (all defaults) vs the env-pinned paper mapping: bit-identical
  // outputs, and paper reproduces the thesis' one-row-per-DPU counts.
  yolo::RunOptions opts; // sentinels
  const auto auto_run = runner.run(img, opts);
  map::ScopedMappingOverride env("paper");
  yolo::YoloRunner paper_runner(defs, w, 3, 32, 32);
  const auto paper_run = paper_runner.run(img, opts);
  ASSERT_EQ(auto_run.outputs.size(), paper_run.outputs.size());
  for (std::size_t i = 0; i < auto_run.outputs.size(); ++i) {
    EXPECT_EQ(auto_run.outputs[i], paper_run.outputs[i]) << "layer " << i;
  }
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].type != yolo::LayerType::Convolutional) continue;
    EXPECT_EQ(paper_run.layers[i].dpus,
              static_cast<std::uint32_t>(defs[i].filters))
        << "paper mapping must keep one row per DPU at layer " << i;
  }
}

TEST(MapPipelines, ExplicitZeroTaskletsStillThrow) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 515);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 6);
  yolo::RunOptions opts;
  opts.n_tasklets = 0;
  EXPECT_THROW(runner.run(img, opts), UsageError);
  opts.n_tasklets = map::kAutoTasklets;
  opts.rows_per_dpu = -1;
  EXPECT_THROW(runner.run(img, opts), UsageError);
}

TEST(MapPipelines, EbnnAutoMatchesPaperPredictions) {
  map::clear_default_mapping_override();
  const ebnn::EbnnConfig cfg;
  const auto w = ebnn::EbnnWeights::random(cfg, 42);
  const auto images = ebnn::images_only(ebnn::make_synthetic_mnist(33, 9));

  ebnn::EbnnHost auto_host(cfg, w, ebnn::BnMode::HostLut);
  const auto auto_r = auto_host.run(images); // sentinel tasklets
  map::ScopedMappingOverride env("paper");
  ebnn::EbnnHost paper_host(cfg, w, ebnn::BnMode::HostLut);
  const auto paper_r = paper_host.run(images);
  EXPECT_EQ(auto_r.predicted, paper_r.predicted);
  EXPECT_EQ(auto_r.features, paper_r.features);
  // Paper mapping: 16 images per DPU -> ceil(33/16) = 3 DPUs.
  EXPECT_EQ(paper_r.dpus_used, 3u);
}

TEST(MapPipelines, OffloaderAutoSentinelRunsPaperWithoutCostHook) {
  map::clear_default_mapping_override();
  core::WorkloadSpec spec;
  spec.name = "map_test";
  spec.item_in_bytes = 8;
  spec.item_out_bytes = 8;
  spec.items_per_dpu = 4;
  core::Offloader eng(spec, [](core::ItemCtx& ic) {
    ic.ctx.charge_alu(1);
    std::uint64_t v;
    std::memcpy(&v, ic.input, 8);
    v *= 3;
    std::memcpy(ic.output, &v, 8);
  });
  std::vector<std::vector<std::uint8_t>> items(10);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].resize(8);
    const std::uint64_t v = i + 1;
    std::memcpy(items[i].data(), &v, 8);
  }
  const auto auto_r = eng.run(items); // sentinel: no hook -> paper mapping
  const auto pinned = eng.run(items, 4);
  EXPECT_EQ(auto_r.outputs, pinned.outputs);
  EXPECT_EQ(auto_r.dpus_used, 3u); // ceil(10/4)
}

// ---- calibration: estimators equal simulated walls -------------------------

class BothSimModes : public ::testing::TestWithParam<SimMode> {
protected:
  void SetUp() override { set_default_sim_mode(GetParam()); }
  void TearDown() override { set_default_sim_mode(SimMode::Interp); }
};

TEST_P(BothSimModes, EbnnEstimatorEqualsSimulatedWall) {
  const ebnn::EbnnConfig cfg;
  const auto w = ebnn::EbnnWeights::random(cfg, 42);
  for (const auto mode : {ebnn::BnMode::HostLut, ebnn::BnMode::SoftFloat}) {
    for (const auto kernel :
         {ebnn::ConvKernel::Scalar, ebnn::ConvKernel::PackedRows}) {
      for (const std::uint32_t n_images : {1u, 5u, 16u}) {
        for (const std::uint32_t t : {1u, 3u, 16u}) {
          const auto images =
              ebnn::images_only(ebnn::make_synthetic_mnist(n_images, 7));
          ebnn::EbnnHost host(cfg, w, mode, sim::default_config(), kernel);
          const auto r = host.run(images, t); // pinned: one full DPU
          EXPECT_EQ(r.launch.wall_cycles,
                    ebnn::estimate_ebnn_wall_cycles(cfg, mode, kernel,
                                                    n_images, t,
                                                    OptLevel::O3))
              << "mode=" << static_cast<int>(mode)
              << " kernel=" << static_cast<int>(kernel)
              << " images=" << n_images << " t=" << t;
        }
      }
    }
  }
}

TEST_P(BothSimModes, DeepEbnnEstimatorEqualsSimulatedWall) {
  ebnn::DeepEbnnConfig cfg;
  cfg.blocks = {{8}, {12}};
  const auto w = ebnn::DeepEbnnWeights::random(cfg, 11);
  ebnn::DeepEbnnHost host(cfg, w);
  const std::uint32_t cap = host.images_per_dpu();
  for (const std::uint32_t n_images : {1u, cap}) {
    for (const std::uint32_t t : {1u, cap}) {
      const auto images =
          ebnn::images_only(ebnn::make_synthetic_mnist(n_images, 3));
      const auto r = host.run(images, t); // pinned: one full DPU
      EXPECT_EQ(r.launch.wall_cycles,
                ebnn::estimate_deep_ebnn_wall_cycles(cfg, n_images, t,
                                                     OptLevel::O3))
          << "images=" << n_images << " t=" << t;
    }
  }
}

TEST_P(BothSimModes, GemmEstimatorEqualsSimulatedWall) {
  const int m = 4, n = 300, k = 64;
  Rng rng(31);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
  for (const int rows : {1, 2, 4}) {
    for (const std::uint32_t t : {1u, 8u, 11u}) {
      const auto r = yolo::dpu_gemm(m, n, k, 1, a, b,
                                    GemmVariant::WramTiled, t,
                                    OptLevel::O3, sim::default_config(),
                                    rows);
      EXPECT_EQ(r.stats.wall_cycles,
                yolo::estimate_gemm_row_cycles(n, k, GemmVariant::WramTiled,
                                               t, OptLevel::O3, rows))
          << "rows=" << rows << " t=" << t;
    }
  }
}

TEST_P(BothSimModes, EstimatorsFollowPipelineStages) {
  // With 14 pipeline stages and 1-2 tasklets the per-tasklet latency bound
  // (S * slots + DMA) sets the wall, so every estimator must price the
  // launch with the DPU's own stage count, not the default 11. The runs
  // themselves plan through the same estimators on their config: the
  // mapper's predicted kernel wall, which the drift gauge compares with
  // the simulated one, must match it exactly.
  sim::UpmemConfig sys = sim::default_config();
  sys.pipeline_stages = 14;
  auto& metrics = obs::Metrics::instance();
  metrics.reset();
  const auto expect_no_drift = [&metrics](const std::string& what) {
    const auto drift = metrics.histogram("obs.drift.kernel_pct");
    EXPECT_GT(drift.count(), 0u) << what;
    EXPECT_EQ(drift.max(), 0.0) << what;
    metrics.reset();
  };

  const int m = 2, n = 300, k = 64;
  Rng rng(17);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
  for (const auto variant :
       {GemmVariant::WramTiled, GemmVariant::MramResident}) {
    for (const std::uint32_t t : {1u, 2u}) {
      const auto r = yolo::dpu_gemm(m, n, k, 1, a, b, variant, t,
                                    OptLevel::O3, sys, 1);
      const std::string what =
          "variant=" + std::to_string(static_cast<int>(variant)) +
          " t=" + std::to_string(t);
      EXPECT_EQ(r.stats.wall_cycles,
                yolo::estimate_gemm_row_cycles(n, k, variant, t,
                                               OptLevel::O3, 1, sys))
          << what;
      expect_no_drift(what);
    }
  }

  const ebnn::EbnnConfig cfg;
  const auto w = ebnn::EbnnWeights::random(cfg, 42);
  ebnn::DeepEbnnConfig deep_cfg;
  deep_cfg.blocks = {{8}, {12}};
  const auto deep_w = ebnn::DeepEbnnWeights::random(deep_cfg, 11);
  const auto images = ebnn::images_only(ebnn::make_synthetic_mnist(2, 7));
  for (const std::uint32_t t : {1u, 2u}) {
    ebnn::EbnnHost host(cfg, w, ebnn::BnMode::HostLut, sys,
                        ebnn::ConvKernel::PackedRows);
    EXPECT_EQ(host.run(images, t).launch.wall_cycles,
              ebnn::estimate_ebnn_wall_cycles(
                  cfg, ebnn::BnMode::HostLut, ebnn::ConvKernel::PackedRows,
                  2, t, OptLevel::O3, sys))
        << "eBNN t=" << t;
    expect_no_drift("eBNN t=" + std::to_string(t));
    ebnn::DeepEbnnHost deep(deep_cfg, deep_w, sys);
    EXPECT_EQ(deep.run(images, t).launch.wall_cycles,
              ebnn::estimate_deep_ebnn_wall_cycles(deep_cfg, 2, t,
                                                   OptLevel::O3, sys))
        << "deep eBNN t=" << t;
    expect_no_drift("deep eBNN t=" + std::to_string(t));
  }
}

INSTANTIATE_TEST_SUITE_P(MapCalibration, BothSimModes,
                         ::testing::Values(SimMode::Interp, SimMode::Fast),
                         [](const auto& info) {
                           return std::string(sim_mode_name(info.param));
                         });

} // namespace
} // namespace pimdnn
