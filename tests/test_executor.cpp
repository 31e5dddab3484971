// Two-bank executor tests: every pipeline pinned to a split schedule must
// reproduce the paper mapping's outputs bit for bit (clean and under a
// fixed-seed fault plan, in both simulators); a pipelined run that throws
// mid-ring must wait out its in-flight batch and leave the host reusable;
// and a split result's wall must be the busier bank's summed walls, not
// the sum over both banks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/sim_mode.hpp"
#include "core/offloader.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "map/plan.hpp"
#include "map/space.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using map::ScopedMappingOverride;

/// Sub-launches a split=K schedule cuts `n_dpus` DPU groups into.
std::uint32_t chunks(std::uint32_t n_dpus, std::uint32_t k) {
  return std::min(n_dpus, k);
}

std::vector<ebnn::Image> mnist(std::size_t n, std::uint64_t seed) {
  return ebnn::images_only(ebnn::make_synthetic_mnist(n, seed));
}

core::Offloader make_offloader() {
  core::WorkloadSpec spec;
  spec.name = "scale";
  spec.item_in_bytes = 32;
  spec.item_out_bytes = 32;
  spec.items_per_dpu = 4;
  spec.consts = {5};
  return core::Offloader(spec, [](core::ItemCtx& ic) {
    for (MemSize i = 0; i < 32; ++i) {
      const std::int32_t v = ic.input[i];
      ic.output[i] = static_cast<std::uint8_t>(
          ic.ctx.add(ic.ctx.mul(v, 2, 8), ic.consts[0]));
    }
    ic.ctx.charge_loop(32);
  });
}

std::vector<std::vector<std::uint8_t>> offload_items(std::size_t n,
                                                     std::size_t salt) {
  std::vector<std::vector<std::uint8_t>> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].resize(32);
    for (std::size_t j = 0; j < 32; ++j) {
      items[i][j] = static_cast<std::uint8_t>(salt * 31 + i * 3 + j);
    }
  }
  return items;
}

// ---- split parity ----------------------------------------------------------

/// (simulator, pinned split factor).
class SplitParity
    : public ::testing::TestWithParam<std::tuple<SimMode, std::uint32_t>> {
protected:
  void SetUp() override {
    sim::set_fault_config(sim::FaultConfig{});
    set_default_sim_mode(std::get<0>(GetParam()));
  }
  void TearDown() override {
    sim::set_fault_config(sim::FaultConfig{});
    set_default_sim_mode(SimMode::Interp);
  }
  std::uint32_t k() const { return std::get<1>(GetParam()); }
  std::string split_pin() const { return "split=" + std::to_string(k()); }
};

INSTANTIATE_TEST_SUITE_P(
    ModesAndSplits, SplitParity,
    ::testing::Combine(::testing::Values(SimMode::Interp, SimMode::Fast),
                       ::testing::Values(2u, 8u)),
    [](const auto& info) {
      return std::string(sim_mode_name(std::get<0>(info.param))) + "_split" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(SplitParity, EbnnHostMatchesPaper) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto images = mnist(130, 5); // 9 DPUs at the paper's 16 per DPU

  ebnn::EbnnBatchResult paper;
  {
    ScopedMappingOverride pin("paper");
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    paper = host.run(images);
  }
  ScopedMappingOverride pin(split_pin());
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  const auto split = host.run(images);
  EXPECT_EQ(split.predicted, paper.predicted);
  EXPECT_EQ(split.features, paper.features);
  EXPECT_EQ(split.dpus_used, paper.dpus_used);
  EXPECT_EQ(split.launch.total_cycles, paper.launch.total_cycles);
  EXPECT_EQ(split.split, chunks(paper.dpus_used, k()));

  const auto piped = host.run_pipelined({images});
  ASSERT_EQ(piped.batches.size(), 1u);
  EXPECT_EQ(piped.batches[0].predicted, paper.predicted);
  EXPECT_EQ(piped.batches[0].features, paper.features);
  EXPECT_EQ(piped.batches[0].split, split.split);
  // Each chunk is its own item on the modeled timeline.
  EXPECT_EQ(piped.pipeline.items, split.split);
}

TEST_P(SplitParity, DeepEbnnHostMatchesPaper) {
  const ebnn::DeepEbnnConfig cfg;
  const auto weights = ebnn::DeepEbnnWeights::random(cfg, 42);

  ebnn::DeepEbnnBatchResult paper;
  std::vector<ebnn::Image> images;
  {
    ScopedMappingOverride pin("paper");
    ebnn::DeepEbnnHost host(cfg, weights);
    images = mnist(8 * host.images_per_dpu() + 3, 7); // 9 DPUs
    paper = host.run(images);
  }
  ScopedMappingOverride pin(split_pin());
  ebnn::DeepEbnnHost host(cfg, weights);
  const auto split = host.run(images);
  EXPECT_EQ(split.predicted, paper.predicted);
  EXPECT_EQ(split.features, paper.features);
  EXPECT_EQ(split.dpus_used, paper.dpus_used);
  EXPECT_EQ(split.items_per_dpu, paper.items_per_dpu);
  EXPECT_EQ(split.split, chunks(paper.dpus_used, k()));

  const auto piped = host.run_pipelined({images});
  ASSERT_EQ(piped.batches.size(), 1u);
  EXPECT_EQ(piped.batches[0].predicted, paper.predicted);
  EXPECT_EQ(piped.batches[0].features, paper.features);
  EXPECT_EQ(piped.batches[0].split, split.split);
  EXPECT_EQ(piped.pipeline.items, split.split);
}

TEST_P(SplitParity, OffloaderMatchesPaper) {
  const auto items = offload_items(38, 1); // 10 DPUs at 4 per DPU

  core::OffloadResult paper;
  {
    ScopedMappingOverride pin("paper");
    core::Offloader off = make_offloader();
    paper = off.run(items);
  }
  ScopedMappingOverride pin(split_pin());
  core::Offloader off = make_offloader();
  const auto split = off.run(items);
  EXPECT_EQ(split.outputs, paper.outputs);
  EXPECT_EQ(split.dpus_used, paper.dpus_used);
  EXPECT_EQ(split.split, chunks(paper.dpus_used, k()));

  const auto piped = off.run_pipelined({items});
  ASSERT_EQ(piped.batches.size(), 1u);
  EXPECT_EQ(piped.batches[0].outputs, paper.outputs);
  EXPECT_EQ(piped.batches[0].split, split.split);
  EXPECT_EQ(piped.pipeline.items, split.split);
}

TEST_P(SplitParity, YoloRunnerMatchesPaper) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  const auto frame = yolo::make_synthetic_image(3, 64, 64, 5, 100);
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;

  yolo::YoloRunResult paper;
  {
    ScopedMappingOverride pin("paper");
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    paper = runner.run(frame, opts);
  }
  ScopedMappingOverride pin(split_pin());
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  const auto split = runner.run(frame, opts);
  EXPECT_EQ(split.outputs, paper.outputs);
  ASSERT_EQ(split.layers.size(), paper.layers.size());
  for (std::size_t i = 0; i < split.layers.size(); ++i) {
    EXPECT_EQ(split.layers[i].dpus, paper.layers[i].dpus) << "layer " << i;
  }

  // Every conv layer runs as min(K, DPUs) chunks, and each chunk after a
  // layer's first lands on its own timeline item.
  std::size_t expect_items = 1;
  std::size_t split_layers = 0;
  for (const map::MappingPlan& p :
       runner.layer_plans(opts, map::kMaxSplitFactor)) {
    if (p.n_dpus > 1) {
      EXPECT_EQ(p.split, chunks(p.n_dpus, k()));
    }
    expect_items += p.split - 1;
    split_layers += p.split > 1 ? 1 : 0;
  }
  EXPECT_GT(split_layers, 0u);

  const auto piped = runner.run_pipelined({frame}, opts);
  ASSERT_EQ(piped.frames.size(), 1u);
  EXPECT_EQ(piped.frames[0].outputs, paper.outputs);
  EXPECT_EQ(piped.pipeline.items, expect_items);
}

TEST_P(SplitParity, FaultySplitRunsMatchCleanPaper) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto images = mnist(130, 5);
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  const auto frame = yolo::make_synthetic_image(3, 64, 64, 5, 100);
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;

  std::vector<int> clean_pred;
  std::vector<std::vector<std::int16_t>> clean_yolo;
  {
    ScopedMappingOverride pin("paper");
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    clean_pred = host.run(images).predicted;
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    clean_yolo = runner.run(frame, opts).outputs;
  }

  obs::Metrics::instance().reset();
  sim::FaultConfig fcfg;
  fcfg.seed = 42;
  fcfg.launch_fail_rate = 0.05;
  fcfg.transfer_corrupt_rate = 0.01;
  sim::set_fault_config(fcfg);

  ScopedMappingOverride pin(split_pin());
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  EXPECT_EQ(host.run(images).predicted, clean_pred);
  EXPECT_EQ(host.run_pipelined({images}).batches.at(0).predicted,
            clean_pred);
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  EXPECT_EQ(runner.run(frame, opts).outputs, clean_yolo);
  EXPECT_EQ(runner.run_pipelined({frame}, opts).frames.at(0).outputs,
            clean_yolo);
  EXPECT_GT(obs::Metrics::instance().counter("faults.injected"), 0u);
  obs::Metrics::instance().reset();
}

// ---- exception wait-out ----------------------------------------------------

// A batch that fails validation mid-ring must not unwind past the batch
// still in flight on the other bank: the executor waits it out, rethrows,
// and the host stays usable — its next run matches a fresh host's.

TEST(ExecutorWaitOut, EbnnHostRethrowsAndStaysUsable) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto good = mnist(48, 3);
  auto bad = good;
  bad[5].pop_back();

  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  EXPECT_THROW(host.run_pipelined({good, bad, good}, 16), UsageError);
  const auto after = host.run(good, 16);
  ebnn::EbnnHost fresh(cfg, weights, ebnn::BnMode::HostLut);
  const auto expect = fresh.run(good, 16);
  EXPECT_EQ(after.predicted, expect.predicted);
  EXPECT_EQ(after.features, expect.features);
  EXPECT_EQ(after.launch.wall_cycles, expect.launch.wall_cycles);
}

TEST(ExecutorWaitOut, DeepEbnnHostRethrowsAndStaysUsable) {
  const ebnn::DeepEbnnConfig cfg;
  const auto weights = ebnn::DeepEbnnWeights::random(cfg, 42);
  const auto good = mnist(24, 3);
  auto bad = good;
  bad[2].pop_back();

  ebnn::DeepEbnnHost host(cfg, weights);
  EXPECT_THROW(host.run_pipelined({good, bad, good}), UsageError);
  const auto after = host.run(good);
  ebnn::DeepEbnnHost fresh(cfg, weights);
  const auto expect = fresh.run(good);
  EXPECT_EQ(after.predicted, expect.predicted);
  EXPECT_EQ(after.features, expect.features);
  EXPECT_EQ(after.launch.wall_cycles, expect.launch.wall_cycles);
}

TEST(ExecutorWaitOut, OffloaderRethrowsAndStaysUsable) {
  const auto good = offload_items(10, 2);
  auto bad = good;
  bad[3].pop_back();

  core::Offloader off = make_offloader();
  EXPECT_THROW(off.run_pipelined({good, bad, good}, 4), UsageError);
  const auto after = off.run(good, 4);
  core::Offloader fresh = make_offloader();
  const auto expect = fresh.run(good, 4);
  EXPECT_EQ(after.outputs, expect.outputs);
  EXPECT_EQ(after.launch.wall_cycles, expect.launch.wall_cycles);
}

// ---- split wall ------------------------------------------------------------

TEST(SplitWall, MergedWallIsTheBusierBanksSum) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto images = mnist(200, 9); // 12 full DPUs + one holding 8 images

  const auto run_pinned = [&](const char* pin_text) {
    ScopedMappingOverride pin(pin_text);
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    return host.run(images);
  };
  const auto unsplit = run_pinned("paper");
  const auto split2 = run_pinned("split=2");
  const auto split8 = run_pinned("split=8");
  ASSERT_EQ(unsplit.dpus_used, 13u);
  ASSERT_EQ(split2.split, 2u);
  ASSERT_EQ(split8.split, 8u);

  // split=2: one chunk per bank, each holding a full DPU, so the banks
  // overlap exactly and the wall is the unsplit wall.
  EXPECT_EQ(split2.launch.wall_cycles, unsplit.launch.wall_cycles);
  EXPECT_DOUBLE_EQ(split2.launch.wall_seconds, unsplit.launch.wall_seconds);
  // split=8 cuts 13 DPUs into 2,2,2,2,2,1,1,1: bank 0 runs chunks 0,2,4,6
  // (each with a full DPU), bank 1 runs 1,3,5 plus the partial tail DPU.
  // Bank 0 is busier: four full-DPU walls.
  EXPECT_EQ(split8.launch.wall_cycles, 4 * unsplit.launch.wall_cycles);
  // Everything but the wall still adds across chunks.
  EXPECT_EQ(split2.launch.total_cycles, unsplit.launch.total_cycles);
  EXPECT_EQ(split8.launch.total_cycles, unsplit.launch.total_cycles);
  EXPECT_EQ(split8.launch.per_dpu.size(), unsplit.launch.per_dpu.size());
}

// ---- multi-block tails -----------------------------------------------------

// The engine runs each chunk's tail on the host pool in core::kTailBlock
// item blocks, concurrently. Each client gets a batch whose chunks span at
// least three blocks, unsplit and at split=2, clean and with one chunk
// degraded to its CPU fallback; every item must equal the golden model.

/// `n_dpus` full DPUs of `per_dpu` items: an odd count whose split=2
/// chunks (n_dpus/2 + 1 and n_dpus/2 DPUs) each hold more than two tail
/// blocks. `bad_dpu` is the one DPU index only the first chunk's bank
/// allocates, so marking it bad degrades that chunk alone.
struct TailBatch {
  std::uint32_t n_dpus = 0;
  std::size_t items = 0;
  std::uint32_t bad_dpu = 0;
};

TailBatch tail_batch(std::uint32_t per_dpu) {
  const std::uint32_t half =
      static_cast<std::uint32_t>(2 * core::kTailBlock / per_dpu + 1);
  return {2 * half + 1, std::size_t{2 * half + 1} * per_dpu, half};
}

/// (simulator, mapping pin, degrade one chunk).
class TailBlocks : public ::testing::TestWithParam<
                       std::tuple<SimMode, const char*, bool>> {
protected:
  void SetUp() override {
    sim::set_fault_config(sim::FaultConfig{});
    set_default_sim_mode(std::get<0>(GetParam()));
    obs::Metrics::instance().reset();
  }
  void TearDown() override {
    sim::set_fault_config(sim::FaultConfig{});
    set_default_sim_mode(SimMode::Interp);
    obs::Metrics::instance().reset();
  }
  bool split() const { return std::string(std::get<1>(GetParam())) != "paper"; }

  /// Pins the mapping and, for the faulty variant, marks `b.bad_dpu` bad.
  ScopedMappingOverride arrange(const TailBatch& b) const {
    if (std::get<2>(GetParam())) {
      sim::FaultConfig faults;
      faults.seed = 42;
      faults.bad_dpu_mask = std::uint64_t{1} << b.bad_dpu;
      sim::set_fault_config(faults);
    }
    return ScopedMappingOverride(std::get<1>(GetParam()));
  }

  /// The run's shape: its DPUs, its chunks, and one degraded chunk in the
  /// faulty variant.
  void expect_shape(const core::BatchStats& r, const TailBatch& b) const {
    EXPECT_EQ(r.dpus_used, b.n_dpus);
    EXPECT_EQ(r.split, split() ? 2u : 1u);
    EXPECT_EQ(r.items_per_dpu, b.items / b.n_dpus);
    const bool faulty = std::get<2>(GetParam());
    EXPECT_EQ(obs::Metrics::instance().counter("offload.fallback"),
              faulty ? 1u : 0u);
    EXPECT_EQ(r.launch.cpu_fallback, faulty);
  }
};

INSTANTIATE_TEST_SUITE_P(
    ModesPinsFaults, TailBlocks,
    ::testing::Combine(::testing::Values(SimMode::Interp, SimMode::Fast),
                       ::testing::Values("paper", "split=2"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(sim_mode_name(std::get<0>(info.param))) +
             (std::string(std::get<1>(info.param)) == "paper" ? "_unsplit"
                                                              : "_split2") +
             (std::get<2>(info.param) ? "_degraded" : "_clean");
    });

TEST_P(TailBlocks, EbnnHostMatchesGoldenModel) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const ebnn::EbnnReference ref(cfg, weights);
  const TailBatch b = tail_batch(ebnn::ebnn_layout(cfg).max_images);
  const auto images = mnist(b.items, 13);

  const auto pin = arrange(b);
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  const auto r = host.run(images);
  expect_shape(r, b);
  ASSERT_EQ(r.predicted.size(), images.size());
  ASSERT_EQ(r.features.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto golden = ref.infer(images[i].data());
    EXPECT_EQ(r.features[i], golden.feature) << "image " << i;
    EXPECT_EQ(r.predicted[i], golden.predicted) << "image " << i;
  }
}

TEST_P(TailBlocks, DeepEbnnHostMatchesGoldenModel) {
  const ebnn::DeepEbnnConfig cfg;
  const auto weights = ebnn::DeepEbnnWeights::random(cfg, 42);
  const ebnn::DeepEbnnReference ref(cfg, weights);
  const TailBatch b =
      tail_batch(ebnn::DeepEbnnHost(cfg, weights).images_per_dpu());
  const auto images = mnist(b.items, 14);

  const auto pin = arrange(b);
  ebnn::DeepEbnnHost host(cfg, weights);
  const auto r = host.run(images);
  expect_shape(r, b);
  ASSERT_EQ(r.predicted.size(), images.size());
  ASSERT_EQ(r.features.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto golden = ref.infer(images[i].data());
    EXPECT_EQ(r.features[i], golden.feature) << "image " << i;
    EXPECT_EQ(r.predicted[i], golden.predicted) << "image " << i;
  }
}

TEST_P(TailBlocks, OffloaderMatchesGoldenModel) {
  const TailBatch b = tail_batch(4);
  const auto items = offload_items(b.items, 3);

  const auto pin = arrange(b);
  core::Offloader off = make_offloader();
  const auto r = off.run(items);
  expect_shape(r, b);
  ASSERT_EQ(r.outputs.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    // make_offloader's kernel: 2x + 5 per byte, wrapping.
    std::vector<std::uint8_t> expect(32);
    for (std::size_t j = 0; j < 32; ++j) {
      expect[j] = static_cast<std::uint8_t>(items[i][j] * 2 + 5);
    }
    EXPECT_EQ(r.outputs[i], expect) << "item " << i;
  }
}

} // namespace
} // namespace pimdnn
