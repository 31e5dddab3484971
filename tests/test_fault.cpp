// Fault-injection substrate + self-healing runtime tests: PIMDNN_FAULTS
// grammar parsing, deterministic draws, typed DpuFault launch errors, pool
// strike/quarantine/remap policy, session retry + upload replay after a
// quarantine, WRAM constants that follow remaps, degradation to the
// bit-identical CPU path, hang-deadline cycle accounting, finish() misuse,
// and allocation-fault exception safety of DpuPool::reserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/sim_mode.hpp"
#include "core/offloader.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/fault.hpp"
#include "yolo/dpu_gemm.hpp"

namespace pimdnn {
namespace {

using runtime::DpuPool;
using runtime::DpuSet;
using runtime::KernelSession;
using runtime::LaunchStats;
using sim::DpuFault;
using sim::FaultConfig;
using sim::FaultKind;
using sim::MemKind;
using sim::TaskletCtx;
using yolo::GemmVariant;

/// Every test starts and ends with injection disabled and metrics clean —
/// the fault plan and the default executor are process-global state. The
/// whole suite runs twice, once per executor: fault draws, quarantine and
/// reintegration decisions and every output must be identical under
/// SimMode::Interp and SimMode::Fast.
class FaultTest : public ::testing::TestWithParam<SimMode> {
protected:
  void SetUp() override {
    sim::set_fault_config(FaultConfig{});
    set_default_sim_mode(GetParam());
    obs::Metrics::instance().reset();
  }
  void TearDown() override {
    sim::set_fault_config(FaultConfig{});
    set_default_sim_mode(SimMode::Interp);
    obs::Metrics::instance().reset();
  }
};

sim::DpuProgram tiny_program(const std::string& name = "tiny") {
  sim::DpuProgram p;
  p.name = name;
  p.symbols = {{"data", MemKind::Mram, 64}, {"w", MemKind::Wram, 8}};
  p.entry = [](TaskletCtx& ctx) { ctx.charge_alu(1); };
  return p;
}

/// One pooled GEMM next to its bit-exact reference.
struct GemmCase {
  int m = 8, n = 24, k = 6, rows = 2;
  std::vector<std::int16_t> a, b, expect;

  GemmCase() {
    Rng rng(1234);
    a.resize(static_cast<std::size_t>(m) * k);
    b.resize(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
    for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
    expect.resize(static_cast<std::size_t>(m) * n);
    nn::gemm_q16_reference(m, n, k, 2, a, b, expect);
  }

  yolo::GemmResult run(DpuPool& pool) const {
    return yolo::dpu_gemm_pooled(pool, m, n, k, 2, a, b,
                                 GemmVariant::WramTiled, 4,
                                 runtime::OptLevel::O3, rows);
  }
};

// ---- config grammar --------------------------------------------------------

TEST_P(FaultTest, ParseGrammarRoundTrips) {
  const auto cfg = sim::parse_fault_config(
      "seed=42,bad=0.25,bad_mask=0x6,alloc=0.1,launch=0.2,hang=0.3,"
      "hang_cycles=5000,xfer=0.01,mram=0.02");
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.bad_dpu_rate, 0.25);
  EXPECT_EQ(cfg.bad_dpu_mask, 0x6u);
  EXPECT_DOUBLE_EQ(cfg.alloc_fail_rate, 0.1);
  EXPECT_DOUBLE_EQ(cfg.launch_fail_rate, 0.2);
  EXPECT_DOUBLE_EQ(cfg.launch_hang_rate, 0.3);
  EXPECT_EQ(cfg.hang_deadline_cycles, 5000u);
  EXPECT_DOUBLE_EQ(cfg.transfer_corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.mram_corrupt_rate, 0.02);
  EXPECT_TRUE(cfg.any());

  // describe() renders the same grammar: parsing it back is lossless.
  const auto again = sim::parse_fault_config(cfg.describe());
  EXPECT_EQ(again.seed, cfg.seed);
  EXPECT_EQ(again.bad_dpu_mask, cfg.bad_dpu_mask);
  EXPECT_DOUBLE_EQ(again.launch_fail_rate, cfg.launch_fail_rate);
  EXPECT_EQ(again.hang_deadline_cycles, cfg.hang_deadline_cycles);

  EXPECT_FALSE(FaultConfig{}.any());
  EXPECT_FALSE(sim::parse_fault_config("seed=7").any());
}

TEST_P(FaultTest, ParseRejectsBadSpecs) {
  EXPECT_THROW(sim::parse_fault_config("bogus=1"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("launch=1.5"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("launch=-0.1"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("launch=abc"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("launch"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("seed="), ConfigError);
  // Numbers are decimal or 0x hex digits only: no sign, no whitespace, no
  // overflow (strtoull would read these as huge or clamped values).
  EXPECT_THROW(sim::parse_fault_config("hang_cycles=-5"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("bad_mask=-1"), ConfigError);
  EXPECT_THROW(sim::parse_fault_config("seed=99999999999999999999999"),
               ConfigError);
  EXPECT_THROW(sim::parse_fault_config("hang_cycles= 7"), ConfigError);
}

TEST_P(FaultTest, StrictNumbersForFaultsAndDeadline) {
  // KernelSession::default_deadline_cycles caches PIMDNN_DEADLINE in a
  // static, so its parser is exercised directly with deadline strings.
  const auto deadline = [](const std::string& text) {
    return parse_u64(text, "PIMDNN_DEADLINE", "the cycle count");
  };
  EXPECT_EQ(deadline("250000"), 250000u);
  EXPECT_EQ(deadline("0x3d090"), 250000u);
  EXPECT_EQ(deadline("0XFF"), 255u);
  EXPECT_EQ(deadline("18446744073709551615"), ~std::uint64_t{0});
  EXPECT_EQ(deadline("0xffffffffffffffff"), ~std::uint64_t{0});
  for (const char* bad :
       {"", "-5", "+5", " 7", "7 ", "0x", "0x-1", "1e6", "12abc", "0x1g",
        "18446744073709551616", "0x10000000000000000"}) {
    EXPECT_THROW(deadline(bad), ConfigError) << "'" << bad << "'";
  }
  try {
    deadline("-5");
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("PIMDNN_DEADLINE: bad number '-5'"),
              std::string::npos)
        << e.what();
  }
}

// ---- deterministic draws ---------------------------------------------------

TEST_P(FaultTest, DrawsAreDeterministicPerSeed) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.launch_fail_rate = 0.5;

  // Bank-0 draws on DPU 3, optionally interleaved with bank-1 draws on
  // the same DPU (the second bank of a pipeline numbers its DPUs from 0).
  const auto sample = [&](bool interleave_bank1 = false) {
    sim::set_fault_config(cfg);
    std::vector<bool> hits;
    for (int i = 0; i < 64; ++i) {
      std::uint64_t salt = 0;
      hits.push_back(
          sim::fault_plan().draw(FaultKind::LaunchFail, 0, 3, salt));
      if (interleave_bank1) {
        sim::fault_plan().draw(FaultKind::LaunchFail, 1, 3, salt);
      }
    }
    return hits;
  };
  const auto first = sample();
  const auto second = sample(); // configure() reset the ordinals
  EXPECT_EQ(first, second);
  // A 0.5 rate over 64 draws hits at least once and misses at least once.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  // Each bank keeps its own ordinals: bank 1's draws do not shift bank 0's.
  EXPECT_EQ(sample(true), first);

  cfg.seed = 100;
  const auto other_seed = sample();
  EXPECT_NE(first, other_seed);
}

TEST_P(FaultTest, BadDpuMaskMarksAllocatedDpus) {
  FaultConfig cfg;
  cfg.bad_dpu_mask = 0x5; // DPUs 0 and 2
  sim::set_fault_config(cfg);
  EXPECT_TRUE(sim::fault_plan().bad_dpu(0));
  EXPECT_FALSE(sim::fault_plan().bad_dpu(1));
  EXPECT_TRUE(sim::fault_plan().bad_dpu(2));
  EXPECT_FALSE(sim::fault_plan().bad_dpu(64)); // past the mask, rate 0

  DpuSet set = DpuSet::allocate(4);
  EXPECT_TRUE(set.allocated_bad(0));
  EXPECT_FALSE(set.allocated_bad(1));
  EXPECT_TRUE(set.allocated_bad(2));
  EXPECT_FALSE(set.allocated_bad(3));
  EXPECT_GE(obs::Metrics::instance().counter("faults.injected"), 2u);
}

// ---- typed launch faults ---------------------------------------------------

TEST_P(FaultTest, LaunchReportsLowestFaultyDpu) {
  FaultConfig cfg;
  cfg.bad_dpu_mask = 0xC; // DPUs 2 and 3
  sim::set_fault_config(cfg);
  DpuSet set = DpuSet::allocate(4);
  set.load(tiny_program());
  try {
    set.launch(1);
    FAIL() << "launch on a bad DPU must throw";
  } catch (const DpuFault& f) {
    EXPECT_EQ(f.dpu_index(), 2u);
    EXPECT_EQ(f.kind(), FaultKind::BadDpu);
  }
}

// ---- pool health policy ----------------------------------------------------

TEST_P(FaultTest, QuarantineAfterStrikesRemapsAndDropsResidents) {
  DpuPool pool;
  pool.activate("a", 4, [] { return tiny_program("a"); });
  pool.begin_resident("w", 1);
  pool.commit_resident("w", 1);
  ASSERT_TRUE(pool.resident_matches("w", 1));

  // Two strikes keep the DPU in service; the third quarantines it.
  EXPECT_FALSE(pool.note_fault(1, FaultKind::LaunchFail));
  EXPECT_FALSE(pool.note_fault(1, FaultKind::LaunchHang));
  EXPECT_TRUE(pool.note_fault(1, FaultKind::LaunchFail));
  EXPECT_EQ(pool.quarantined(), 1u);
  EXPECT_EQ(pool.healthy_capacity(), 3u);
  // The logical prefix slid off physical DPU 1...
  EXPECT_EQ(pool.set().physical(0), 0u);
  EXPECT_EQ(pool.set().physical(1), 2u);
  EXPECT_EQ(pool.set().physical(2), 3u);
  EXPECT_EQ(pool.set().logical_size(), 3u);
  // ...and the resident record died with the remap.
  EXPECT_FALSE(pool.resident_matches("w", 1));
  // Further strikes on a quarantined DPU are no-ops.
  EXPECT_FALSE(pool.note_fault(1, FaultKind::BadDpu));
  EXPECT_EQ(pool.quarantined(), 1u);

  // A permanently-bad DPU quarantines on the first strike.
  EXPECT_TRUE(pool.note_fault(3, FaultKind::BadDpu));
  EXPECT_EQ(pool.healthy_capacity(), 2u);
}

// ---- self-healing offloads -------------------------------------------------

TEST_P(FaultTest, GemmSelfHealsAroundBadDpuBitExactly) {
  FaultConfig cfg;
  cfg.bad_dpu_mask = 0x1; // physical DPU 0 permanently faulty
  sim::set_fault_config(cfg);

  const GemmCase gemm;
  DpuPool pool;

  // First offload discovers the bad DPU at launch; with no spare capacity
  // yet it degrades to the CPU path — still bit-exact.
  const auto first = gemm.run(pool);
  EXPECT_EQ(first.c, gemm.expect);
  EXPECT_TRUE(first.stats.cpu_fallback);
  EXPECT_EQ(first.stats.quarantined, 1u);
  EXPECT_GE(first.stats.faults_absorbed, 1u);

  // The next reserve over-allocates past the quarantined DPU, so the second
  // offload quarantines it again, replays its uploads onto the healthy
  // remap and retries to a real DPU result.
  const auto second = gemm.run(pool);
  EXPECT_EQ(second.c, gemm.expect);
  EXPECT_FALSE(second.stats.cpu_fallback);
  EXPECT_EQ(second.stats.retries, 1u);
  EXPECT_EQ(second.stats.quarantined, 1u);
  EXPECT_GE(second.stats.faults_absorbed, 1u);
  EXPECT_GT(obs::Metrics::instance().counter("offload.retry"), 0u);
  EXPECT_GT(obs::Metrics::instance().counter("pool.quarantined"), 0u);
}

TEST_P(FaultTest, UnrepairableCorruptionDegradesToCpuBitExactly) {
  FaultConfig cfg;
  cfg.transfer_corrupt_rate = 1.0; // every write (and every repair) flips
  sim::set_fault_config(cfg);

  const GemmCase gemm;
  DpuPool pool;
  const auto r = gemm.run(pool);
  EXPECT_EQ(r.c, gemm.expect);
  EXPECT_TRUE(r.stats.cpu_fallback);
  EXPECT_GE(r.stats.faults_absorbed, 1u);
  EXPECT_GT(obs::Metrics::instance().counter("offload.fallback"), 0u);
  EXPECT_GT(obs::Metrics::instance().counter("offload.xfer.repair"), 0u);
}

TEST_P(FaultTest, HangDeadlineChargesRetryCycles) {
  FaultConfig cfg;
  cfg.launch_hang_rate = 1.0;
  cfg.hang_deadline_cycles = 12345;
  sim::set_fault_config(cfg);

  const GemmCase gemm;
  DpuPool pool;
  const auto r = gemm.run(pool);
  EXPECT_EQ(r.c, gemm.expect); // every attempt hangs -> CPU path
  EXPECT_TRUE(r.stats.cpu_fallback);
  // Each failed attempt burned the watchdog deadline; the lost time lands
  // in retry_cycles, never in wall_cycles.
  EXPECT_GE(r.stats.retry_cycles, cfg.hang_deadline_cycles);
  EXPECT_EQ(r.stats.wall_cycles, 0u);
}

TEST_P(FaultTest, ModerateLaunchFaultsAreAbsorbedBitExactly) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.launch_fail_rate = 0.1;
  sim::set_fault_config(cfg);

  const GemmCase gemm;
  DpuPool pool;
  std::uint32_t retries = 0;
  for (int frame = 0; frame < 8; ++frame) {
    const auto r = gemm.run(pool);
    EXPECT_EQ(r.c, gemm.expect) << "frame " << frame;
    retries += r.stats.retries;
  }
  // A 10% per-DPU rate over 8 frames x 4 DPUs must have tripped retries.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(obs::Metrics::instance().counter("faults.injected"), 0u);
}

TEST_P(FaultTest, EbnnPipelinesSurviveFaultsBitExactly) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto images =
      ebnn::images_only(ebnn::make_synthetic_mnist(32, 11));

  ebnn::DeepEbnnConfig dcfg;
  const auto dweights = ebnn::DeepEbnnWeights::random(dcfg, 42);

  const auto run_ebnn = [&] {
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    return host.run(images, 16);
  };
  const auto run_deep = [&] {
    ebnn::DeepEbnnHost host(dcfg, dweights);
    return host.run(images);
  };

  const auto clean = run_ebnn();
  const auto deep_clean = run_deep();

  FaultConfig fcfg;
  fcfg.seed = 42;
  fcfg.bad_dpu_mask = 0x4;
  fcfg.launch_fail_rate = 0.05;
  fcfg.transfer_corrupt_rate = 0.01;
  sim::set_fault_config(fcfg);

  const auto faulty = run_ebnn();
  EXPECT_EQ(faulty.predicted, clean.predicted);
  EXPECT_EQ(faulty.features, clean.features);

  const auto deep_faulty = run_deep();
  EXPECT_EQ(deep_faulty.predicted, deep_clean.predicted);
  EXPECT_EQ(deep_faulty.features, deep_clean.features);

  EXPECT_GT(obs::Metrics::instance().counter("faults.injected"), 0u);
}

TEST_P(FaultTest, WarmConstantsFollowQuarantineRemaps) {
  // 12 batches alternating 4 and 2 DPUs wide under a 30% per-DPU launch
  // fault rate, one host per seed and client. Quarantines remap the
  // logical prefix onto DPUs that never received the WRAM constants, and
  // a narrow batch that re-sends them is followed by a wide warm one;
  // every batch must still match the clean run. Seeds 5 and 9 each lead
  // all three batch clients through such a batch.
  ebnn::EbnnConfig cfg;
  cfg.filters = 8;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  ebnn::DeepEbnnConfig dcfg;
  dcfg.blocks = {{4}};
  const auto dweights = ebnn::DeepEbnnWeights::random(dcfg, 42);
  const auto images = ebnn::images_only(ebnn::make_synthetic_mnist(64, 11));
  core::WorkloadSpec spec;
  spec.name = "addc";
  spec.item_in_bytes = 8;
  spec.item_out_bytes = 8;
  spec.items_per_dpu = 4;
  spec.consts = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto kernel = [](core::ItemCtx& ic) {
    for (int i = 0; i < 8; ++i) {
      ic.output[i] = static_cast<std::uint8_t>(ic.input[i] + ic.consts[i]);
    }
    ic.ctx.charge_alu(8);
  };
  std::vector<std::vector<std::uint8_t>> items(16);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].assign(8, static_cast<std::uint8_t>(i * 7));
  }
  const auto first = [](const auto& v, std::size_t n) {
    return std::decay_t<decltype(v)>(v.begin(), v.begin() + n);
  };
  const std::uint32_t deep_cap =
      ebnn::DeepEbnnHost(dcfg, dweights).images_per_dpu();

  // Each client runs `batch(width)` on its own host; `clean` is its result
  // for the 4- and 2-DPU batches without faults.
  const auto check = [&](const char* client, auto make_host, auto batch) {
    std::vector<decltype(batch(*make_host(), 4))> clean;
    {
      auto host = make_host();
      clean = {batch(*host, 4), batch(*host, 2)};
    }
    for (const std::uint64_t seed : {5u, 9u}) {
      FaultConfig fcfg;
      fcfg.seed = seed;
      fcfg.launch_fail_rate = 0.3;
      sim::set_fault_config(fcfg);
      auto host = make_host();
      for (int b = 0; b < 12; ++b) {
        EXPECT_EQ(batch(*host, b % 2 == 0 ? 4 : 2), clean[b % 2])
            << client << " seed " << seed << " batch " << b;
      }
      sim::set_fault_config(FaultConfig{});
    }
  };
  check(
      "ebnn",
      [&] {
        return std::make_unique<ebnn::EbnnHost>(cfg, weights,
                                                ebnn::BnMode::HostLut);
      },
      [&](ebnn::EbnnHost& h, std::size_t dpus) {
        return h.run(first(images, dpus * 16), 16).features;
      });
  check(
      "deep_ebnn",
      [&] { return std::make_unique<ebnn::DeepEbnnHost>(dcfg, dweights); },
      [&](ebnn::DeepEbnnHost& h, std::size_t dpus) {
        return h.run(first(images, dpus * deep_cap), deep_cap).features;
      });
  check(
      "offload",
      [&] { return std::make_unique<core::Offloader>(spec, kernel); },
      [&](core::Offloader& h, std::size_t dpus) {
        return h.run(first(items, dpus * 4), 4).outputs;
      });
  EXPECT_GT(obs::Metrics::instance().counter("pool.quarantined"), 0u);
}

// ---- finish() misuse -------------------------------------------------------

TEST_P(FaultTest, FinishTwiceThrowsWithoutDoubleRecording) {
  DpuPool pool;
  KernelSession s(pool, "tiny", 1, [] { return tiny_program(); });
  ASSERT_TRUE(s.launch(1));
  s.finish();
  const auto launches_after_first =
      obs::Metrics::instance().signatures().at("tiny").launches;
  EXPECT_THROW(s.finish(), UsageError);
  // The second call recorded nothing.
  EXPECT_EQ(obs::Metrics::instance().signatures().at("tiny").launches,
            launches_after_first);
}

TEST_P(FaultTest, FinishBeforeLaunchThrows) {
  DpuPool pool;
  KernelSession s(pool, "tiny", 1, [] { return tiny_program(); });
  EXPECT_THROW(s.finish(), UsageError);
}

TEST_P(FaultTest, FinishAfterDegradedLaunchSucceedsOnce) {
  FaultConfig cfg;
  cfg.launch_fail_rate = 1.0;
  sim::set_fault_config(cfg);
  DpuPool pool;
  KernelSession s(pool, "tiny", 1, [] { return tiny_program(); });
  EXPECT_FALSE(s.launch(1));
  EXPECT_TRUE(s.degraded());
  const LaunchStats st = s.finish();
  EXPECT_TRUE(st.cpu_fallback);
  EXPECT_THROW(s.finish(), UsageError);
}

// ---- allocation-fault exception safety -------------------------------------

TEST_P(FaultTest, ReserveAllocFaultLeavesPoolConsistent) {
  FaultConfig cfg;
  cfg.alloc_fail_rate = 1.0;
  sim::set_fault_config(cfg);

  DpuPool pool;
  EXPECT_THROW(pool.activate("a", 2, [] { return tiny_program("a"); }),
               DpuFault);
  // The failed allocation left no half-built state behind.
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.cached_programs(), 0u);
  EXPECT_EQ(pool.healthy_capacity(), 0u);

  // With injection off again the same pool builds cleanly from scratch.
  sim::set_fault_config(FaultConfig{});
  EXPECT_EQ(pool.activate("a", 2, [] { return tiny_program("a"); }),
            DpuPool::Activation::Fresh);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.cached_programs(), 1u);
  EXPECT_EQ(pool.healthy_capacity(), 2u);
}

TEST_P(FaultTest, GrowthAllocFaultKeepsOldSetUsable) {
  DpuPool pool;
  pool.activate("a", 2, [] { return tiny_program("a"); });
  pool.begin_resident("w", 1);
  pool.commit_resident("w", 1);

  FaultConfig cfg;
  cfg.alloc_fail_rate = 1.0;
  sim::set_fault_config(cfg);
  // Growing must allocate the wider set *before* dropping anything: the
  // injected failure leaves the original set, cache and resident intact.
  EXPECT_THROW(pool.reserve(4), DpuFault);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.cached_programs(), 1u);
  EXPECT_TRUE(pool.resident_matches("w", 1));
  EXPECT_EQ(pool.resets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Executors, FaultTest,
                         ::testing::Values(SimMode::Interp, SimMode::Fast),
                         [](const ::testing::TestParamInfo<SimMode>& info) {
                           return std::string(sim_mode_name(info.param));
                         });

} // namespace
} // namespace pimdnn
