// Persistent DpuPool + barrier-phase tests: tasklet-order independence
// of the two-phase staged GEMM kernel, program-cache activation
// lifecycle, MRAM region disjointness across cached programs, resident
// weight tracking, warm-frame reuse through the pooled GEMM and the
// YoloRunner, rows-per-DPU network coverage, and activation-lifetime
// output retention.
#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sim_mode.hpp"
#include "nn/gemm.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "sim/dpu.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using runtime::DpuPool;
using runtime::DpuSet;
using runtime::OptLevel;
using runtime::XferDir;
using sim::MemKind;
using sim::TaskletCtx;
using yolo::GemmVariant;

// ---- barrier phases --------------------------------------------------------

// Mirrors the kernel's WRAM metadata block (dpu_gemm.cpp).
struct GemmMeta {
  std::uint64_t n, k;
  std::int64_t alpha;
  std::uint64_t variant, rows;
};

TEST(GemmBarrier, WramTiledIndependentOfTaskletOrder) {
  // The WramTiled kernel stages A rows from tasklet 0 in phase 0 and
  // computes in phase 1. Interp runs each phase highest tasklet first and
  // fast runs tasklet 0 first; both orders must produce the reference
  // result and identical stats.
  const int m = 2, n = 300, k = 16;
  Rng rng(606);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  std::vector<std::int16_t> expect(static_cast<std::size_t>(m) * n);
  nn::gemm_q16_reference(m, n, k, 2, a, b, expect);

  const auto prog = yolo::make_gemm_program(n, k, GemmVariant::WramTiled, m);
  EXPECT_EQ(prog.phases, 2u);
  EXPECT_EQ(yolo::make_gemm_program(n, k, GemmVariant::MramResident, m).phases,
            1u);

  const GemmMeta meta{static_cast<std::uint64_t>(n),
                      static_cast<std::uint64_t>(k), 2,
                      static_cast<std::uint64_t>(GemmVariant::WramTiled),
                      static_cast<std::uint64_t>(m)};
  const MemSize c_stride = align_up(static_cast<MemSize>(n) * 2, kXferAlign);
  const auto run = [&](SimMode mode) {
    sim::Dpu d;
    d.load(prog);
    d.host_write("meta", 0, &meta, sizeof(meta));
    // k = 16 -> the 32-byte row stride has no padding; rows are contiguous.
    d.host_write("a_rows", 0, a.data(), a.size() * 2);
    d.host_write("b_mat", 0, b.data(), b.size() * 2);
    const sim::DpuRunStats st = d.launch(8, OptLevel::O3, mode);
    std::vector<std::int16_t> c(static_cast<std::size_t>(m) * n);
    for (int r = 0; r < m; ++r) {
      d.host_read("c_rows", static_cast<MemSize>(r) * c_stride,
                  c.data() + static_cast<std::size_t>(r) * n,
                  static_cast<MemSize>(n) * 2);
    }
    EXPECT_EQ(c, expect) << sim_mode_name(mode);
    return st;
  };

  const sim::DpuRunStats interp = run(SimMode::Interp);
  const sim::DpuRunStats fast = run(SimMode::Fast);
  EXPECT_EQ(interp.cycles, fast.cycles);
  EXPECT_EQ(interp.total_slots, fast.total_slots);
  EXPECT_EQ(interp.total_dma_cycles, fast.total_dma_cycles);
  EXPECT_EQ(interp.total_dma_bytes, fast.total_dma_bytes);
  ASSERT_EQ(interp.tasklets.size(), fast.tasklets.size());
  for (std::size_t t = 0; t < interp.tasklets.size(); ++t) {
    const sim::TaskletStats& i = interp.tasklets[t];
    const sim::TaskletStats& f = fast.tasklets[t];
    EXPECT_EQ(i.slots, f.slots) << "tasklet " << t;
    EXPECT_EQ(i.dma_cycles, f.dma_cycles) << "tasklet " << t;
    EXPECT_EQ(i.dma_transfers, f.dma_transfers) << "tasklet " << t;
    EXPECT_EQ(i.dma_bytes, f.dma_bytes) << "tasklet " << t;
  }
  for (std::size_t s = 0;
       s < static_cast<std::size_t>(sim::Subroutine::kCount); ++s) {
    const auto sub = static_cast<sim::Subroutine>(s);
    EXPECT_EQ(interp.profile.occurrences(sub), fast.profile.occurrences(sub))
        << sim::subroutine_name(sub);
  }
  // Interp interprets; fast takes the GEMM's twin.
  EXPECT_FALSE(interp.fast_path);
  EXPECT_TRUE(fast.fast_path);
}

TEST(GemmBarrier, LoadRejectsZeroPhases) {
  sim::DpuProgram p;
  p.name = "no-phases";
  p.symbols = {{"w", MemKind::Wram, 8}};
  p.entry = [](TaskletCtx& ctx) { ctx.charge_alu(1); };
  p.phases = 0;
  sim::Dpu d;
  EXPECT_THROW(d.load(p), UsageError);
}

// ---- DpuPool ---------------------------------------------------------------

sim::DpuProgram tiny_program(const std::string& name,
                             const std::string& mram_symbol,
                             MemSize mram_bytes = 64) {
  sim::DpuProgram p;
  p.name = name;
  p.symbols = {{mram_symbol, MemKind::Mram, mram_bytes},
               {"w", MemKind::Wram, 8}};
  p.entry = [](TaskletCtx& ctx) { ctx.charge_alu(1); };
  return p;
}

TEST(Pool, ActivationLifecycle) {
  DpuPool pool;
  const auto build_a = [] { return tiny_program("a", "data_a"); };
  const auto build_b = [] { return tiny_program("b", "data_b"); };

  EXPECT_EQ(pool.activate("a", 2, build_a), DpuPool::Activation::Fresh);
  EXPECT_EQ(pool.activate("a", 2, build_a), DpuPool::Activation::Active);
  EXPECT_EQ(pool.activate("b", 2, build_b), DpuPool::Activation::Fresh);
  EXPECT_EQ(pool.activate("a", 2, build_a), DpuPool::Activation::Switched);
  EXPECT_EQ(pool.cached_programs(), 2u);
  EXPECT_EQ(pool.resets(), 0u);

  const auto h = pool.host_stats();
  EXPECT_EQ(h.program_loads, 3u);      // fresh a, fresh b, switch back to a
  EXPECT_EQ(h.cached_activations, 2u); // one Active + one Switched
}

TEST(Pool, MramRegionsDisjointAcrossCachedPrograms) {
  DpuPool pool;
  pool.activate("a", 1, [] { return tiny_program("a", "data_a"); });
  std::vector<std::uint8_t> pattern(64);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  pool.set().copy_to("data_a", 0, pattern.data(), pattern.size(), 1);

  // Activating and writing a second cached program must not touch the
  // first program's region.
  pool.activate("b", 1, [] { return tiny_program("b", "data_b"); });
  std::vector<std::uint8_t> junk(64, 0xEE);
  pool.set().copy_to("data_b", 0, junk.data(), junk.size(), 1);
  // The bump allocator placed b's region past a's.
  EXPECT_GE(pool.set().dpu(0).symbol("data_b").offset, 64u);

  ASSERT_EQ(pool.activate("a", 1, [] { return tiny_program("a", "data_a"); }),
            DpuPool::Activation::Switched);
  std::vector<std::uint8_t> back(64);
  pool.set().copy_from(0, "data_a", 0, back.data(), back.size());
  EXPECT_EQ(back, pattern);
}

/// The old one-shot ensure_resident, rebuilt from the two-phase API:
/// returns true on a hit, otherwise begins+commits the record (as a
/// successful upload would) and returns false.
bool touch_resident(DpuPool& pool, const std::string& tag,
                    std::uint64_t version) {
  if (pool.resident_matches(tag, version)) {
    return true;
  }
  pool.begin_resident(tag, version);
  pool.commit_resident(tag, version);
  return false;
}

TEST(Pool, ResidentRecordTracksOneDatumPerProgram) {
  DpuPool pool;
  pool.activate("a", 1, [] { return tiny_program("a", "data_a"); });
  EXPECT_FALSE(touch_resident(pool, "w", 1)); // first upload
  EXPECT_TRUE(touch_resident(pool, "w", 1));  // still resident
  EXPECT_FALSE(touch_resident(pool, "w", 2)); // version bump re-uploads
  EXPECT_FALSE(touch_resident(pool, "x", 2)); // different datum aliases
  EXPECT_FALSE(touch_resident(pool, "w", 2)); // ...and evicted the old one
  EXPECT_TRUE(touch_resident(pool, "w", 2));

  // Each cached program tracks its own resident datum.
  pool.activate("b", 1, [] { return tiny_program("b", "data_b"); });
  EXPECT_FALSE(touch_resident(pool, "w", 2));
  pool.activate("a", 1, [] { return tiny_program("a", "data_a"); });
  EXPECT_TRUE(touch_resident(pool, "w", 2));
}

TEST(Pool, BegunButUncommittedResidentIsNotAHit) {
  DpuPool pool;
  pool.activate("a", 1, [] { return tiny_program("a", "data_a"); });
  // A begun upload that never commits (e.g. the transfer threw) must leave
  // "nothing resident", not a poisoned claim.
  pool.begin_resident("w", 1);
  EXPECT_FALSE(pool.resident_matches("w", 1));
  // Committing a different (tag, version) than was begun is a usage error.
  EXPECT_THROW(pool.commit_resident("w", 2), UsageError);
  EXPECT_THROW(pool.commit_resident("x", 1), UsageError);
  pool.commit_resident("w", 1);
  EXPECT_TRUE(pool.resident_matches("w", 1));
}

TEST(Pool, GrowingResetsCacheAndResidents) {
  DpuPool pool;
  pool.activate("a", 2, [] { return tiny_program("a", "data_a"); });
  EXPECT_FALSE(touch_resident(pool, "w", 0));
  EXPECT_TRUE(touch_resident(pool, "w", 0));

  // A wider activation re-allocates the set: everything must re-upload.
  EXPECT_EQ(pool.activate("a", 4, [] { return tiny_program("a", "data_a"); }),
            DpuPool::Activation::Fresh);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.resets(), 1u);
  EXPECT_FALSE(touch_resident(pool, "w", 0));
}

TEST(Pool, MramBudgetOverflowResetsBumpAllocator) {
  sim::UpmemConfig cfg = sim::default_config();
  cfg.mram_bytes = 64 * 1024;
  DpuPool pool(cfg);
  pool.activate("a", 1, [] { return tiny_program("a", "da", 40 * 1024); });
  // 40 KB + 40 KB exceeds the 64 KB budget: the cache resets and the new
  // program starts over at base 0.
  pool.activate("b", 1, [] { return tiny_program("b", "db", 40 * 1024); });
  EXPECT_EQ(pool.resets(), 1u);
  EXPECT_EQ(pool.cached_programs(), 1u);
  EXPECT_EQ(pool.set().dpu(0).symbol("db").offset, 0u);
}

// ---- pooled GEMM -----------------------------------------------------------

TEST(PooledGemm, WarmCallSkipsWeightScatterBitExactly) {
  const int m = 6, n = 130, k = 9, rows = 2;
  Rng rng(707);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));

  DpuPool pool;
  sim::HostXferStats first_host;
  for (int frame = 0; frame < 3; ++frame) {
    std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
    for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-40, 40));
    std::vector<std::int16_t> expect(static_cast<std::size_t>(m) * n);
    nn::gemm_q16_reference(m, n, k, 1, a, b, expect);

    const auto r = yolo::dpu_gemm_pooled(pool, m, n, k, 1, a, b,
                                         GemmVariant::WramTiled, 4,
                                         OptLevel::O3, rows, "weights", 0);
    EXPECT_EQ(r.c, expect) << "frame " << frame;
    EXPECT_EQ(r.dpus_used, 3u);

    if (frame == 0) {
      first_host = r.stats.host;
      EXPECT_EQ(first_host.program_loads, 1u);
      EXPECT_EQ(first_host.cached_activations, 0u);
    } else {
      // Warm: no load (the program is still active) and exactly the A
      // scatter missing from the upload bytes.
      EXPECT_EQ(r.stats.host.program_loads, 0u);
      EXPECT_EQ(r.stats.host.cached_activations, 1u);
      const std::uint64_t a_bytes =
          3ull * rows * align_up(static_cast<MemSize>(k) * 2, kXferAlign);
      EXPECT_EQ(r.stats.host.bytes_to_dpu,
                first_host.bytes_to_dpu - a_bytes);
      EXPECT_EQ(r.stats.host.bytes_from_dpu, first_host.bytes_from_dpu);
    }
  }
}

TEST(PooledGemm, VersionBumpRescattersWeights) {
  const int m = 3, n = 40, k = 5;
  Rng rng(808);
  std::vector<std::int16_t> a1(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> a2(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a1) v = static_cast<std::int16_t>(rng.uniform_int(-20, 20));
  for (auto& v : a2) v = static_cast<std::int16_t>(rng.uniform_int(-20, 20));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-20, 20));

  DpuPool pool;
  const auto r1 = yolo::dpu_gemm_pooled(pool, m, n, k, 1, a1, b,
                                        GemmVariant::WramTiled, 4,
                                        OptLevel::O3, 1, "w", 1);
  const auto r2 = yolo::dpu_gemm_pooled(pool, m, n, k, 1, a2, b,
                                        GemmVariant::WramTiled, 4,
                                        OptLevel::O3, 1, "w", 2);
  std::vector<std::int16_t> e1(static_cast<std::size_t>(m) * n);
  std::vector<std::int16_t> e2(static_cast<std::size_t>(m) * n);
  nn::gemm_q16_reference(m, n, k, 1, a1, b, e1);
  nn::gemm_q16_reference(m, n, k, 1, a2, b, e2);
  EXPECT_EQ(r1.c, e1);
  EXPECT_EQ(r2.c, e2);
}

class PooledGemmPaddedTail : public ::testing::TestWithParam<GemmVariant> {};

TEST_P(PooledGemmPaddedTail, TailRowsDiscardedOnGather) {
  // m % rows_per_dpu != 0: the last DPU computes padded zero rows that the
  // batched gather must drop (the historical per-row gather truncated a
  // stride-sized read into a reused buffer instead).
  const GemmVariant variant = GetParam();
  const int m = 7, n = 257, k = 11, rows = 3; // 3 DPUs, 2 padded tail rows
  Rng rng(909);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-60, 60));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-60, 60));
  std::vector<std::int16_t> expect(static_cast<std::size_t>(m) * n);
  nn::gemm_q16_reference(m, n, k, 3, a, b, expect);

  DpuPool pool;
  const auto r = yolo::dpu_gemm_pooled(pool, m, n, k, 3, a, b, variant, 4,
                                       OptLevel::O3, rows, "w", 0);
  EXPECT_EQ(r.dpus_used, 3u);
  ASSERT_EQ(r.c.size(), expect.size());
  EXPECT_EQ(r.c, expect);
  // Warm repeat (A resident) must agree bit-for-bit.
  const auto r2 = yolo::dpu_gemm_pooled(pool, m, n, k, 3, a, b, variant, 4,
                                        OptLevel::O3, rows, "w", 0);
  EXPECT_EQ(r2.c, expect);
}

INSTANTIATE_TEST_SUITE_P(Variants, PooledGemmPaddedTail,
                         ::testing::Values(GemmVariant::WramTiled,
                                           GemmVariant::MramResident));

TEST(PooledGemm, PrefixOfLargerPoolMatchesExactSizeRun) {
  // A pool sized for a big layer runs a small layer on a prefix; the
  // result and the wall cycles must match a dedicated exact-size set.
  const int m = 4, n = 90, k = 7;
  Rng rng(111);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-30, 30));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-30, 30));

  DpuPool pool;
  pool.reserve(16);
  const auto pooled = yolo::dpu_gemm_pooled(pool, m, n, k, 1, a, b,
                                            GemmVariant::WramTiled, 4);
  const auto exact = yolo::dpu_gemm(m, n, k, 1, a, b,
                                    GemmVariant::WramTiled, 4);
  EXPECT_EQ(pool.size(), 16u);
  EXPECT_EQ(pooled.c, exact.c);
  EXPECT_EQ(pooled.stats.wall_cycles, exact.stats.wall_cycles);
  EXPECT_EQ(pooled.stats.per_dpu.size(), 4u); // only the active prefix ran
}

// ---- YoloRunner on the pool ------------------------------------------------

TEST(YoloPool, WarmFrameBitExactWithCheaperHostPath) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 515);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 6);

  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;
  const auto cold = runner.run(img, opts);
  const auto warm = runner.run(img, opts);

  ASSERT_EQ(cold.outputs.size(), warm.outputs.size());
  for (std::size_t i = 0; i < cold.outputs.size(); ++i) {
    EXPECT_EQ(cold.outputs[i], warm.outputs[i]) << "layer " << i;
  }
  EXPECT_EQ(cold.total_cycles, warm.total_cycles);

  const auto n_convs = static_cast<std::uint64_t>(
      summarize(defs, 3, 32, 32).conv_layers);
  EXPECT_EQ(cold.host.cached_activations, 0u);
  EXPECT_EQ(cold.host.program_loads, n_convs);
  // Warm frames rebuild nothing and skip every weight scatter.
  EXPECT_EQ(warm.host.cached_activations, n_convs);
  EXPECT_LT(warm.host.bytes_to_dpu, cold.host.bytes_to_dpu);
  EXPECT_EQ(warm.host.bytes_from_dpu, cold.host.bytes_from_dpu);

  // The runner's cumulative pool accounting covers both frames.
  const auto total = runner.pool_host_stats();
  EXPECT_EQ(total.bytes_to_dpu,
            cold.host.bytes_to_dpu + warm.host.bytes_to_dpu);
}

class YoloRowsPerDpu : public ::testing::TestWithParam<int> {};

TEST_P(YoloRowsPerDpu, NetworkBitExactAndDpuCountsMatch) {
  const int rows = GetParam();
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 616);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 7);

  const auto cpu = runner.run(img, yolo::ExecMode::Cpu);
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;
  opts.rows_per_dpu = rows;
  const auto dpu = runner.run(img, opts);

  ASSERT_EQ(cpu.outputs.size(), dpu.outputs.size());
  for (std::size_t i = 0; i < cpu.outputs.size(); ++i) {
    EXPECT_EQ(cpu.outputs[i], dpu.outputs[i]) << "layer " << i;
  }
  for (std::size_t i = 0; i < dpu.layers.size(); ++i) {
    if (defs[i].type != yolo::LayerType::Convolutional) continue;
    const auto expect_dpus = static_cast<std::uint32_t>(
        (defs[i].filters + rows - 1) / rows);
    EXPECT_EQ(dpu.layers[i].dpus, expect_dpus) << "layer " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, YoloRowsPerDpu, ::testing::Values(2, 3));

TEST(YoloPool, EstimateMatchesRunWithRowsPerDpu) {
  // The estimator historically ignored rows_per_dpu (reported gemm_m()
  // DPUs and per-row cycles); it must now agree with the measured run for
  // packed mappings too.
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 717);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 8);

  for (int rows : {1, 2, 3}) {
    yolo::RunOptions opts;
    opts.mode = yolo::ExecMode::DpuWram;
    opts.n_tasklets = 8;
    opts.rows_per_dpu = rows;
    const auto run = runner.run(img, opts);
    const auto est = yolo::YoloRunner::estimate(defs, 3, 32, 32,
                                                GemmVariant::WramTiled, 8,
                                                OptLevel::O3, rows);
    ASSERT_EQ(run.layers.size(), est.size());
    for (std::size_t i = 0; i < est.size(); ++i) {
      EXPECT_EQ(run.layers[i].cycles, est[i].cycles)
          << "rows " << rows << " layer " << i;
      EXPECT_EQ(run.layers[i].dpus, est[i].dpus)
          << "rows " << rows << " layer " << i;
    }
  }
}

TEST(YoloPool, ActivationLifetimeRetainsOnlyNeededOutputs) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 818);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 13);

  const auto full = runner.run(img, yolo::ExecMode::Cpu);
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::Cpu;
  opts.retain_all_outputs = false;
  const auto slim = runner.run(img, opts);

  ASSERT_EQ(full.outputs.size(), slim.outputs.size());
  std::size_t freed = 0;
  for (std::size_t i = 0; i < slim.outputs.size(); ++i) {
    if (slim.outputs[i].empty()) {
      ++freed;
      continue;
    }
    EXPECT_EQ(slim.outputs[i], full.outputs[i]) << "layer " << i;
  }
  EXPECT_GT(freed, 0u); // intermediates were actually released
  // Yolo heads and the final layer always survive.
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].type == yolo::LayerType::Yolo) {
      EXPECT_FALSE(slim.outputs[i].empty()) << "yolo layer " << i;
    }
  }
  EXPECT_FALSE(slim.outputs.back().empty());
}

} // namespace
} // namespace pimdnn
