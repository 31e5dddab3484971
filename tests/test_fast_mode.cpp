// Fast-path execution mode tests: SimMode parsing/plumbing, the dual-run
// fast/interp equivalence contract (bit-exact memory, cycle-exact stats,
// identical subroutine profiles) on the eBNN kernels and the YOLO GEMM,
// end-to-end parity through EbnnHost / DeepEbnnHost / YoloRunner including
// fixed-seed fault injection, split plans and the double-buffered
// pipeline, the barrier-phase rules (phased programs
// take their twin, tasklet order follows the mode, no launch creates a
// thread), plus regression tests for two interpreter fixes: integer-wrap
// bounds bypass in host_write/host_read, and non-atomic Dpu::load (a failed
// load must leave the prior program launchable).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sim_mode.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/dpu_kernel.hpp"
#include "ebnn/host.hpp"
#include "ebnn/lut.hpp"
#include "ebnn/mnist_synth.hpp"
#include "ebnn/model.hpp"
#include "map/constraints.hpp"
#include "map/plan.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/dpu.hpp"
#include "sim/fault.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using ebnn::BnMode;
using ebnn::ConvKernel;
using ebnn::EbnnConfig;
using ebnn::EbnnWeights;
using ebnn::Image;
using runtime::DpuPool;
using runtime::DpuSet;
using runtime::KernelSession;
using runtime::LaunchStats;
using runtime::OptLevel;
using sim::Dpu;
using sim::DpuRunStats;
using sim::FaultConfig;
using sim::MemKind;
using sim::Subroutine;
using sim::TaskletCtx;
using yolo::GemmVariant;

/// The default mode and the fault plan are process-global: pin both to a
/// known state around every test so order does not matter.
class FastModeTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_default_sim_mode(SimMode::Interp);
    sim::set_fault_config(FaultConfig{});
  }
  void TearDown() override {
    set_default_sim_mode(SimMode::Interp);
    sim::set_fault_config(FaultConfig{});
  }
};

/// Minimal non-barrier program used by the plumbing/regression tests:
/// every tasklet stamps a recognizable value into its MRAM slot. The fast
/// twin is intentionally identical so both executors agree.
sim::DpuProgram probe_program(const std::string& name = "probe") {
  sim::DpuProgram p;
  p.name = name;
  p.symbols = {{"out", MemKind::Mram, 256},
               {"buf", MemKind::Wram, 256},
               {"data", MemKind::Mram, 64}};
  const auto body = [](TaskletCtx& ctx) {
    auto buf = ctx.wram_span<std::uint64_t>("buf");
    buf[ctx.id()] = 100 + ctx.id();
    ctx.charge_alu(1);
    ctx.mram_write(ctx.mram_addr("out") + ctx.id() * 8, &buf[ctx.id()], 8);
  };
  p.entry = body;
  p.fast_entry = body;
  return p;
}

/// Two-phase program: in phase 0 each tasklet publishes id+1 into shared
/// WRAM; in phase 1 it writes its neighbour's value to MRAM — correct only
/// because every tasklet finishes phase 0 before any starts phase 1. The
/// fast twin is the same body.
sim::DpuProgram barrier_program() {
  sim::DpuProgram p;
  p.name = "barrier_probe";
  p.symbols = {{"out", MemKind::Mram, 256},
               {"slots", MemKind::Wram, 128},
               {"stage", MemKind::Wram, 256}};
  p.phases = 2;
  const auto body = [](TaskletCtx& ctx) {
    auto slots = ctx.wram_span<std::uint32_t>("slots");
    ctx.charge_alu(1);
    if (ctx.phase() == 0) {
      slots[ctx.id()] = ctx.id() + 1;
      return;
    }
    auto stage = ctx.wram_span<std::uint64_t>("stage");
    stage[ctx.id()] = slots[(ctx.id() + 1) % ctx.n_tasklets()];
    ctx.mram_write(ctx.mram_addr("out") + ctx.id() * 8, &stage[ctx.id()], 8);
  };
  p.entry = body;
  p.fast_entry = body;
  return p;
}

/// Expects every tasklet of barrier_program() to have stored its
/// neighbour's id+1.
void expect_barrier_result(const Dpu& dpu, std::uint32_t n_tasklets) {
  for (std::uint32_t t = 0; t < n_tasklets; ++t) {
    std::uint64_t v = 0;
    dpu.host_read("out", t * 8, &v, 8);
    EXPECT_EQ(v, (t + 1) % n_tasklets + 1) << "tasklet " << t;
  }
}

/// The dual-run contract: every modeled stat and the subroutine profile
/// match field by field.
void expect_stats_equal(const DpuRunStats& a, const DpuRunStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_slots, b.total_slots);
  EXPECT_EQ(a.total_dma_cycles, b.total_dma_cycles);
  EXPECT_EQ(a.total_dma_bytes, b.total_dma_bytes);
  ASSERT_EQ(a.tasklets.size(), b.tasklets.size());
  for (std::size_t t = 0; t < a.tasklets.size(); ++t) {
    EXPECT_EQ(a.tasklets[t].slots, b.tasklets[t].slots) << "tasklet " << t;
    EXPECT_EQ(a.tasklets[t].dma_cycles, b.tasklets[t].dma_cycles)
        << "tasklet " << t;
    EXPECT_EQ(a.tasklets[t].dma_transfers, b.tasklets[t].dma_transfers)
        << "tasklet " << t;
    EXPECT_EQ(a.tasklets[t].dma_bytes, b.tasklets[t].dma_bytes)
        << "tasklet " << t;
  }
  for (std::size_t s = 0; s < static_cast<std::size_t>(Subroutine::kCount);
       ++s) {
    const auto sub = static_cast<Subroutine>(s);
    EXPECT_EQ(a.profile.occurrences(sub), b.profile.occurrences(sub))
        << sim::subroutine_name(sub);
  }
}

// ---- SimMode parsing ------------------------------------------------------

TEST_F(FastModeTest, ParseGrammar) {
  EXPECT_EQ(parse_sim_mode("interp"), SimMode::Interp);
  EXPECT_EQ(parse_sim_mode("fast"), SimMode::Fast);
  EXPECT_THROW(parse_sim_mode(""), ConfigError);
  EXPECT_THROW(parse_sim_mode("FAST"), ConfigError);
  EXPECT_THROW(parse_sim_mode("turbo"), ConfigError);
  EXPECT_STREQ(sim_mode_name(SimMode::Interp), "interp");
  EXPECT_STREQ(sim_mode_name(SimMode::Fast), "fast");
}

TEST_F(FastModeTest, DefaultModeFeedsLaunchDefaultArgument) {
  Dpu dpu;
  dpu.load(probe_program());
  EXPECT_FALSE(dpu.launch(2).fast_path);
  set_default_sim_mode(SimMode::Fast);
  EXPECT_TRUE(dpu.launch(2).fast_path);
  set_default_sim_mode(SimMode::Interp);
  EXPECT_FALSE(dpu.launch(2).fast_path);
}

// ---- regression: integer-wrap bounds bypass in host_write/host_read ------

TEST_F(FastModeTest, HostAccessWrapOffsetThrows) {
  Dpu dpu;
  dpu.load(probe_program());
  std::uint64_t payload[2] = {0x1122334455667788ull, 0x99aabbccddeeff00ull};
  dpu.host_write("data", 0, payload, 16); // in bounds: fine

  constexpr MemSize kWrap = std::numeric_limits<MemSize>::max() - 7;
  // offset + size wraps to 8, which the pre-fix `offset + size > s.size`
  // check accepted — it must throw, not write out of bounds.
  EXPECT_THROW(dpu.host_write("data", kWrap, payload, 16), OutOfBoundsError);
  EXPECT_THROW(dpu.host_write("data", 60, payload, 8), OutOfBoundsError);
  EXPECT_THROW(dpu.host_write("data", 0, payload, 72), OutOfBoundsError);

  std::uint64_t back[2] = {0, 0};
  EXPECT_THROW(dpu.host_read("data", kWrap, back, 16), OutOfBoundsError);
  EXPECT_THROW(dpu.host_read("data", 64, back, 8), OutOfBoundsError);
  dpu.host_read("data", 0, back, 16);
  EXPECT_EQ(back[0], payload[0]);
  EXPECT_EQ(back[1], payload[1]);
}

// ---- regression: a failed load must leave the prior program launchable ---

TEST_F(FastModeTest, FailedLoadLeavesPriorProgramLaunchable) {
  Dpu dpu;
  dpu.load(probe_program());
  const std::uint64_t marker = 0xdeadbeefcafef00dull;
  dpu.host_write("data", 0, &marker, 8);

  const auto check_intact = [&] {
    ASSERT_TRUE(dpu.has_symbol("data"));
    ASSERT_TRUE(dpu.has_symbol("out"));
    std::uint64_t back = 0;
    dpu.host_read("data", 0, &back, 8);
    EXPECT_EQ(back, marker);
    DpuRunStats st = dpu.launch(3);
    EXPECT_GT(st.total_slots, 0u);
    std::uint64_t v = 0;
    dpu.host_read("out", 16, &v, 8);
    EXPECT_EQ(v, 102u);
  };

  // Direction 1: symbol placement overflows MRAM.
  sim::DpuProgram big;
  big.name = "mram_overflow";
  big.symbols = {{"huge", MemKind::Mram, dpu.config().mram_bytes + 8}};
  big.entry = [](TaskletCtx&) {};
  EXPECT_THROW(dpu.load(big), CapacityError);
  check_intact();

  // Direction 1b: a size so large that offset + size wraps.
  sim::DpuProgram wrap;
  wrap.name = "wrap_overflow";
  wrap.symbols = {{"a", MemKind::Mram, 64},
                  {"b", MemKind::Mram,
                   std::numeric_limits<MemSize>::max() - 32}};
  wrap.entry = [](TaskletCtx&) {};
  EXPECT_THROW(dpu.load(wrap), CapacityError);
  check_intact();

  // Direction 2: symbols place fine but the code footprint overflows IRAM
  // (pre-fix, IRAM was loaded before symbol bookkeeping committed; either
  // order must leave the old program fully intact on failure).
  sim::DpuProgram fat = probe_program("iram_overflow");
  fat.iram_bytes = dpu.config().iram_bytes + 8;
  EXPECT_THROW(dpu.load(fat), CapacityError);
  check_intact();

  // Direction 3: WRAM overflow.
  sim::DpuProgram wbig;
  wbig.name = "wram_overflow";
  wbig.symbols = {{"w", MemKind::Wram, dpu.config().wram_bytes + 8}};
  wbig.entry = [](TaskletCtx&) {};
  EXPECT_THROW(dpu.load(wbig), CapacityError);
  check_intact();
}

// ---- barrier phases ------------------------------------------------------

TEST_F(FastModeTest, FirstPhasedLaunchCreatesZeroThreads) {
  // Every DPU launch runs its tasklets on the thread that claimed it, so
  // once the HostPool's workers exist even the first 16-tasklet launch of
  // a phased program creates no thread.
  constexpr std::uint32_t kTasklets = 16;
  runtime::HostPool::global();
  DpuSet set = DpuSet::allocate(1);
  set.load(barrier_program());
  const std::uint64_t before =
      obs::Metrics::instance().counter("hostpool.threads_created");
  set.launch(kTasklets);
  EXPECT_EQ(obs::Metrics::instance().counter("hostpool.threads_created"),
            before);
  expect_barrier_result(set.dpu(0), kTasklets);
}

TEST_F(FastModeTest, TaskletOrderFollowsSimMode) {
  // One phase: tasklet 0 writes a shared WRAM word and every tasklet copies
  // that word to MRAM. Fast runs tasklet 0 first, so every copy sees the
  // write; interp runs it last, so tasklets 1..3 copy the old zero. A
  // kernel that reads another tasklet's same-phase writes therefore gives
  // different bytes in the two modes, which the dual-run tests catch.
  sim::DpuProgram p;
  p.name = "order_probe";
  p.symbols = {{"out", MemKind::Mram, 32}, {"word", MemKind::Wram, 8}};
  p.entry = [](TaskletCtx& ctx) {
    auto word = ctx.wram_span<std::uint64_t>("word");
    if (ctx.id() == 0) {
      word[0] = 7;
    }
    ctx.mram_write(ctx.mram_addr("out") + ctx.id() * 8, word.data(), 8);
  };
  const auto run = [&](SimMode mode) {
    Dpu dpu;
    dpu.load(p);
    dpu.launch(4, OptLevel::O3, mode);
    std::vector<std::uint64_t> out(4);
    dpu.host_read("out", 0, out.data(), 32);
    return out;
  };
  const auto fast = run(SimMode::Fast);
  const auto interp = run(SimMode::Interp);
  EXPECT_NE(fast, interp);
  EXPECT_EQ(fast, (std::vector<std::uint64_t>{7, 7, 7, 7}));
  EXPECT_EQ(interp, (std::vector<std::uint64_t>{7, 0, 0, 0}));
}

// ---- executor selection rules --------------------------------------------

TEST_F(FastModeTest, ProgramWithoutFastEntryInterpretsUnderFastMode) {
  sim::DpuProgram p = probe_program("no_twin");
  p.fast_entry = nullptr;
  Dpu dpu;
  dpu.load(p);
  DpuRunStats st = dpu.launch(4, OptLevel::O3, SimMode::Fast);
  EXPECT_FALSE(st.fast_path);
  std::uint64_t v = 0;
  dpu.host_read("out", 24, &v, 8);
  EXPECT_EQ(v, 103u);
}

TEST_F(FastModeTest, PhasedProgramTakesItsTwinInFastMode) {
  constexpr std::uint32_t kTasklets = 6;
  Dpu dpu;
  dpu.load(barrier_program());
  const DpuRunStats interp = dpu.launch(kTasklets, OptLevel::O3,
                                        SimMode::Interp);
  EXPECT_FALSE(interp.fast_path);
  expect_barrier_result(dpu, kTasklets);

  Dpu twin;
  twin.load(barrier_program());
  const DpuRunStats fast = twin.launch(kTasklets, OptLevel::O3,
                                       SimMode::Fast);
  EXPECT_TRUE(fast.fast_path);
  expect_barrier_result(twin, kTasklets);
  expect_stats_equal(interp, fast);
}

// ---- mode plumbing through DpuSet / DpuPool / KernelSession --------------

TEST_F(FastModeTest, PoolAndSessionInheritAndOverrideMode) {
  set_default_sim_mode(SimMode::Fast);
  DpuPool pool;
  set_default_sim_mode(SimMode::Interp);
  EXPECT_EQ(pool.sim_mode(), SimMode::Fast); // snapshot at construction

  KernelSession session(pool, "probe", 1, [] { return probe_program(); });
  EXPECT_EQ(session.sim_mode(), SimMode::Fast);
  ASSERT_TRUE(session.launch(2));
  LaunchStats ls = session.finish();
  ASSERT_EQ(ls.per_dpu.size(), 1u);
  EXPECT_TRUE(ls.per_dpu[0].fast_path);

  // Mode survives reserve() growth (set re-allocation)...
  pool.reserve(8);
  EXPECT_EQ(pool.set().sim_mode(), SimMode::Fast);

  // ...and an override applies to the live set.
  pool.set_sim_mode(SimMode::Interp);
  KernelSession s2(pool, "probe", 1, [] { return probe_program(); });
  ASSERT_TRUE(s2.launch(2));
  LaunchStats ls2 = s2.finish();
  ASSERT_EQ(ls2.per_dpu.size(), 1u);
  EXPECT_FALSE(ls2.per_dpu[0].fast_path);
}

// ---- the dual-run equivalence contract on the eBNN kernel ----------------

/// One raw-DPU eBNN run: loads the program, uploads weights + images the
/// way EbnnHost does, launches under `mode`, and captures every symbol's
/// bytes afterwards (the WRAM scratch buffers included).
struct RunCapture {
  DpuRunStats stats;
  std::map<std::string, std::vector<std::uint8_t>> mem;
};

RunCapture run_ebnn_once(const EbnnConfig& cfg, const EbnnWeights& w,
                         BnMode bn, ConvKernel kernel,
                         const std::vector<Image>& images,
                         std::uint32_t n_tasklets, OptLevel opt,
                         SimMode mode) {
  const ebnn::EbnnLayout layout = ebnn::ebnn_layout(cfg);
  const sim::DpuProgram prog = ebnn::make_ebnn_program(cfg, bn, kernel);
  Dpu dpu;
  dpu.load(prog);

  dpu.host_write(ebnn::symbols::kConvWeights, 0, w.conv_bits.data(),
                 w.conv_bits.size() * sizeof(std::uint32_t));
  if (bn == BnMode::HostLut) {
    const ebnn::BnBinactLut lut = ebnn::build_bn_binact_lut(cfg, w.bn);
    dpu.host_write(ebnn::symbols::kBnLut, 0, lut.table.data(),
                   lut.table.size());
  } else {
    std::vector<float> bn_vec;
    bn_vec.reserve(5 * static_cast<std::size_t>(cfg.filters));
    for (const auto* v : {&w.bn.w0, &w.bn.w1, &w.bn.w2, &w.bn.w3, &w.bn.w4}) {
      bn_vec.insert(bn_vec.end(), v->begin(), v->end());
    }
    dpu.host_write(ebnn::symbols::kBnParams, 0, bn_vec.data(),
                   bn_vec.size() * sizeof(float));
  }
  const std::uint64_t n_images = images.size();
  dpu.host_write(ebnn::symbols::kMeta, 0, &n_images, sizeof(n_images));
  for (std::size_t i = 0; i < images.size(); ++i) {
    dpu.host_write(ebnn::symbols::kImages, i * layout.image_stride,
                   images[i].data(), images[i].size());
  }

  RunCapture out;
  out.stats =
      dpu.launch(n_tasklets, opt, mode);
  for (const sim::SymbolDecl& d : prog.symbols) {
    std::vector<std::uint8_t> bytes(d.size);
    dpu.host_read(d.name, 0, bytes.data(), bytes.size());
    out.mem.emplace(d.name, std::move(bytes));
  }
  return out;
}

void cross_check_ebnn(BnMode bn, ConvKernel kernel, std::size_t n_images,
                      std::uint32_t n_tasklets, OptLevel opt,
                      const EbnnConfig& cfg = EbnnConfig{}) {
  SCOPED_TRACE(std::string("bn=") +
               (bn == BnMode::HostLut ? "lut" : "softfloat") + " kernel=" +
               (kernel == ConvKernel::PackedRows ? "packed" : "scalar") +
               " ksize=" + std::to_string(cfg.ksize) +
               " pool=" + std::to_string(cfg.pool) +
               " images=" + std::to_string(n_images) +
               " tasklets=" + std::to_string(n_tasklets));
  const EbnnWeights w = EbnnWeights::random(cfg, 7u + n_images);
  const std::vector<Image> images =
      ebnn::images_only(ebnn::make_synthetic_mnist(n_images, 99));

  RunCapture interp =
      run_ebnn_once(cfg, w, bn, kernel, images, n_tasklets, opt,
                    SimMode::Interp);
  RunCapture fast = run_ebnn_once(cfg, w, bn, kernel, images, n_tasklets,
                                  opt, SimMode::Fast);

  EXPECT_FALSE(interp.stats.fast_path);
  EXPECT_TRUE(fast.stats.fast_path);
  expect_stats_equal(interp.stats, fast.stats);
  ASSERT_EQ(interp.mem.size(), fast.mem.size());
  for (const auto& [name, bytes] : interp.mem) {
    ASSERT_TRUE(fast.mem.count(name)) << name;
    EXPECT_EQ(bytes, fast.mem.at(name)) << "symbol " << name;
  }

  // Both executors also agree with the golden model's feature bits.
  const ebnn::EbnnLayout layout = ebnn::ebnn_layout(cfg);
  const ebnn::EbnnReference ref(cfg, w);
  const std::vector<std::uint8_t>& results =
      fast.mem.at(ebnn::symbols::kResults);
  const int ppf = cfg.pool_h() * cfg.pool_w();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::vector<int> expect = ref.infer(images[i].data()).feature;
    for (int f = 0; f < cfg.filters; ++f) {
      for (int p = 0; p < ppf; ++p) {
        std::uint32_t word = 0;
        std::memcpy(&word,
                    results.data() + i * layout.result_stride +
                        (static_cast<std::size_t>(f) *
                             layout.words_per_filter +
                         static_cast<std::size_t>(p) / 32) *
                            sizeof(word),
                    sizeof(word));
        ASSERT_EQ(static_cast<int>((word >> (p % 32)) & 1u),
                  expect[static_cast<std::size_t>(f) * ppf + p])
            << "image " << i << " filter " << f << " bit " << p;
      }
    }
  }
}

/// The default eBNN with another kernel or pool size. A 5x5 kernel gathers
/// and counts 25-tap windows (Scalar only: PackedRows needs ksize 3); a
/// 3x3 pool takes the twin's generic pool loop instead of the unrolled
/// 2x2 one.
EbnnConfig ebnn_config(int ksize, int pool) {
  EbnnConfig cfg;
  cfg.ksize = ksize;
  cfg.pool = pool;
  return cfg;
}

TEST_F(FastModeTest, EbnnDualRunBitAndCycleExact) {
  // One tasklet per image, idle tasklets (more tasklets than images), and
  // the strided multi-image-per-tasklet case, across every BnMode x
  // ConvKernel combination, 9- and 25-tap windows and both of the twin's
  // pool loops.
  cross_check_ebnn(BnMode::SoftFloat, ConvKernel::Scalar, 3, 5,
                   OptLevel::O3);
  cross_check_ebnn(BnMode::SoftFloat, ConvKernel::PackedRows, 5, 3,
                   OptLevel::O3);
  cross_check_ebnn(BnMode::HostLut, ConvKernel::Scalar, 4, 4, OptLevel::O3);
  cross_check_ebnn(BnMode::HostLut, ConvKernel::PackedRows, 16, 16,
                   OptLevel::O3);
  cross_check_ebnn(BnMode::HostLut, ConvKernel::PackedRows, 2, 11,
                   OptLevel::O3);
  cross_check_ebnn(BnMode::HostLut, ConvKernel::Scalar, 3, 7, OptLevel::O3,
                   ebnn_config(5, 2));
  cross_check_ebnn(BnMode::SoftFloat, ConvKernel::Scalar, 5, 2, OptLevel::O3,
                   ebnn_config(5, 2));
  cross_check_ebnn(BnMode::HostLut, ConvKernel::PackedRows, 4, 3,
                   OptLevel::O3, ebnn_config(3, 3));
}

TEST_F(FastModeTest, EbnnDualRunBitAndCycleExactAtO0) {
  // The cost model changes per OptLevel; the twin charges through the same
  // model, so equivalence must hold at O0 too.
  cross_check_ebnn(BnMode::SoftFloat, ConvKernel::Scalar, 2, 2,
                   OptLevel::O0);
  cross_check_ebnn(BnMode::HostLut, ConvKernel::PackedRows, 3, 2,
                   OptLevel::O0);
}

// ---- the dual-run equivalence contract on the YOLO GEMM ------------------

// Mirrors the GEMM kernel's WRAM metadata block (dpu_gemm.cpp).
struct GemmMeta {
  std::uint64_t n, k;
  std::int64_t alpha;
  std::uint64_t variant, rows;
};

/// One raw-DPU GEMM run of `rows` rows: uploads the metadata, the A rows
/// at their padded stride and B the way dpu_gemm_planned does, launches
/// under `mode`, and captures every symbol's bytes afterwards (the WRAM
/// scratch strips included).
RunCapture run_gemm_once(int n, int k, int rows, std::int16_t alpha,
                         GemmVariant variant,
                         const std::vector<std::int16_t>& a,
                         const std::vector<std::int16_t>& b,
                         std::uint32_t n_tasklets, OptLevel opt,
                         SimMode mode) {
  const sim::DpuProgram prog = yolo::make_gemm_program(n, k, variant, rows);
  Dpu dpu;
  dpu.load(prog);
  const GemmMeta meta{static_cast<std::uint64_t>(n),
                      static_cast<std::uint64_t>(k), alpha,
                      static_cast<std::uint64_t>(variant),
                      static_cast<std::uint64_t>(rows)};
  dpu.host_write("meta", 0, &meta, sizeof(meta));
  const MemSize a_stride = map::gemm_a_stride_bytes(k);
  for (int r = 0; r < rows; ++r) {
    dpu.host_write("a_rows", r * a_stride,
                   a.data() + static_cast<std::size_t>(r) * k,
                   static_cast<MemSize>(k) * 2);
  }
  dpu.host_write("b_mat", 0, b.data(), b.size() * 2);

  RunCapture out;
  out.stats = dpu.launch(n_tasklets, opt, mode);
  for (const sim::SymbolDecl& d : prog.symbols) {
    std::vector<std::uint8_t> bytes(d.size);
    dpu.host_read(d.name, 0, bytes.data(), bytes.size());
    out.mem.emplace(d.name, std::move(bytes));
  }
  return out;
}

TEST_F(FastModeTest, GemmDualRunBitAndCycleExact) {
  // Partial last strips (n = 40, 300, 513: 1, 2 and 3 strips of
  // kGemmStrip columns, so 5 to 16 tasklets leave some idle and n = 40
  // has no full strip), A rows staged in two DMAs (k = 1100: 2200 bytes),
  // 1 and 3 rows per DPU, and a negative alpha on extreme operands whose
  // uint32 sums wrap.
  const int k = 1100;
  const std::int16_t alpha = -21845;
  const int max_rows = 3;
  const int max_n = 513;
  Rng rng(2718);
  const auto operand = [&] {
    static constexpr std::int16_t kEdges[] = {32767, -32767, -32768};
    const auto pick = rng.uniform_int(0, 5);
    return pick < 3 ? kEdges[pick]
                    : static_cast<std::int16_t>(
                          rng.uniform_int(-32768, 32767));
  };
  std::vector<std::int16_t> a(static_cast<std::size_t>(max_rows) * k);
  std::vector<std::int16_t> b_all(static_cast<std::size_t>(k) * max_n);
  for (auto& v : a) v = operand();
  for (auto& v : b_all) v = operand();

  for (const int n : {40, 300, max_n}) {
    // B is k x n row-major: the first n columns of every row of b_all.
    std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
    for (int kk = 0; kk < k; ++kk) {
      std::memcpy(b.data() + static_cast<std::size_t>(kk) * n,
                  b_all.data() + static_cast<std::size_t>(kk) * max_n,
                  static_cast<std::size_t>(n) * 2);
    }
    for (const int rows : {1, max_rows}) {
      std::vector<std::int16_t> expect(static_cast<std::size_t>(rows) * n);
      nn::gemm_q16_reference(rows, n, k, alpha, a, b, expect);
      const MemSize c_stride =
          align_up(static_cast<MemSize>(n) * 2, kXferAlign);
      for (const auto variant :
           {GemmVariant::WramTiled, GemmVariant::MramResident}) {
        for (const auto opt : {OptLevel::O0, OptLevel::O3}) {
          for (const std::uint32_t t : {1u, 5u, 11u, 16u}) {
            SCOPED_TRACE(
                "n=" + std::to_string(n) + " rows=" + std::to_string(rows) +
                " variant=" + std::to_string(static_cast<int>(variant)) +
                " O" + std::to_string(static_cast<int>(opt)) +
                " tasklets=" + std::to_string(t));
            const RunCapture interp = run_gemm_once(
                n, k, rows, alpha, variant, a, b, t, opt, SimMode::Interp);
            const RunCapture fast = run_gemm_once(
                n, k, rows, alpha, variant, a, b, t, opt, SimMode::Fast);
            EXPECT_FALSE(interp.stats.fast_path);
            EXPECT_TRUE(fast.stats.fast_path);
            expect_stats_equal(interp.stats, fast.stats);
            for (const auto& [name, bytes] : interp.mem) {
              EXPECT_TRUE(bytes == fast.mem.at(name)) << "symbol " << name;
            }
            // Both executors also agree with the golden model.
            const std::vector<std::uint8_t>& c = fast.mem.at("c_rows");
            for (int r = 0; r < rows; ++r) {
              EXPECT_EQ(std::memcmp(c.data() + r * c_stride,
                                    expect.data() +
                                        static_cast<std::size_t>(r) * n,
                                    static_cast<std::size_t>(n) * 2),
                        0)
                  << "row " << r;
            }
          }
        }
      }
    }
  }
}

// ---- end-to-end parity through the host applications ---------------------

TEST_F(FastModeTest, EbnnHostEndToEndParity) {
  EbnnConfig cfg;
  EbnnWeights w = EbnnWeights::random(cfg, 42);
  const std::vector<Image> images =
      ebnn::images_only(ebnn::make_synthetic_mnist(24, 5));

  set_default_sim_mode(SimMode::Interp);
  ebnn::EbnnHost interp_host(cfg, w, BnMode::HostLut, sim::default_config(),
                             ConvKernel::PackedRows);
  ebnn::EbnnBatchResult ri = interp_host.run(images, 16);

  set_default_sim_mode(SimMode::Fast);
  ebnn::EbnnHost fast_host(cfg, w, BnMode::HostLut, sim::default_config(),
                           ConvKernel::PackedRows);
  ebnn::EbnnBatchResult rf = fast_host.run(images, 16);

  EXPECT_EQ(ri.predicted, rf.predicted);
  ASSERT_EQ(ri.features.size(), rf.features.size());
  for (std::size_t i = 0; i < ri.features.size(); ++i) {
    EXPECT_EQ(ri.features[i], rf.features[i]) << "image " << i;
  }
  EXPECT_EQ(ri.launch.wall_cycles, rf.launch.wall_cycles);
  EXPECT_EQ(ri.launch.total_cycles, rf.launch.total_cycles);
  ASSERT_EQ(ri.launch.per_dpu.size(), rf.launch.per_dpu.size());
  for (std::size_t d = 0; d < ri.launch.per_dpu.size(); ++d) {
    EXPECT_FALSE(ri.launch.per_dpu[d].fast_path);
    EXPECT_TRUE(rf.launch.per_dpu[d].fast_path);
    expect_stats_equal(ri.launch.per_dpu[d], rf.launch.per_dpu[d]);
  }
}

TEST_F(FastModeTest, DeepEbnnEndToEndParity) {
  ebnn::DeepEbnnConfig cfg;
  cfg.blocks = {{8}, {8}};
  ebnn::DeepEbnnWeights w = ebnn::DeepEbnnWeights::random(cfg, 11);
  const std::vector<Image> images =
      ebnn::images_only(ebnn::make_synthetic_mnist(10, 3));

  set_default_sim_mode(SimMode::Interp);
  ebnn::DeepEbnnHost interp_host(cfg, w);
  ebnn::DeepEbnnBatchResult ri = interp_host.run(images);

  set_default_sim_mode(SimMode::Fast);
  ebnn::DeepEbnnHost fast_host(cfg, w);
  ebnn::DeepEbnnBatchResult rf = fast_host.run(images);

  EXPECT_EQ(ri.predicted, rf.predicted);
  ASSERT_EQ(ri.features.size(), rf.features.size());
  for (std::size_t i = 0; i < ri.features.size(); ++i) {
    EXPECT_EQ(ri.features[i], rf.features[i]) << "image " << i;
  }
  EXPECT_EQ(ri.launch.wall_cycles, rf.launch.wall_cycles);
  EXPECT_EQ(ri.launch.total_cycles, rf.launch.total_cycles);
  ASSERT_EQ(ri.launch.per_dpu.size(), rf.launch.per_dpu.size());
  for (std::size_t d = 0; d < ri.launch.per_dpu.size(); ++d) {
    EXPECT_FALSE(ri.launch.per_dpu[d].fast_path);
    EXPECT_TRUE(rf.launch.per_dpu[d].fast_path);
    expect_stats_equal(ri.launch.per_dpu[d], rf.launch.per_dpu[d]);
  }
}

TEST_F(FastModeTest, YoloEndToEndParity) {
  // YOLOv3-lite at 64x64 through run and run_pipelined, once on a split
  // plan and once under a fixed-seed fault plan: the GEMM twin must give
  // the interpreter's outputs, per-layer cycles and health counters.
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  const std::vector<std::vector<std::int16_t>> frames = {
      yolo::make_synthetic_image(3, 64, 64, 5, 100),
      yolo::make_synthetic_image(3, 64, 64, 5, 101)};
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;

  struct Capture {
    std::vector<std::vector<std::vector<std::int16_t>>> outputs;
    std::vector<std::vector<Cycles>> layer_cycles;
    std::map<std::string, std::uint64_t> health;
  };
  const auto run_mode = [&](SimMode mode, const char* mapping,
                            const char* faults) {
    obs::Metrics::instance().reset();
    sim::set_fault_config(faults != nullptr ? sim::parse_fault_config(faults)
                                            : FaultConfig{});
    set_default_sim_mode(mode);
    map::ScopedMappingOverride pin(mapping);
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    std::vector<yolo::YoloRunResult> results;
    results.push_back(runner.run(frames[0], opts));
    for (yolo::YoloRunResult& f : runner.run_pipelined(frames, opts).frames) {
      results.push_back(std::move(f));
    }
    Capture c;
    for (const yolo::YoloRunResult& r : results) {
      c.outputs.push_back(r.outputs);
      std::vector<Cycles> cycles;
      for (const yolo::LayerStats& l : r.layers) {
        cycles.push_back(l.cycles);
      }
      c.layer_cycles.push_back(std::move(cycles));
    }
    for (const char* name :
         {"faults.injected", "offload.retry", "offload.fallback",
          "pool.quarantined", "scrub.repaired", "health.reintegrated",
          "breaker.open"}) {
      c.health[name] = obs::Metrics::instance().counter(name);
    }
    const std::uint64_t fast_launches =
        obs::Metrics::instance().counter("sim.fast_launches");
    if (mode == SimMode::Fast) {
      EXPECT_GT(fast_launches, 0u);
    } else {
      EXPECT_EQ(fast_launches, 0u);
    }
    sim::set_fault_config(FaultConfig{});
    return c;
  };

  for (const auto& [mapping, faults] :
       {std::pair<const char*, const char*>{"split=2", nullptr},
        {"auto", "seed=42,launch=0.05,xfer=0.01,mram=0.01"}}) {
    SCOPED_TRACE(std::string(mapping) + " " + (faults ? faults : "clean"));
    const Capture interp = run_mode(SimMode::Interp, mapping, faults);
    const Capture fast = run_mode(SimMode::Fast, mapping, faults);
    EXPECT_EQ(interp.outputs, fast.outputs);
    EXPECT_EQ(interp.layer_cycles, fast.layer_cycles);
    EXPECT_EQ(interp.health, fast.health);
    if (faults != nullptr) {
      EXPECT_GT(fast.health.at("faults.injected"), 0u);
    }
  }
  obs::Metrics::instance().reset();
}

// ---- fixed-seed fault injection must behave identically in both modes ----

TEST_F(FastModeTest, FixedSeedFaultParity) {
  EbnnConfig cfg;
  EbnnWeights w = EbnnWeights::random(cfg, 21);
  const std::vector<Image> images =
      ebnn::images_only(ebnn::make_synthetic_mnist(8, 17));
  const char* spec = "seed=42,launch=0.3,xfer=0.05";

  const auto run_mode = [&](SimMode mode) {
    // Re-applying the config resets every per-(DPU, kind) draw ordinal, so
    // both runs see the identical fault sequence.
    sim::set_fault_config(sim::parse_fault_config(spec));
    set_default_sim_mode(mode);
    ebnn::EbnnHost host(cfg, w, BnMode::HostLut, sim::default_config(),
                        ConvKernel::PackedRows);
    return host.run(images, 8);
  };

  ebnn::EbnnBatchResult ri = run_mode(SimMode::Interp);
  ebnn::EbnnBatchResult rf = run_mode(SimMode::Fast);
  sim::set_fault_config(FaultConfig{});

  EXPECT_EQ(ri.predicted, rf.predicted);
  ASSERT_EQ(ri.features.size(), rf.features.size());
  for (std::size_t i = 0; i < ri.features.size(); ++i) {
    EXPECT_EQ(ri.features[i], rf.features[i]) << "image " << i;
  }
  EXPECT_EQ(ri.launch.retries, rf.launch.retries);
  EXPECT_EQ(ri.launch.faults_absorbed, rf.launch.faults_absorbed);
  EXPECT_EQ(ri.launch.quarantined, rf.launch.quarantined);
  EXPECT_EQ(ri.launch.retry_cycles, rf.launch.retry_cycles);
  EXPECT_EQ(ri.launch.cpu_fallback, rf.launch.cpu_fallback);
}

// ---- the double-buffered pipeline in fast mode ---------------------------

TEST_F(FastModeTest, PipelinedExecutionParityInFastMode) {
  EbnnConfig cfg;
  EbnnWeights w = EbnnWeights::random(cfg, 33);
  std::vector<std::vector<Image>> batches;
  for (int b = 0; b < 3; ++b) {
    batches.push_back(
        ebnn::images_only(ebnn::make_synthetic_mnist(10, 100 + b)));
  }

  set_default_sim_mode(SimMode::Fast);
  ebnn::EbnnHost piped(cfg, w, BnMode::HostLut, sim::default_config(),
                       ConvKernel::PackedRows);
  ebnn::EbnnPipelineResult pr = piped.run_pipelined(batches, 10);

  ebnn::EbnnHost serial(cfg, w, BnMode::HostLut, sim::default_config(),
                        ConvKernel::PackedRows);
  ASSERT_EQ(pr.batches.size(), batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    ebnn::EbnnBatchResult rs = serial.run(batches[b], 10);
    EXPECT_EQ(pr.batches[b].predicted, rs.predicted) << "batch " << b;
    ASSERT_EQ(pr.batches[b].features.size(), rs.features.size());
    for (std::size_t i = 0; i < rs.features.size(); ++i) {
      EXPECT_EQ(pr.batches[b].features[i], rs.features[i])
          << "batch " << b << " image " << i;
    }
    for (const DpuRunStats& st : pr.batches[b].launch.per_dpu) {
      EXPECT_TRUE(st.fast_path);
    }
  }
}

} // namespace
} // namespace pimdnn
