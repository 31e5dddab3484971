// Unit tests for the DPU simulator: memories, cost model, DMA accounting,
// pipeline timing formula, perfcounter, subroutine profile.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "sim/charges.hpp"
#include "sim/cost_model.hpp"
#include "sim/dpu.hpp"
#include "sim/memory.hpp"

namespace pimdnn::sim {
namespace {

TEST(Memory, WramReadWriteRoundTrip) {
  Wram w(1024);
  const std::uint32_t v = 0xdeadbeef;
  w.write(8, &v, sizeof(v));
  std::uint32_t r = 0;
  w.read(&r, 8, sizeof(r));
  EXPECT_EQ(r, v);
}

TEST(Memory, WramBoundsChecked) {
  Wram w(64);
  std::uint8_t b = 0;
  EXPECT_THROW(w.read(&b, 64, 1), OutOfBoundsError);
  EXPECT_THROW(w.write(60, &b, 5), OutOfBoundsError);
  EXPECT_NO_THROW(w.write(63, &b, 1));
}

TEST(Memory, WramSpanBoundsChecked) {
  Wram w(64);
  EXPECT_NE(w.span(0, 64), nullptr);
  EXPECT_THROW(w.span(1, 64), OutOfBoundsError);
}

TEST(Memory, MramSparseReadsZeroWhenUntouched) {
  Mram m(64ull * 1024 * 1024);
  EXPECT_EQ(m.resident_chunks(), 0u);
  std::uint64_t v = 123;
  m.read(&v, 50ull * 1024 * 1024, sizeof(v));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.resident_chunks(), 0u);
}

TEST(Memory, MramWriteMaterializesOnlyTouchedChunks) {
  Mram m(64ull * 1024 * 1024);
  const std::uint64_t v = 0x1122334455667788ULL;
  m.write(10ull * 1024 * 1024, &v, sizeof(v));
  EXPECT_EQ(m.resident_chunks(), 1u);
  std::uint64_t r = 0;
  m.read(&r, 10ull * 1024 * 1024, sizeof(r));
  EXPECT_EQ(r, v);
}

TEST(Memory, MramCrossChunkTransfer) {
  Mram m(1024 * 1024);
  std::vector<std::uint8_t> buf(200000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 31);
  }
  m.write(1000, buf.data(), buf.size());
  std::vector<std::uint8_t> back(buf.size());
  m.read(back.data(), 1000, back.size());
  EXPECT_EQ(back, buf);
  EXPECT_GE(m.resident_chunks(), 3u);
}

TEST(Memory, MramBoundsChecked) {
  Mram m(1024);
  std::uint8_t b = 0;
  EXPECT_THROW(m.read(&b, 1024, 1), OutOfBoundsError);
  EXPECT_THROW(m.write(1020, &b, 8), OutOfBoundsError);
}

TEST(Memory, IramRejectsOversizedProgram) {
  Iram ir(24 * 1024);
  EXPECT_NO_THROW(ir.load_program(24 * 1024, "fits"));
  EXPECT_THROW(ir.load_program(24 * 1024 + 1, "big"), CapacityError);
}

TEST(CostModel, DmaCyclesFollowEq34) {
  // Thesis Eq. 3.4: 2048-byte transfer = 25 + 1024 = 1049 cycles.
  EXPECT_EQ(CostModel::dma_cycles(2048), 1049u);
  EXPECT_EQ(CostModel::dma_cycles(2), 26u);
  EXPECT_EQ(CostModel::dma_cycles(0), 25u);
  EXPECT_EQ(CostModel::dma_cycles(784), 25u + 392u);
}

TEST(CostModel, O0IsMoreExpensiveThanO3) {
  const CostModel o0(OptLevel::O0);
  const CostModel o3(OptLevel::O3);
  EXPECT_GT(o0.alu_stmt(), o3.alu_stmt());
  EXPECT_GT(o0.loop_iter(), o3.loop_iter());
  EXPECT_GE(o0.mul_stmt(16), o3.mul_stmt(16));
}

TEST(CostModel, SixteenBitMultiplyCollapsesUnderOptimization) {
  // Thesis §3.3: "16-bit multiplication operations also use software
  // subroutines under no-optimization but collapse into regular
  // instructions under full optimization".
  EXPECT_TRUE(CostModel(OptLevel::O0).mul_uses_subroutine(16));
  EXPECT_FALSE(CostModel(OptLevel::O3).mul_uses_subroutine(16));
  EXPECT_TRUE(CostModel(OptLevel::O0).mul_uses_subroutine(32));
  EXPECT_TRUE(CostModel(OptLevel::O3).mul_uses_subroutine(32));
  EXPECT_FALSE(CostModel(OptLevel::O0).mul_uses_subroutine(8));
}

TEST(CostModel, SubroutineNamesArePrintable) {
  EXPECT_STREQ(subroutine_name(Subroutine::MulSI3), "__mulsi3");
  EXPECT_STREQ(subroutine_name(Subroutine::DivSF3), "__divsf3");
  EXPECT_STREQ(subroutine_name(Subroutine::FloatSISF), "__floatsisf");
}

TEST(Profile, CountsAndDistinct) {
  SubroutineProfile p;
  p.record(Subroutine::AddSF3, 3);
  p.record(Subroutine::MulSI3, 2);
  EXPECT_EQ(p.occurrences(Subroutine::AddSF3), 3u);
  EXPECT_EQ(p.total(), 5u);
  EXPECT_EQ(p.distinct(), 2u);
  EXPECT_EQ(p.float_total(), 3u);
}

TEST(Profile, MergeAccumulates) {
  SubroutineProfile a;
  SubroutineProfile b;
  a.record(Subroutine::DivSF3, 1);
  b.record(Subroutine::DivSF3, 4);
  b.record(Subroutine::LtSF2, 2);
  a.merge(b);
  EXPECT_EQ(a.occurrences(Subroutine::DivSF3), 5u);
  EXPECT_EQ(a.distinct(), 2u);
}

TEST(Profile, PrintsOccurrenceLines) {
  SubroutineProfile p;
  p.record(Subroutine::MulSF3, 7);
  std::ostringstream os;
  p.print(os);
  EXPECT_NE(os.str().find("__mulsf3"), std::string::npos);
  EXPECT_NE(os.str().find("7"), std::string::npos);
}

DpuProgram trivial_program(std::function<void(TaskletCtx&)> fn) {
  DpuProgram p;
  p.name = "test";
  p.symbols = {{"buf", MemKind::Mram, 4096},
               {"scratch", MemKind::Wram, 1024}};
  p.entry = std::move(fn);
  return p;
}

TEST(Dpu, LaunchRequiresProgram) {
  Dpu d;
  EXPECT_THROW(d.launch(1), UsageError);
}

TEST(Dpu, LaunchValidatesTaskletCount) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx&) {}));
  EXPECT_THROW(d.launch(0), UsageError);
  EXPECT_THROW(d.launch(25), UsageError);
  EXPECT_NO_THROW(d.launch(24));
}

TEST(Dpu, SymbolPlacementIsAlignedAndChecked) {
  Dpu d;
  DpuProgram p;
  p.name = "syms";
  p.symbols = {{"a", MemKind::Wram, 5},
               {"b", MemKind::Wram, 16},
               {"m", MemKind::Mram, 100}};
  p.entry = [](TaskletCtx&) {};
  d.load(p);
  EXPECT_EQ(d.symbol("a").offset % 8, 0u);
  EXPECT_EQ(d.symbol("b").offset, 8u); // 5 rounded up to 8
  EXPECT_TRUE(d.has_symbol("m"));
  EXPECT_FALSE(d.has_symbol("zz"));
  EXPECT_THROW(d.symbol("zz"), SymbolError);
}

TEST(Dpu, DuplicateSymbolRejected) {
  Dpu d;
  DpuProgram p;
  p.name = "dup";
  p.symbols = {{"a", MemKind::Wram, 8}, {"a", MemKind::Wram, 8}};
  p.entry = [](TaskletCtx&) {};
  EXPECT_THROW(d.load(p), SymbolError);
}

TEST(Dpu, WramOverflowRejected) {
  Dpu d;
  DpuProgram p;
  p.name = "big";
  p.symbols = {{"w", MemKind::Wram, 65 * 1024}};
  p.entry = [](TaskletCtx&) {};
  EXPECT_THROW(d.load(p), CapacityError);
}

TEST(Dpu, HostReadWriteSymbols) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx&) {}));
  const std::uint64_t v = 0xabcdef;
  d.host_write("buf", 8, &v, sizeof(v));
  std::uint64_t r = 0;
  d.host_read("buf", 8, &r, sizeof(r));
  EXPECT_EQ(r, v);
  EXPECT_THROW(d.host_write("buf", 4090, &v, sizeof(v)), OutOfBoundsError);
}

TEST(Dpu, SingleTaskletCyclesAreElevenPerSlot) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx& ctx) { ctx.charge_alu(100); }));
  const auto stats = d.launch(1, OptLevel::O3);
  // O3: 1 slot per ALU stmt; single tasklet latency = 11 * slots.
  EXPECT_EQ(stats.total_slots, 100u);
  EXPECT_EQ(stats.cycles, 1100u);
}

TEST(Dpu, PipelineSaturatesAtElevenTasklets) {
  // Balanced load: per-tasklet work fixed, so cycles = max(T*S, 11*S).
  auto run = [](std::uint32_t tasklets) {
    Dpu d;
    d.load(trivial_program([](TaskletCtx& ctx) { ctx.charge_alu(1000); }));
    return d.launch(tasklets, OptLevel::O3).cycles;
  };
  const Cycles c1 = run(1);
  const Cycles c11 = run(11);
  const Cycles c16 = run(16);
  EXPECT_EQ(c1, 11000u);
  EXPECT_EQ(c11, 11000u); // latency bound still dominates at T=11
  EXPECT_EQ(c16, 16000u); // beyond 11, issue bound grows with T
  // Per-image throughput (cycles per unit work) improves until 11.
  const double tp1 = static_cast<double>(c1) / 1;
  const double tp11 = static_cast<double>(c11) / 11;
  const double tp16 = static_cast<double>(c16) / 16;
  EXPECT_NEAR(tp11, tp1 / 11.0, 1e-9);
  EXPECT_NEAR(tp16, tp11, 1.0); // saturation: no further gain past 11
}

TEST(Dpu, DmaChargesIssuerAndSharedEngine) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx& ctx) {
    std::uint8_t buf[2048];
    ctx.mram_read(buf, ctx.mram_addr("buf"), 2048);
  }));
  const auto stats = d.launch(2, OptLevel::O3);
  EXPECT_EQ(stats.total_dma_cycles, 2u * 1049u);
  EXPECT_EQ(stats.total_dma_bytes, 2u * 2048u);
  EXPECT_EQ(stats.tasklets[0].dma_transfers, 1u);
  EXPECT_EQ(stats.cycles, 2u * 1049u); // DMA engine is the bottleneck
}

TEST(Dpu, PerfcounterMeasuresSlotsAndDma) {
  Dpu d;
  Cycles measured = 0;
  d.load(trivial_program([&](TaskletCtx& ctx) {
    ctx.charge_alu(7);
    ctx.perfcounter_config();
    ctx.charge_alu(10);
    std::uint8_t buf[64];
    ctx.mram_read(buf, ctx.mram_addr("buf"), 64);
    measured = ctx.perfcounter_get();
  }));
  d.launch(1, OptLevel::O3);
  EXPECT_EQ(measured, 10u * 11u + (25u + 32u));
}

TEST(Dpu, ArithmeticOpsComputeCorrectValues) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx& ctx) {
    EXPECT_EQ(ctx.add(2, 3), 5);
    EXPECT_EQ(ctx.sub(2, 3), -1);
    EXPECT_EQ(ctx.mul(-7, 6, 32), -42);
    EXPECT_EQ(ctx.mul64(INT64_C(1) << 40, 4), INT64_C(1) << 42);
    EXPECT_EQ(ctx.divi(7, 2), 3);
    EXPECT_EQ(ctx.divi(-7, 2), -3);
    EXPECT_EQ(ctx.and_(0xf0f0, 0xff00), 0xf000u);
    EXPECT_EQ(ctx.or_(0x0f, 0xf0), 0xffu);
    EXPECT_EQ(ctx.xor_(0xff, 0x0f), 0xf0u);
    EXPECT_EQ(ctx.shl(1, 5), 32u);
    EXPECT_EQ(ctx.shr(32, 5), 1u);
    EXPECT_EQ(ctx.popcount(0xffffu), 16);
    EXPECT_EQ(ctx.fadd(1.5f, 2.25f), 3.75f);
    EXPECT_EQ(ctx.fmul(3.0f, -2.0f), -6.0f);
    EXPECT_EQ(ctx.fdiv(1.0f, 4.0f), 0.25f);
    EXPECT_TRUE(ctx.flt(-1.0f, 0.0f));
    EXPECT_EQ(ctx.i2f(42), 42.0f);
    EXPECT_EQ(ctx.f2i(-3.7f), -3);
  }));
  d.launch(1, OptLevel::O0);
}

TEST(Dpu, DoubleOpsComputeAndProfile) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx& ctx) {
    EXPECT_EQ(ctx.dadd(1.25, 2.5), 3.75);
    EXPECT_EQ(ctx.dsub(1.0, 0.25), 0.75);
    EXPECT_EQ(ctx.dmul(3.0, -2.0), -6.0);
    EXPECT_EQ(ctx.ddiv(1.0, 8.0), 0.125);
  }));
  const auto stats = d.launch(1, OptLevel::O3);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::AddDF3), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::SubDF3), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::MulDF3), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::DivDF3), 1u);
  // Doubles are costlier than their single-precision siblings.
  EXPECT_GT(CostModel::subroutine_slots(Subroutine::MulDF3),
            CostModel::subroutine_slots(Subroutine::MulSF3));
  EXPECT_GT(CostModel::subroutine_slots(Subroutine::DivDF3),
            CostModel::subroutine_slots(Subroutine::DivSF3));
}

TEST(Dpu, DivisionByZeroThrows) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx& ctx) { ctx.divi(1, 0); }));
  EXPECT_THROW(d.launch(1), UsageError);
}

TEST(Dpu, FloatOpsRecordSubroutineOccurrences) {
  Dpu d;
  d.load(trivial_program([](TaskletCtx& ctx) {
    float t = ctx.i2f(3);
    t = ctx.fadd(t, 1.0f);
    t = ctx.fdiv(t, 2.0f);
    (void)ctx.flt(t, 0.0f);
    (void)ctx.mul(5, 5, 32);
  }));
  const auto stats = d.launch(1, OptLevel::O3);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::FloatSISF), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::AddSF3), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::DivSF3), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::LtSF2), 1u);
  EXPECT_EQ(stats.profile.occurrences(Subroutine::MulSI3), 1u);
  EXPECT_EQ(stats.profile.distinct(), 5u);
}

TEST(Dpu, BatchedChargingEqualsPerOpCharging) {
  // The accounting discipline: closed-form charges must equal elementwise
  // ones. Run the same inner product both ways and compare slot totals.
  const int n = 64;
  auto make = [&](bool batched) {
    Dpu d;
    DpuProgram p;
    p.name = "parity";
    p.symbols = {{"w", MemKind::Wram, 8}};
    p.entry = [=](TaskletCtx& ctx) {
      if (batched) {
        ctx.charge_loop(n);
        ctx.charge_mul(16, n);
        ctx.charge_alu(n); // accumulate adds
      } else {
        for (int i = 0; i < n; ++i) {
          ctx.charge_loop(1);
          (void)ctx.mul(i, i, 16);
          (void)ctx.add(i, i);
        }
      }
    };
    d.load(p);
    return d.launch(1, OptLevel::O0);
  };
  const auto a = make(false);
  const auto b = make(true);
  EXPECT_EQ(a.total_slots, b.total_slots);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.profile.occurrences(Subroutine::MulSI3),
            b.profile.occurrences(Subroutine::MulSI3));
}

TEST(Dpu, UnbalancedTaskletsBoundedBySlowest) {
  Dpu d;
  DpuProgram p;
  p.name = "unbal";
  p.symbols = {{"w", MemKind::Wram, 8}};
  p.entry = [](TaskletCtx& ctx) {
    ctx.charge_alu(ctx.id() == 0 ? 1000 : 10);
  };
  d.load(p);
  const auto stats = d.launch(4, OptLevel::O3);
  // Latency bound of tasklet 0 dominates: 11 * 1000.
  EXPECT_EQ(stats.cycles, 11000u);
}

// ---- the shared charge record (sim/charges.hpp) ----------------------------

/// Tasklet t's record: every count set, unbalanced across tasklets, and
/// `dma` the cycles of the one MRAM read the kernel below issues.
KernelCharges sample_charges(std::uint32_t t) {
  KernelCharges c;
  c.alu = 100 + 7 * t;
  c.loops = 20 + t;
  c.slots = 12 * t;
  c.mul16 = 5 + t;
  c.mul32 = 3;
  c.call(Subroutine::AddSF3, 2 + t);
  c.call(Subroutine::MulDF3, 1);
  c.dma = CostModel::dma_cycles(64 * (t + 1));
  return c;
}

/// A kernel whose phase 0 applies tasklet t's record and issues the real
/// DMA the record's `dma` counts; later phases only cross barriers.
DpuProgram record_kernel(std::uint32_t phases, std::uint64_t barriers) {
  DpuProgram p = trivial_program([barriers](TaskletCtx& ctx) {
    if (ctx.phase() != 0) {
      return;
    }
    KernelCharges c = sample_charges(ctx.id());
    c.barriers = barriers;
    apply_counts(ctx, c);
    std::uint8_t buf[1024];
    ctx.mram_read(buf, ctx.mram_addr("buf"), 64 * (ctx.id() + 1));
  });
  p.phases = phases;
  return p;
}

TEST(Charges, ApplyCountsChargesWhatPricedWallPrices) {
  // The twin applies a record and the estimator prices the same record:
  // the launch's wall must equal the estimate exactly, at both -O levels
  // (mul16 collapses to hardware only under optimization) and on either
  // side of the 11-tasklet pipeline saturation.
  for (OptLevel opt : {OptLevel::O0, OptLevel::O3}) {
    for (std::uint32_t tasklets : {1u, 5u, 16u}) {
      Dpu d;
      d.load(record_kernel(1, 0));
      const DpuRunStats stats = d.launch(tasklets, opt);
      EXPECT_EQ(stats.cycles,
                priced_wall(tasklets, opt, d.config(), sample_charges))
          << "tasklets=" << tasklets;
      EXPECT_EQ(stats.profile.occurrences(Subroutine::AddSF3),
                2u * tasklets + tasklets * (tasklets - 1) / 2);
      EXPECT_EQ(stats.profile.occurrences(Subroutine::MulDF3), tasklets);
    }
  }
}

TEST(Charges, BarriersArePricedAsLaunchChargesPhaseBoundaries) {
  // A kernel with B barriers runs B + 1 phases, and Dpu::launch charges
  // every tasklet barrier_stmt() at each boundary: apply_counts must not
  // charge the record's barriers again, and priced_wall must price them.
  for (OptLevel opt : {OptLevel::O0, OptLevel::O3}) {
    const std::uint32_t tasklets = 16;
    const std::uint64_t barriers = 3;
    Dpu d;
    d.load(record_kernel(barriers + 1, barriers));
    const DpuRunStats stats = d.launch(tasklets, opt);
    const auto with_barriers = [barriers](std::uint32_t t) {
      KernelCharges c = sample_charges(t);
      c.barriers = barriers;
      return c;
    };
    EXPECT_EQ(stats.cycles,
              priced_wall(tasklets, opt, d.config(), with_barriers));

    // The same record applied in a single-phase launch charges no
    // barrier: its `barriers` count is the launch's to charge.
    Dpu flat;
    flat.load(record_kernel(1, barriers));
    const DpuRunStats flat_stats = flat.launch(tasklets, opt);
    EXPECT_EQ(flat_stats.cycles,
              priced_wall(tasklets, opt, flat.config(), sample_charges));
    EXPECT_EQ(stats.total_slots,
              flat_stats.total_slots +
                  barriers * tasklets * CostModel(opt).barrier_stmt());
    EXPECT_GT(stats.cycles, flat_stats.cycles);
  }
}

TEST(Config, Table21Attributes) {
  const UpmemConfig& c = default_config();
  EXPECT_EQ(c.total_dpus, 2560u);
  EXPECT_EQ(c.dpus_per_dimm, 128u);
  EXPECT_EQ(c.dpus_per_chip, 8u);
  EXPECT_EQ(c.mram_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(c.wram_bytes, 64ull * 1024);
  EXPECT_EQ(c.iram_bytes, 24ull * 1024);
  EXPECT_EQ(c.pipeline_stages, 11u);
  EXPECT_EQ(c.max_tasklets, 24u);
  EXPECT_DOUBLE_EQ(c.frequency_hz, 350e6);
  EXPECT_NEAR(c.cycles_to_seconds(350000000), 1.0, 1e-12);
}

} // namespace
} // namespace pimdnn::sim
