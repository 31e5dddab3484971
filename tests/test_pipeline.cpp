// Async double-buffered pipeline tests: HostPool primitives (submit/wait,
// helping waits, parallel_for, exception propagation, reentrancy,
// shutdown draining, zero-worker fallback), PipelineModel timeline math,
// async<->sync bit-exact parity for YOLOv3, both eBNN pipelines and the
// generic offloader — including a fixed-seed PIMDNN_FAULTS run — plus the
// steady-state invariants: zero thread creations per warm launch and zero
// staging-arena misses on warm frames. Every executor test is
// parameterized over both SimModes: the interpreter and the fast
// analytic executor must drive the same pipelined paths — including
// mapper-chosen split schedules — to identical bits.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sim_mode.hpp"
#include "core/offloader.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "obs/metrics.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/pipeline.hpp"
#include "sim/fault.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using runtime::HostPool;
using runtime::PipelineModel;
using runtime::PipelineStats;

// ---- HostPool --------------------------------------------------------------

TEST(HostPool, ParallelForMatchesSerialLoop) {
  HostPool pool(3);
  constexpr std::uint32_t n = 1000;
  std::vector<std::uint64_t> out(n, 0);
  pool.parallel_for(n, [&](std::uint32_t i) {
    out[i] = static_cast<std::uint64_t>(i) * i + 7;
  });
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * i + 7) << i;
  }
}

TEST(HostPool, ZeroWorkerPoolRunsEverythingInline) {
  HostPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::atomic<int> hits{0};
  pool.parallel_for(17, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits.load(), 17);
  auto h = pool.submit([&] { ++hits; });
  EXPECT_TRUE(h.valid());
  h.wait(); // the waiter executes the queued task itself
  EXPECT_EQ(hits.load(), 18);
  EXPECT_TRUE(h.ready());
}

TEST(HostPool, SubmitWaitIsRepeatableAndDefaultHandleInvalid) {
  HostPool pool(1);
  std::atomic<int> runs{0};
  auto h = pool.submit([&] { ++runs; });
  h.wait();
  h.wait(); // second wait is a no-op, the task ran exactly once
  EXPECT_EQ(runs.load(), 1);
  HostPool::TaskHandle none;
  EXPECT_FALSE(none.valid());
}

TEST(HostPool, SubmitPropagatesExceptionToWaiter) {
  HostPool pool(1);
  auto h = pool.submit([] { throw UsageError("boom"); });
  EXPECT_THROW(h.wait(), UsageError);
  // Repeated waits rethrow the same captured exception.
  EXPECT_THROW(h.wait(), UsageError);
}

TEST(HostPool, ParallelForPropagatesBodyException) {
  HostPool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::uint32_t i) {
                                   if (i == 13) {
                                     throw UsageError("body");
                                   }
                                 }),
               UsageError);
  // The pool survives: later work still runs.
  std::atomic<int> hits{0};
  pool.parallel_for(8, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits.load(), 8);
}

TEST(HostPool, NestedParallelForInsideTaskDoesNotDeadlock) {
  // A submitted task that itself fans out mirrors the pipelined frame
  // driver (run_frame's postprocess runs parallel_for on the same pool).
  for (std::uint32_t workers : {0u, 2u}) {
    HostPool pool(workers);
    std::atomic<int> hits{0};
    auto h = pool.submit(
        [&] { pool.parallel_for(32, [&](std::uint32_t) { ++hits; }); });
    h.wait();
    EXPECT_EQ(hits.load(), 32) << workers << " workers";
  }
}

TEST(HostPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> runs{0};
  {
    HostPool pool(0); // nothing dequeues until wait or shutdown
    for (int i = 0; i < 5; ++i) {
      pool.submit([&] { ++runs; });
    }
    EXPECT_EQ(runs.load(), 0);
  }
  // Shutdown executed the still-queued tasks instead of dropping them.
  EXPECT_EQ(runs.load(), 5);
}

// ---- PipelineModel ---------------------------------------------------------

TEST(Pipeline, TwoBankScheduleOverlapsDpuPhases) {
  PipelineModel model(2);
  // Two identical items on alternating banks: host 1s, xfer 0.5s, dpu 4s.
  for (std::size_t item = 0; item < 2; ++item) {
    const unsigned bank = static_cast<unsigned>(item % 2);
    model.host_stage(item, 1.0);
    model.xfer_stage(item, bank, 0.5);
    model.dpu_stage(item, bank, 4.0);
  }
  const PipelineStats s = model.stats();
  EXPECT_EQ(s.items, 2u);
  EXPECT_DOUBLE_EQ(s.serial_seconds, 11.0);
  // Host lane: h0 [0,1], x0 [1,1.5], h1 [1.5,2.5], x1 [2.5,3].
  // Banks: dpu0 [1.5,5.5] on bank 0, dpu1 [3,7] on bank 1.
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 7.0);
  EXPECT_DOUBLE_EQ(s.host_seconds, 3.0);
  EXPECT_DOUBLE_EQ(s.dpu_seconds, 8.0);
  EXPECT_DOUBLE_EQ(s.speedup(), 11.0 / 7.0);
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 1.0 - 7.0 / 11.0);
}

TEST(Pipeline, HostLaneSerializesAcrossItems) {
  PipelineModel model(2);
  model.host_stage(0, 1.0);
  model.host_stage(1, 1.0);
  const PipelineStats s = model.stats();
  // Two host stages cannot overlap: one host lane.
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.serial_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
}

TEST(Pipeline, SameBankItemsSerialize) {
  PipelineModel model(1);
  model.dpu_stage(0, 0, 4.0);
  model.dpu_stage(1, 0, 4.0);
  const PipelineStats s = model.stats();
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 8.0);
}

TEST(Pipeline, TotalsDoNotDependOnBookingOrder) {
  // Item 0's 0.2 s and 0.3 s stages and item 1's 0.1 s stage, booked with
  // item 1 last or in between: a running sum in booking order reads 0.6
  // against 0.6000000000000001.
  using Stage = void (*)(PipelineModel&, std::size_t, Seconds);
  const Stage kinds[] = {
      [](PipelineModel& m, std::size_t i, Seconds d) { m.host_stage(i, d); },
      [](PipelineModel& m, std::size_t i, Seconds d) {
        m.xfer_stage(i, 0, d);
      },
      [](PipelineModel& m, std::size_t i, Seconds d) {
        m.dpu_stage(i, 0, d);
      },
  };
  for (const Stage stage : kinds) {
    PipelineModel last(2);
    stage(last, 0, 0.2);
    stage(last, 0, 0.3);
    stage(last, 1, 0.1);
    PipelineModel between(2);
    stage(between, 0, 0.2);
    stage(between, 1, 0.1);
    stage(between, 0, 0.3);
    const PipelineStats a = last.stats();
    const PipelineStats b = between.stats();
    EXPECT_EQ(a.dpu_seconds, b.dpu_seconds);
    EXPECT_EQ(a.serial_seconds, b.serial_seconds);
    EXPECT_EQ(a.host_seconds, b.host_seconds);
  }
}

TEST(Pipeline, EmptyModelHasNeutralStats) {
  const PipelineStats s = PipelineModel(2).stats();
  EXPECT_EQ(s.items, 0u);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 0.0);
}

/// Two items on separate banks, host+xfer+dpu each. Hand-checked greedy
/// earliest-fit schedule:
///   item0: host [0,1)      xfer(b0) [1,1.5)   dpu(b0) [1.5,3.5)
///   item1: host [1.5,2.5)  xfer(b1) [2.5,3)   dpu(b1) [3,5)
/// (item1's host stage waits for the host lane, which the item0 transfer
/// occupies until 1.5.)
PipelineStats two_item_schedule() {
  PipelineModel model(2);
  model.host_stage(0, 1.0);
  model.xfer_stage(0, 0, 0.5);
  model.dpu_stage(0, 0, 2.0);
  model.host_stage(1, 1.0);
  model.xfer_stage(1, 1, 0.5);
  model.dpu_stage(1, 1, 2.0);
  return model.stats();
}

TEST(Pipeline, HandBuiltScheduleMatchesEarliestFit) {
  const PipelineStats rep = two_item_schedule();
  EXPECT_EQ(rep.items, 2u);
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, 5.0);
  EXPECT_DOUBLE_EQ(rep.serial_seconds, 7.0);
  EXPECT_NEAR(rep.overlap_efficiency(), 1.0 - 5.0 / 7.0, 1e-12);

  ASSERT_EQ(rep.lanes.size(), 4u); // host, link, bank0, bank1
  EXPECT_EQ(rep.lanes[0].name, "host");
  EXPECT_DOUBLE_EQ(rep.lanes[0].busy_seconds, 3.0); // 2 host + 2 xfers
  EXPECT_DOUBLE_EQ(rep.lanes[0].utilization, 0.6);
  EXPECT_EQ(rep.lanes[1].name, "link");
  EXPECT_DOUBLE_EQ(rep.lanes[1].busy_seconds, 1.0);
  EXPECT_EQ(rep.lanes[2].name, "bank0");
  EXPECT_DOUBLE_EQ(rep.lanes[2].busy_seconds, 2.5);
  EXPECT_EQ(rep.lanes[3].name, "bank1");
  EXPECT_DOUBLE_EQ(rep.lanes[3].busy_seconds, 2.5);

  // The host lane (3.0s busy) out-occupies either bank (2.5s each) and
  // its busy time is mostly compute (2.0 > 1.0 transferred), so the run
  // is host-bound by 0.5s.
  EXPECT_EQ(rep.critical_lane, "host");
  EXPECT_DOUBLE_EQ(rep.critical_utilization, 0.6);
  EXPECT_DOUBLE_EQ(rep.critical_margin_seconds, 0.5);

  ASSERT_EQ(rep.per_frame.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.per_frame[0].host_seconds, 1.0);
  EXPECT_DOUBLE_EQ(rep.per_frame[0].xfer_seconds, 0.5);
  EXPECT_DOUBLE_EQ(rep.per_frame[0].dpu_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rep.per_frame[0].latency_seconds, 3.5);
  EXPECT_DOUBLE_EQ(rep.per_frame[1].latency_seconds, 3.5); // 1.5 -> 5.0
}

TEST(Pipeline, LinkAttributionWhenTransfersDominateHostLane) {
  // Two banks; host compute is negligible next to the transfers, so the
  // host lane is the busiest resource (it carries every transfer, each
  // bank only half of them) and its busy time is transfer-dominated: the
  // PrIM-style verdict must be "link", not "host".
  PipelineModel model(2);
  model.host_stage(0, 0.1);
  model.xfer_stage(0, 0, 2.0);
  model.dpu_stage(0, 0, 0.5);
  model.host_stage(1, 0.1);
  model.xfer_stage(1, 1, 2.0);
  model.dpu_stage(1, 1, 0.5);
  EXPECT_EQ(model.stats().critical_lane, "link");
}

TEST(Pipeline, BankBoundRunNamesTheBusiestBank) {
  // Kernels dominate and bank1's is the longer one. Hand-checked schedule:
  //   item0: host [0,0.125)    xfer(b0) [0.125,0.375)  dpu(b0) [0.375,1.375)
  //   item1: host [0.375,0.5)  xfer(b1) [0.5,0.75)     dpu(b1) [0.75,3.75)
  // (item1's host stage waits for the host lane behind item0's transfer.)
  PipelineModel model(2);
  model.host_stage(0, 0.125);
  model.xfer_stage(0, 0, 0.25);
  model.dpu_stage(0, 0, 1.0);
  model.host_stage(1, 0.125);
  model.xfer_stage(1, 1, 0.25);
  model.dpu_stage(1, 1, 3.0);
  const PipelineStats rep = model.stats();
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, 3.75);
  ASSERT_EQ(rep.lanes.size(), 4u);
  EXPECT_DOUBLE_EQ(rep.lanes[0].busy_seconds, 0.75); // host
  EXPECT_DOUBLE_EQ(rep.lanes[2].busy_seconds, 1.25); // bank0
  EXPECT_DOUBLE_EQ(rep.lanes[3].busy_seconds, 3.25); // bank1
  EXPECT_EQ(rep.critical_lane, "bank1");
  EXPECT_DOUBLE_EQ(rep.critical_utilization, 3.25 / 3.75);
  // Margin over the runner-up, bank0, not over the host lane.
  EXPECT_DOUBLE_EQ(rep.critical_margin_seconds, 2.0);
  // An item's latency runs from its own first stage, not from time zero.
  ASSERT_EQ(rep.per_frame.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.per_frame[0].latency_seconds, 1.375);
  EXPECT_DOUBLE_EQ(rep.per_frame[1].latency_seconds, 3.375);
}

TEST(Pipeline, TwoInFlightFloorDelaysThirdItem) {
  // item0 holds bank0 until t=2; item2 could start on the idle bank1 at
  // t=1 (after item1) but the double-buffered executors only admit item i
  // once item i-2 retired, so it starts at t=2.
  PipelineModel model(2);
  model.dpu_stage(0, 0, 2.0);
  model.dpu_stage(1, 1, 1.0);
  model.dpu_stage(2, 1, 1.0);
  EXPECT_DOUBLE_EQ(model.stats().makespan_seconds, 3.0);
  EXPECT_DOUBLE_EQ(model.makespan(), 3.0);
}

// ---- async <-> sync parity -------------------------------------------------

/// Executor tests run under both simulators: pipelined execution must be
/// bit-exact with the synchronous path whether the kernels run through
/// the tasklet interpreter or the fast analytic executor.
class PipelineBothSims : public ::testing::TestWithParam<SimMode> {
protected:
  void SetUp() override { set_default_sim_mode(GetParam()); }
  void TearDown() override { set_default_sim_mode(SimMode::Interp); }
};

INSTANTIATE_TEST_SUITE_P(SimModes, PipelineBothSims,
                         ::testing::Values(SimMode::Interp, SimMode::Fast),
                         [](const auto& info) {
                           return std::string(sim_mode_name(info.param));
                         });

std::vector<std::vector<std::int16_t>> yolo_frames(int n, int h, int w) {
  std::vector<std::vector<std::int16_t>> frames;
  for (int i = 0; i < n; ++i) {
    frames.push_back(
        yolo::make_synthetic_image(3, h, w, 5, 100 + static_cast<unsigned>(i)));
  }
  return frames;
}

TEST_P(PipelineBothSims, YoloPipelinedMatchesSyncBitExactly) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  const auto frames = yolo_frames(4, 64, 64);

  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;

  std::vector<yolo::YoloRunResult> sync;
  for (const auto& f : frames) {
    sync.push_back(runner.run(f, opts));
  }

  const auto piped = runner.run_pipelined(frames, opts);
  ASSERT_EQ(piped.frames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(piped.frames[i].outputs, sync[i].outputs) << "frame " << i;
  }
  EXPECT_EQ(piped.pipeline.items, frames.size());
  EXPECT_GT(piped.pipeline.serial_seconds, 0.0);
  EXPECT_GE(piped.pipeline.serial_seconds,
            piped.pipeline.makespan_seconds - 1e-12);
  // Consecutive frames' DPU phases overlapped on the two banks.
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

TEST_P(PipelineBothSims, YoloPipelinedRejectsCpuModeAndBadFrames) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  const auto frames = yolo_frames(2, 64, 64);

  yolo::RunOptions cpu;
  cpu.mode = yolo::ExecMode::Cpu;
  EXPECT_THROW(runner.run_pipelined(frames, cpu), UsageError);

  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  auto bad = frames;
  bad[1].pop_back();
  EXPECT_THROW(runner.run_pipelined(bad, opts), UsageError);
  EXPECT_TRUE(runner.run_pipelined({}, opts).frames.empty());
}

std::vector<std::vector<ebnn::Image>> ebnn_batches(std::size_t n_batches,
                                                   std::size_t per_batch) {
  const auto images = ebnn::images_only(
      ebnn::make_synthetic_mnist(n_batches * per_batch, 11));
  std::vector<std::vector<ebnn::Image>> batches(n_batches);
  for (std::size_t b = 0; b < n_batches; ++b) {
    batches[b].assign(images.begin() + b * per_batch,
                      images.begin() + (b + 1) * per_batch);
  }
  return batches;
}

TEST_P(PipelineBothSims, EbnnPipelinedMatchesSyncBitExactly) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 16);

  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  std::vector<ebnn::EbnnBatchResult> sync;
  for (const auto& b : batches) {
    sync.push_back(host.run(b, 16));
  }

  const auto piped = host.run_pipelined(batches, 16);
  ASSERT_EQ(piped.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(piped.batches[i].predicted, sync[i].predicted) << i;
    EXPECT_EQ(piped.batches[i].features, sync[i].features) << i;
  }
  EXPECT_EQ(piped.pipeline.items, batches.size());
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

TEST_P(PipelineBothSims, DeepEbnnPipelinedMatchesSyncBitExactly) {
  ebnn::DeepEbnnConfig cfg;
  const auto weights = ebnn::DeepEbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 8);

  ebnn::DeepEbnnHost host(cfg, weights);
  std::vector<ebnn::DeepEbnnBatchResult> sync;
  for (const auto& b : batches) {
    sync.push_back(host.run(b));
  }

  const auto piped = host.run_pipelined(batches);
  ASSERT_EQ(piped.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(piped.batches[i].predicted, sync[i].predicted) << i;
    EXPECT_EQ(piped.batches[i].features, sync[i].features) << i;
  }
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

TEST_P(PipelineBothSims, OffloaderPipelinedMatchesSyncBitExactly) {
  core::WorkloadSpec spec;
  spec.name = "scale";
  spec.item_in_bytes = 32;
  spec.item_out_bytes = 32;
  spec.items_per_dpu = 4;
  spec.consts = {5};
  core::Offloader off(spec, [](core::ItemCtx& ic) {
    for (MemSize i = 0; i < 32; ++i) {
      const std::int32_t v = ic.input[i];
      ic.output[i] = static_cast<std::uint8_t>(
          ic.ctx.add(ic.ctx.mul(v, 2, 8), ic.consts[0]));
    }
    ic.ctx.charge_loop(32);
  });

  std::vector<std::vector<std::vector<std::uint8_t>>> batches(3);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batches[b].resize(10);
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      batches[b][i].resize(32);
      for (std::size_t j = 0; j < 32; ++j) {
        batches[b][i][j] = static_cast<std::uint8_t>(b * 31 + i * 3 + j);
      }
    }
  }

  std::vector<core::OffloadResult> sync;
  for (const auto& b : batches) {
    sync.push_back(off.run(b, 4));
  }

  const auto piped = off.run_pipelined(batches, 4);
  ASSERT_EQ(piped.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(piped.batches[i].outputs, sync[i].outputs) << i;
    EXPECT_EQ(piped.batches[i].dpus_used, sync[i].dpus_used) << i;
  }
  EXPECT_EQ(piped.pipeline.items, batches.size());
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

// ---- fault parity ----------------------------------------------------------

/// Pipelined runs under deterministic fault injection must self-heal to
/// the same bits as clean synchronous runs — in both simulators.
class PipelineFaultBothSims : public ::testing::TestWithParam<SimMode> {
protected:
  void SetUp() override {
    sim::set_fault_config(sim::FaultConfig{});
    obs::Metrics::instance().reset();
    set_default_sim_mode(GetParam());
  }
  void TearDown() override {
    sim::set_fault_config(sim::FaultConfig{});
    obs::Metrics::instance().reset();
    set_default_sim_mode(SimMode::Interp);
  }
};

INSTANTIATE_TEST_SUITE_P(SimModes, PipelineFaultBothSims,
                         ::testing::Values(SimMode::Interp, SimMode::Fast),
                         [](const auto& info) {
                           return std::string(sim_mode_name(info.param));
                         });

TEST_P(PipelineFaultBothSims, PipelinedRunsSurviveFaultsBitExactly) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  const auto frames = yolo_frames(3, 64, 64);
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;

  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 16);

  // Clean synchronous baselines (fresh executors: cold pools).
  std::vector<std::vector<std::vector<std::int16_t>>> clean_yolo;
  {
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    for (const auto& f : frames) {
      clean_yolo.push_back(runner.run(f, opts).outputs);
    }
  }
  std::vector<std::vector<int>> clean_pred;
  {
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    for (const auto& b : batches) {
      clean_pred.push_back(host.run(b, 16).predicted);
    }
  }

  sim::FaultConfig fcfg;
  fcfg.seed = 42;
  fcfg.launch_fail_rate = 0.05;
  fcfg.transfer_corrupt_rate = 0.01;
  sim::set_fault_config(fcfg);

  {
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    const auto piped = runner.run_pipelined(frames, opts);
    ASSERT_EQ(piped.frames.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(piped.frames[i].outputs, clean_yolo[i]) << "frame " << i;
    }
  }
  {
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    const auto piped = host.run_pipelined(batches, 16);
    ASSERT_EQ(piped.batches.size(), batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(piped.batches[i].predicted, clean_pred[i]) << i;
    }
  }
  EXPECT_GT(obs::Metrics::instance().counter("faults.injected"), 0u);
}

// ---- steady-state invariants -----------------------------------------------

TEST_P(PipelineBothSims, WarmLaunchesCreateNoThreadsAndMissNoArenaBuffers) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 16);
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);

  // Two warm-up batches let every staging-buffer capacity reach its fixed
  // point (the arena's free list only ever grows capacities).
  host.run(batches[0], 16);
  host.run(batches[1], 16);

  obs::Metrics::instance().reset();
  host.run(batches[2], 16);
  auto& m = obs::Metrics::instance();
  // Warm launches ride the process-lifetime HostPool: zero threads spawned.
  EXPECT_EQ(m.counter("hostpool.threads_created"), 0u);
  // Every staging buffer came from the arena's free list.
  EXPECT_EQ(m.counter("pool.arena.miss"), 0u);
  EXPECT_GT(m.counter("pool.arena.hit"), 0u);
  obs::Metrics::instance().reset();
}

} // namespace
} // namespace pimdnn
