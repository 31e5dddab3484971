// Mapping-search sweep: the §6.1 future-work question answered with the
// `pimdnn::map` auto-mapper. For each representative YOLOv3 layer shape
// and eBNN batch size we print the paper's hand mapping next to the cost
// model's argmin plan — predicted makespan for both — and validate the
// model against the simulator: the predicted kernel cycles of the chosen
// plan must equal the simulated wall cycles (the estimators mirror the
// kernels' cycle charges one-for-one), and the auto plan must never be
// predicted slower than the paper mapping (it prices the paper candidate
// first and only moves on a strict win).
//
// The closing `split` section exercises the mapper's intra-workload
// split axis on a single-frame full-size (416x416) YOLOv3: the plans'
// predicted overlapped speedup and the pipelined executor's measured
// speedup must both clear 1.3x over the unsplit serial schedule.
//
// `--json <path>` emits the table for CI: per-shape predicted/simulated
// cycles plus the `auto_never_worse` / `calibration_ok` / `split_ok`
// gate metrics.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/sim_mode.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "map/mapper.hpp"
#include "map/plan.hpp"
#include "map/space.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

int main(int argc, char** argv) {
  using namespace pimdnn;
  using runtime::OptLevel;
  using yolo::GemmVariant;

  bench::JsonReport report("fw_mapping_sweep", argc, argv);
  bench::banner("Mapping sweep: map::Mapper auto search vs paper mapping");

  bool auto_never_worse = true;
  bool calibration_ok = true;

  // ---- YOLOv3 layer shapes (full-size network, analytic sweep) ----------
  struct Shape {
    const char* name;
    int m, n, k;
  };
  const std::vector<Shape> shapes = {
      {"conv1_32f_416x416", 32, 416 * 416, 3 * 9},
      {"conv_128f_104x104", 128, 104 * 104, 64 * 9},
      {"conv_256f_52x52", 256, 52 * 52, 128 * 9},
      {"conv_512f_26x26", 512, 26 * 26, 256 * 9},
      {"conv_1024f_13x13", 1024, 13 * 13, 512 * 9},
  };

  Table t("YOLOv3 layer mappings (WramTiled, -O3)");
  t.header({"layer", "paper plan", "paper pred (ms)", "auto plan",
            "auto pred (ms)", "speedup"});
  for (const auto& s : shapes) {
    map::MappingPlan paper;
    {
      map::ScopedMappingOverride env("paper");
      paper = yolo::plan_gemm_mapping(s.m, s.n, s.k, GemmVariant::WramTiled,
                                      OptLevel::O3);
    }
    map::MappingPlan chosen;
    {
      map::ScopedMappingOverride env("auto");
      chosen = yolo::plan_gemm_mapping(s.m, s.n, s.k, GemmVariant::WramTiled,
                                       OptLevel::O3);
    }
    const double pm = paper.predicted.makespan_seconds * 1e3;
    const double am = chosen.predicted.makespan_seconds * 1e3;
    if (am > pm) auto_never_worse = false;
    t.row({s.name,
           "r=" + Table::num(std::uint64_t(paper.rows_per_dpu)) +
               " t=" + Table::num(std::uint64_t(paper.n_tasklets)) +
               " d=" + Table::num(std::uint64_t(paper.n_dpus)),
           Table::num(pm, 3),
           "r=" + Table::num(std::uint64_t(chosen.rows_per_dpu)) +
               " t=" + Table::num(std::uint64_t(chosen.n_tasklets)) +
               " d=" + Table::num(std::uint64_t(chosen.n_dpus)),
           Table::num(am, 3), Table::num(pm / am, 3) + "x"});
    report.metric(std::string(s.name) + "_paper_ms", pm, "ms");
    report.metric(std::string(s.name) + "_auto_ms", am, "ms");
    report.metric(std::string(s.name) + "_auto_rows",
                  chosen.rows_per_dpu);
    report.metric(std::string(s.name) + "_auto_tasklets",
                  chosen.n_tasklets);
  }
  t.print(std::cout);

  // ---- simulated validation (fast executor, small GEMM) -----------------
  // The cost model's kernel term must match the simulator exactly: run the
  // auto-chosen plan and the paper plan and compare simulated wall cycles
  // against the predictions.
  set_default_sim_mode(SimMode::Fast);
  {
    const int m = 64, n = 300, k = 256;
    Rng rng(7);
    std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
    std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-60, 60));
    for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-60, 60));

    Table v("GEMM m=64 n=300 k=256: predicted vs simulated kernel cycles");
    v.header({"mapping", "plan", "predicted", "simulated", "delta"});
    for (const char* mode : {"paper", "auto"}) {
      map::ScopedMappingOverride env(mode);
      const auto plan = yolo::plan_gemm_mapping(m, n, k,
                                                GemmVariant::WramTiled,
                                                OptLevel::O3);
      const auto r = yolo::dpu_gemm(m, n, k, 1, a, b, GemmVariant::WramTiled,
                                    map::kAutoTasklets, OptLevel::O3,
                                    sim::default_config(), map::kAutoRows);
      if (r.stats.wall_cycles != plan.predicted.kernel_cycles) {
        calibration_ok = false;
      }
      v.row({mode,
             "r=" + Table::num(std::uint64_t(plan.rows_per_dpu)) +
                 " t=" + Table::num(std::uint64_t(plan.n_tasklets)),
             Table::num(plan.predicted.kernel_cycles),
             Table::num(r.stats.wall_cycles),
             bench::delta_pct(double(r.stats.wall_cycles),
                              double(plan.predicted.kernel_cycles))});
      report.metric(std::string("gemm_sim_") + mode + "_cycles",
                    double(r.stats.wall_cycles), "cycles");
      report.metric(std::string("gemm_pred_") + mode + "_cycles",
                    double(plan.predicted.kernel_cycles), "cycles");
    }
    v.print(std::cout);
  }

  // ---- eBNN batch sizes (simulated, fast executor) ----------------------
  {
    const ebnn::EbnnConfig cfg;
    const auto w = ebnn::EbnnWeights::random(cfg, 42);

    Table e("eBNN batches: auto vs paper (HostLut, simulated wall cycles)");
    e.header({"batch", "paper plan", "paper wall", "auto plan", "auto wall",
              "pred makespan paper/auto (ms)"});
    for (const std::size_t batch : {8u, 64u, 256u}) {
      const auto images =
          ebnn::images_only(ebnn::make_synthetic_mnist(batch, 5));

      ebnn::EbnnHost paper_host(cfg, w, ebnn::BnMode::HostLut);
      Cycles paper_wall = 0;
      std::uint32_t paper_dpus = 0;
      {
        map::ScopedMappingOverride env("paper");
        const auto r = paper_host.run(images);
        paper_wall = r.launch.wall_cycles;
        paper_dpus = r.dpus_used;
      }
      ebnn::EbnnHost auto_host(cfg, w, ebnn::BnMode::HostLut);
      Cycles auto_wall = 0;
      std::uint32_t auto_dpus = 0;
      {
        map::ScopedMappingOverride env("auto");
        const auto r = auto_host.run(images);
        auto_wall = r.launch.wall_cycles;
        auto_dpus = r.dpus_used;
      }
      // Makespan comparison through the same cost model both plans were
      // priced with: rebuild the two BatchRequests' predictions.
      map::BatchRequest req;
      req.n_items = batch;
      req.capacity = 16;
      req.kernel_cycles = [&](std::uint32_t items, std::uint32_t tk) {
        return ebnn::estimate_ebnn_wall_cycles(cfg, ebnn::BnMode::HostLut,
                                               ebnn::ConvKernel::Scalar,
                                               items, tk, OptLevel::O3);
      };
      req.item_in_bytes = 28 * 28;
      req.item_out_bytes = 64;
      map::MappingPlan paper_plan, auto_plan;
      {
        map::ScopedMappingOverride env("paper");
        paper_plan = map::Mapper().plan_batch(req);
      }
      {
        map::ScopedMappingOverride env("auto");
        auto_plan = map::Mapper().plan_batch(req);
      }
      const double pms = paper_plan.predicted.makespan_seconds * 1e3;
      const double ams = auto_plan.predicted.makespan_seconds * 1e3;
      if (ams > pms) auto_never_worse = false;
      e.row({Table::num(std::uint64_t(batch)),
             "i=16 t=16 d=" + Table::num(std::uint64_t(paper_dpus)),
             Table::num(paper_wall),
             "i=" + Table::num(std::uint64_t(auto_plan.items_per_dpu)) +
                 " t=" + Table::num(std::uint64_t(auto_plan.n_tasklets)) +
                 " d=" + Table::num(std::uint64_t(auto_dpus)),
             Table::num(auto_wall),
             Table::num(pms, 3) + " / " + Table::num(ams, 3)});
      report.metric("ebnn_batch" + std::to_string(batch) + "_paper_ms", pms,
                    "ms");
      report.metric("ebnn_batch" + std::to_string(batch) + "_auto_ms", ams,
                    "ms");
    }
    e.print(std::cout);
  }

  // ---- intra-workload split: single-frame full-size YOLOv3 --------------
  // A lone frame has no neighbor to overlap with, so without splitting the
  // pipelined executor degenerates to serial. The mapper's split axis
  // carves each conv launch into dual-bank sub-launches that overlap with
  // themselves: transfers of chunk s+1 hide behind the kernel of chunk s.
  // Predicted speedup comes from the split-aware plans (PipelineModel
  // makespan vs the same stages laid end to end); measured speedup is the
  // pipelined executor's PipelineStats over the actual run.
  bool split_ok = true;
  {
    const int side = 416;
    const auto defs = yolo::yolov3_lite_config(1, 1);
    const auto weights = yolo::YoloWeights::random(defs, 3, 42);
    yolo::YoloRunner runner(defs, weights, 3, side, side);
    const auto image = yolo::make_synthetic_image(3, side, side, 5, 3);
    yolo::RunOptions opts;
    opts.mode = yolo::ExecMode::DpuWram;
    opts.retain_all_outputs = false;

    // Predicted: price every layer with the split axis open and compare
    // the overlapped makespans against the unsplit serial breakdown.
    const auto plans = runner.layer_plans(opts, map::kMaxSplitFactor);
    double serial_pred = 0.0;
    double overlapped_pred = 0.0;
    std::uint32_t split_layers = 0;
    for (const auto& p : plans) {
      serial_pred += p.predicted.to_dpu_seconds + p.predicted.kernel_seconds +
                     p.predicted.from_dpu_seconds;
      overlapped_pred += p.predicted.makespan_seconds;
      if (p.split > 1) ++split_layers;
    }
    const double predicted =
        overlapped_pred > 0.0 ? serial_pred / overlapped_pred : 1.0;
    if (overlapped_pred > serial_pred + 1e-12) auto_never_worse = false;

    // Measured: run the frame through the pipelined executor.
    const auto piped = runner.run_pipelined({image}, opts);
    const double measured = piped.pipeline.speedup();

    if (predicted < 1.3 || measured < 1.3) split_ok = false;

    Table sp("Split: single-frame full-size YOLOv3 (416x416, DpuWram)");
    sp.header({"metric", "value"});
    sp.row({"conv layers split", Table::num(std::uint64_t(split_layers)) +
                                     " / " +
                                     Table::num(std::uint64_t(plans.size()))});
    sp.row({"predicted speedup", Table::num(predicted, 3) + "x"});
    sp.row({"measured speedup", Table::num(measured, 3) + "x"});
    sp.print(std::cout);

    report.metric("split_layers", double(split_layers));
    report.metric("split_predicted_speedup", predicted, "x");
    report.metric("split_measured_speedup", measured, "x");
  }

  std::cout << "\nauto_never_worse: " << (auto_never_worse ? "yes" : "NO")
            << "\ncalibration_ok:   " << (calibration_ok ? "yes" : "NO")
            << "\nsplit_ok:         " << (split_ok ? "yes" : "NO") << "\n";
  report.metric("auto_never_worse", auto_never_worse ? 1.0 : 0.0);
  report.metric("calibration_ok", calibration_ok ? 1.0 : 0.0);
  report.metric("split_ok", split_ok ? 1.0 : 0.0);
  return (auto_never_worse && calibration_ok && split_ok) ? 0 : 1;
}
