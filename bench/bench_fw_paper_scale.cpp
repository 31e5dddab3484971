// Paper-scale eBNN run on the full 2,560-DPU system (Table 2.1) — the
// scale the thesis evaluates but the per-op interpreter made impractical
// to simulate routinely. The fast execution mode (PIMDNN_SIM_MODE=fast /
// DpuPool::set_sim_mode) replaces per-op interpretation of the kernels
// that have a fast twin with batched native evaluation under identical
// cycle accounting, so a full-system batch becomes a CI-sized job.
//
// The bench fills every DPU (16 images each, §4.1.3's mapping) and runs
// the identical batch through both executors, reporting:
//  * host wall seconds per mode and the fast-over-interp speedup,
//  * a bit-identity check over every prediction and feature bitmap,
//  * a cycle-exactness check over the modeled launch cycles,
// and gates its exit code on the equivalence contract (plus an optional
// --min-speedup bound, used by CI). `--dpus N` shrinks the run for local
// smoke tests; `--json <path>` emits the machine-readable report.
#include <cstring>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/sim_mode.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "obs/metrics.hpp"
#include "runtime/host_timer.hpp"

int main(int argc, char** argv) {
  using namespace pimdnn;
  using namespace pimdnn::ebnn;

  std::uint32_t n_dpus = sim::default_config().total_dpus; // 2,560
  double min_speedup = 0.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--dpus") == 0) {
      n_dpus = static_cast<std::uint32_t>(std::stoul(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
      min_speedup = std::stod(argv[i + 1]);
    }
  }

  bench::JsonReport report("fw_paper_scale", argc, argv);
  bench::banner("Paper-scale eBNN: fast executor vs interpreter at " +
                std::to_string(n_dpus) + " DPUs");

  const EbnnConfig cfg;                 // 28x28, 16 filters (§4.1.1)
  const std::uint32_t per_dpu = ebnn_layout(cfg).max_images; // 16
  const std::size_t n_images =
      static_cast<std::size_t>(n_dpus) * per_dpu;
  const EbnnWeights weights = EbnnWeights::random(cfg, 42);
  const std::vector<Image> images =
      images_only(make_synthetic_mnist(n_images, 7));

  struct ModeRun {
    EbnnBatchResult result;
    Seconds wall = 0.0;
  };
  const auto run_mode = [&](SimMode mode) {
    set_default_sim_mode(mode);
    EbnnHost host(cfg, weights, BnMode::HostLut, sim::default_config(),
                  ConvKernel::PackedRows);
    runtime::HostTimer ht;
    ht.start();
    ModeRun r;
    r.result = host.run(images, per_dpu);
    r.wall = ht.elapsed();
    return r;
  };

  const std::uint64_t fast_before =
      obs::Metrics::instance().counter("sim.fast_launches");
  const ModeRun interp = run_mode(SimMode::Interp);
  const ModeRun fast = run_mode(SimMode::Fast);
  set_default_sim_mode(SimMode::Interp);
  const std::uint64_t fast_launches =
      obs::Metrics::instance().counter("sim.fast_launches") - fast_before;

  bool bit_identical = interp.result.predicted == fast.result.predicted &&
                       interp.result.features.size() ==
                           fast.result.features.size();
  if (bit_identical) {
    for (std::size_t i = 0; i < interp.result.features.size(); ++i) {
      if (interp.result.features[i] != fast.result.features[i]) {
        bit_identical = false;
        break;
      }
    }
  }
  const bool cycle_exact =
      interp.result.launch.wall_cycles == fast.result.launch.wall_cycles &&
      interp.result.launch.total_cycles == fast.result.launch.total_cycles;
  const double speedup =
      fast.wall > 0.0 ? interp.wall / fast.wall : 0.0;

  Table t(std::to_string(n_images) + " images on " +
          std::to_string(interp.result.dpus_used) + " DPUs (" +
          std::to_string(per_dpu) + " per DPU, LUT BN, packed rows)");
  t.header({"mode", "host wall s", "modeled DPU ms", "fast launches"});
  t.row({"interp", Table::num(interp.wall, 3),
         Table::num(interp.result.launch.wall_seconds * 1e3, 3),
         Table::num(std::uint64_t(0))});
  t.row({"fast", Table::num(fast.wall, 3),
         Table::num(fast.result.launch.wall_seconds * 1e3, 3),
         Table::num(fast_launches)});
  t.print(std::cout);
  std::cout << "\nfast-over-interp wall speedup: " << Table::num(speedup, 2)
            << "x\nbit-identical results: "
            << (bit_identical ? "yes" : "NO")
            << "\ncycle-exact stats:     " << (cycle_exact ? "yes" : "NO")
            << "\n";

  report.metric("dpus", interp.result.dpus_used);
  report.metric("images", static_cast<double>(n_images));
  report.metric("interp_wall_s", interp.wall, "s");
  report.metric("fast_wall_s", fast.wall, "s");
  report.metric("fast_speedup", speedup, "x");
  report.metric("bit_identical", bit_identical ? 1.0 : 0.0);
  report.metric("cycle_exact", cycle_exact ? 1.0 : 0.0);
  report.metric("fast_launches", static_cast<double>(fast_launches));

  if (!bit_identical || !cycle_exact) {
    std::cerr << "FAIL: fast mode broke the equivalence contract\n";
    return 1;
  }
  if (speedup < min_speedup) {
    std::cerr << "FAIL: speedup " << speedup << "x below required "
              << min_speedup << "x\n";
    return 1;
  }
  return 0;
}
