// eBNN batch inference at scale — the thesis' many-images-per-DPU mapping
// (§4.1.3) driven across dozens of DPUs, comparing the default (float
// BN-BinAct in the DPU) and LUT architectures, and validating every DPU
// result (prediction and feature bits) against the host golden model.
//
// Usage: ebnn_mnist_batch [n_images]   (default 256)
// Exits 1 if any image disagrees with the golden model.
#include <cstdlib>
#include <iostream>

#include "baseline/cpu_baseline.hpp"
#include "common/table.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "obs/metrics.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace pimdnn;
  using namespace pimdnn::ebnn;

  const std::size_t n_images =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 256;

  const EbnnConfig cfg;
  const auto weights = EbnnWeights::random(cfg, 42);
  const auto dataset = make_synthetic_mnist(n_images, 11);
  const auto images = images_only(dataset);
  const EbnnReference reference(cfg, weights);

  std::cout << "eBNN batch: " << n_images << " images, "
            << (n_images + 15) / 16 << " DPUs (16 images per DPU)\n\n";

  bool all_agree = true;
  Table t("architecture comparison");
  t.header({"architecture", "DPU wall (ms)", "us/image", "host ms",
            "float #occ", "golden-model agreement"});
  for (const auto& [label, mode] :
       {std::pair{"BN-BinAct in DPU (float)", BnMode::SoftFloat},
        std::pair{"LUT (host-built)", BnMode::HostLut}}) {
    EbnnHost host(cfg, weights, mode);
    const auto r = host.run(images, 16);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < images.size(); ++i) {
      const auto golden = reference.infer(images[i].data());
      if (golden.predicted == r.predicted[i] &&
          golden.feature == r.features[i]) {
        ++agree;
      }
    }
    all_agree = all_agree && agree == images.size();
    t.row({label, Table::num(r.launch.wall_seconds * 1e3, 3),
           Table::num(r.launch.wall_seconds / double(n_images) * 1e6, 2),
           Table::num(r.launch.host.host_seconds() * 1e3, 3),
           Table::num(r.launch.profile.float_total()),
           Table::num(agree) + "/" + Table::num(std::uint64_t{n_images})});
  }
  t.print(std::cout);

  // Per-DPU launch report for the LUT run (bound classification etc.). The
  // obs summary below aggregates every offload of the process — the warm
  // second batch shows up as a cached activation with a const-broadcast
  // hit, so the cold/warm host-cost asymmetry needs no bespoke printout.
  {
    EbnnHost host(cfg, weights, BnMode::HostLut);
    const auto cold = host.run(images, 16);
    host.run(images, 16);
    std::cout << "\nfirst DPU of the LUT run:\n";
    if (cold.launch.per_dpu.empty()) {
      std::cout << "  (offload degraded to CPU fallback - no DPU report)\n";
    } else {
      sim::print_report(std::cout, cold.launch.per_dpu[0]);
    }
  }
  std::cout << "\n";
  obs::print_summary(std::cout);

  // CPU baseline for context (Figure 4.7c's comparison axis).
  const auto cpu = baseline::time_cpu_ebnn(cfg, weights, images, 3);
  std::cout << "\nCPU reference: "
            << Table::num(cpu.seconds_per_image * 1e6, 2)
            << " us/image on this host.\n"
            << "Note: DPU microseconds are simulated 350 MHz cycles; only\n"
            << "relative comparisons across DPU configurations are\n"
            << "meaningful (see DESIGN.md).\n";
  if (!all_agree) {
    std::cerr << "error: DPU results disagree with the golden model\n";
    return 1;
  }
  return 0;
}
