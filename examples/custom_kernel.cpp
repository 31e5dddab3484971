// Building your own offloaded kernel with the core framework.
//
// Demonstrates the "standardized framework" the thesis' future work calls
// for (§6.1): describe the workload shape, write only the per-item
// computation, and the framework handles DPU allocation, MRAM layout,
// padding, scatter/gather transfers and the parallel launch. The example
// kernel computes a 256-bin histogram of each 1 KB input block — a classic
// data-parallel PIM workload — then runs the performance advisor on the
// launch statistics. Exits 1 if any histogram disagrees with the host's.
#include <cstring>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/advisor.hpp"
#include "core/offloader.hpp"

int main() {
  using namespace pimdnn;
  using namespace pimdnn::core;

  // 1. Describe the workload: 1 KB in, 256 x u32 histogram out, 16 blocks
  //    per DPU (one per tasklet, like the eBNN mapping).
  WorkloadSpec spec;
  spec.name = "histogram";
  spec.item_in_bytes = 1024;
  spec.item_out_bytes = 256 * sizeof(std::uint32_t);
  spec.items_per_dpu = 16;

  // 2. Write only the per-item kernel; cycle charging via the ctx.
  Offloader off(spec, [](ItemCtx& ic) {
    auto* hist = reinterpret_cast<std::uint32_t*>(ic.output);
    std::memset(hist, 0, 256 * sizeof(std::uint32_t));
    ic.ctx.charge_alu(256);
    for (MemSize i = 0; i < 1024; ++i) {
      ++hist[ic.input[i]];
    }
    ic.ctx.charge_loop(1024);
    ic.ctx.charge_alu(3 * 1024); // load byte, load bin, store bin
  });

  // 3. Make a batch: 64 random blocks -> 4 DPUs.
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> blocks(64);
  for (auto& b : blocks) {
    b.resize(1024);
    for (auto& v : b) {
      v = static_cast<std::uint8_t>(rng.next_u32() & 0x3f); // bins 0..63
    }
  }

  // 4. Run and verify against a host computation.
  const auto r = off.run(blocks, 16);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    std::uint32_t expect[256] = {};
    for (auto v : blocks[i]) ++expect[v];
    if (std::memcmp(expect, r.outputs[i].data(), sizeof(expect)) == 0) {
      ++correct;
    }
  }

  std::cout << "histogram offload: " << blocks.size() << " blocks on "
            << r.dpus_used << " DPUs, 16 tasklets each\n"
            << "verified against host: " << correct << "/" << blocks.size()
            << "\nDPU wall time: " << Table::num(
                   r.launch.wall_seconds * 1e6, 1)
            << " us (" << r.launch.wall_cycles << " cycles)\n\n";

  // 5. Ask the advisor whether the implementation follows the thesis'
  //    takeaways.
  std::cout << "advisor report:\n"
            << render(advise(r.launch, 16, runtime::OptLevel::O3));
  return correct == blocks.size() ? 0 : 1;
}
