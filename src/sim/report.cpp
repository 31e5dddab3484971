#include "sim/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

namespace pimdnn::sim {

CycleBound dominant_bound(const DpuRunStats& stats, const UpmemConfig& cfg) {
  Cycles latency = 0;
  for (const TaskletStats& t : stats.tasklets) {
    latency = std::max(latency, tasklet_cycles(t, cfg));
  }
  if (stats.cycles == latency &&
      latency >= stats.total_slots &&
      latency >= stats.total_dma_cycles) {
    // Latency only *dominates* when it exceeds the throughput bounds;
    // with >= 11 balanced tasklets it merely ties the issue bound.
    if (latency > stats.total_slots && latency > stats.total_dma_cycles) {
      return CycleBound::Latency;
    }
  }
  if (stats.total_dma_cycles >= stats.total_slots &&
      stats.cycles == stats.total_dma_cycles) {
    return CycleBound::Dma;
  }
  return CycleBound::Issue;
}

const char* cycle_bound_name(CycleBound b) {
  switch (b) {
    case CycleBound::Issue: return "issue-bound (pipeline full)";
    case CycleBound::Dma: return "DMA-bound (MRAM interface)";
    case CycleBound::Latency: return "latency-bound (under-threaded)";
  }
  return "?";
}

double tasklet_imbalance(const DpuRunStats& stats, const UpmemConfig& cfg) {
  if (stats.tasklets.empty()) return 0.0;
  double sum = 0.0;
  double worst = 0.0;
  for (const TaskletStats& t : stats.tasklets) {
    const auto c = static_cast<double>(tasklet_cycles(t, cfg));
    sum += c;
    worst = std::max(worst, c);
  }
  const double mean = sum / static_cast<double>(stats.tasklets.size());
  return mean > 0.0 ? worst / mean : 0.0;
}

void print_report(std::ostream& os, const DpuRunStats& stats,
                  const UpmemConfig& cfg) {
  os << "DPU launch report\n"
     << "  cycles:        " << stats.cycles << " ("
     << cfg.cycles_to_seconds(stats.cycles) * 1e3 << " ms @ "
     << cfg.frequency_hz / 1e6 << " MHz)\n"
     << "  issue slots:   " << stats.total_slots << "\n"
     << "  DMA cycles:    " << stats.total_dma_cycles << " ("
     << stats.total_dma_bytes << " bytes)\n"
     << "  bound:         " << cycle_bound_name(dominant_bound(stats, cfg))
     << "\n"
     << "  imbalance:     " << std::fixed << std::setprecision(2)
     << tasklet_imbalance(stats, cfg) << " (slowest/mean)\n"
     << "  tasklets:\n";
  for (std::size_t t = 0; t < stats.tasklets.size(); ++t) {
    const TaskletStats& ts = stats.tasklets[t];
    os << "    [" << std::setw(2) << t << "] slots=" << std::setw(10)
       << ts.slots << " dma_cycles=" << std::setw(10) << ts.dma_cycles
       << " dma_xfers=" << ts.dma_transfers << "\n";
  }
  if (stats.profile.total() > 0) {
    os << "  subroutines:\n";
    stats.profile.print(os);
  }
  os.flush();
}

HostXferStats& HostXferStats::operator+=(const HostXferStats& o) {
  to_dpu_seconds += o.to_dpu_seconds;
  from_dpu_seconds += o.from_dpu_seconds;
  load_seconds += o.load_seconds;
  bytes_to_dpu += o.bytes_to_dpu;
  bytes_from_dpu += o.bytes_from_dpu;
  program_loads += o.program_loads;
  cached_activations += o.cached_activations;
  return *this;
}

HostXferStats host_xfer_delta(const HostXferStats& after,
                              const HostXferStats& before) {
  HostXferStats d;
  d.to_dpu_seconds = after.to_dpu_seconds - before.to_dpu_seconds;
  d.from_dpu_seconds = after.from_dpu_seconds - before.from_dpu_seconds;
  d.load_seconds = after.load_seconds - before.load_seconds;
  d.bytes_to_dpu = after.bytes_to_dpu - before.bytes_to_dpu;
  d.bytes_from_dpu = after.bytes_from_dpu - before.bytes_from_dpu;
  d.program_loads = after.program_loads - before.program_loads;
  d.cached_activations =
      after.cached_activations - before.cached_activations;
  return d;
}

void print_host_xfer_report(std::ostream& os, const HostXferStats& h) {
  os << "host-side overhead\n"
     << "  to DPUs:       " << std::fixed << std::setprecision(3)
     << h.to_dpu_seconds * 1e3 << " ms (" << h.bytes_to_dpu << " bytes)\n"
     << "  from DPUs:     " << h.from_dpu_seconds * 1e3 << " ms ("
     << h.bytes_from_dpu << " bytes)\n"
     << "  program loads: " << h.program_loads << " ("
     << h.load_seconds * 1e3 << " ms), cache hits: "
     << h.cached_activations << "\n";
  os.flush();
}

} // namespace pimdnn::sim
