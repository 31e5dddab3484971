#include "map/cost.hpp"

#include <algorithm>

#include "pimmodel/model.hpp"
#include "runtime/pipeline.hpp"

namespace pimdnn::map {

CostParams CostParams::upmem() {
  const pimmodel::UpmemModel m;
  CostParams p;
  p.frequency_hz = m.frequency_hz();
  // sizebuf bits moved per t_transfer seconds (Table 5.3).
  p.host_link_bytes_per_second =
      (static_cast<double>(m.sizebuf_bits()) / 8.0) / m.t_transfer_s();
  return p;
}

PredictedBreakdown predict(const CostParams& params,
                           const CandidateTraffic& traffic) {
  PredictedBreakdown out;
  out.kernel_cycles = traffic.kernel_cycles;
  out.to_dpu_seconds = static_cast<double>(traffic.bytes_to_dpu) /
                       params.host_link_bytes_per_second;
  out.kernel_seconds =
      static_cast<double>(traffic.kernel_cycles) / params.frequency_hz;
  out.from_dpu_seconds = static_cast<double>(traffic.bytes_from_dpu) /
                         params.host_link_bytes_per_second;

  // Compose on the same timeline the pipelined executors report against:
  // one item through xfer -> kernel -> xfer on a single bank.
  runtime::PipelineModel model(1);
  model.xfer_stage(0, 0, out.to_dpu_seconds);
  model.dpu_stage(0, 0, out.kernel_seconds);
  model.xfer_stage(0, 0, out.from_dpu_seconds);
  out.makespan_seconds = model.makespan();
  return out;
}

PredictedBreakdown predict_split(const CostParams& params,
                                 const std::vector<CandidateTraffic>& subs) {
  PredictedBreakdown out;
  runtime::PipelineModel model(2);
  for (std::size_t s = 0; s < subs.size(); ++s) {
    const CandidateTraffic& t = subs[s];
    const double to = static_cast<double>(t.bytes_to_dpu) /
                      params.host_link_bytes_per_second;
    const double kernel =
        static_cast<double>(t.kernel_cycles) / params.frequency_hz;
    const double from = static_cast<double>(t.bytes_from_dpu) /
                        params.host_link_bytes_per_second;
    const std::size_t bank = s % 2;
    model.xfer_stage(s, bank, to);
    model.dpu_stage(s, bank, kernel);
    model.xfer_stage(s, bank, from);
    out.to_dpu_seconds += to;
    out.kernel_seconds += kernel;
    out.from_dpu_seconds += from;
    out.kernel_cycles = std::max(out.kernel_cycles, t.kernel_cycles);
  }
  out.makespan_seconds = model.makespan();
  return out;
}

} // namespace pimdnn::map
