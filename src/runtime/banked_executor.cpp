#include "runtime/banked_executor.hpp"

#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace pimdnn::runtime {

std::vector<SplitRange> split_ranges(std::size_t total_units,
                                     std::uint32_t split) {
  std::vector<SplitRange> out;
  if (total_units == 0) {
    return out;
  }
  const std::size_t k =
      std::max<std::size_t>(1, std::min<std::size_t>(split, total_units));
  const std::size_t base = total_units / k;
  const std::size_t extra = total_units % k;
  std::size_t first = 0;
  for (std::size_t s = 0; s < k; ++s) {
    SplitRange r;
    r.first_unit = first;
    r.n_units = base + (s < extra ? 1 : 0);
    first += r.n_units;
    out.push_back(r);
  }
  return out;
}

void run_jobs(std::size_t n_jobs, const Planner& plan,
              const std::function<DpuPool&(unsigned)>& bank_pool,
              PipelineModel* model, std::size_t item0, unsigned lane0) {
  /// One ring slot: the chunk, its planned job and its started launch.
  struct Slot {
    Chunk chunk;
    const Job* job;
    Started started;
    void wait() { started.handle.wait(); }
  };
  // Jobs in flight must stay put while the ring holds their chunks.
  std::vector<Job> jobs(n_jobs);
  std::vector<LaunchStats::BankWalls> walls(n_jobs);
  std::size_t launch = 0;
  InFlightRing<Slot> ring;
  const auto finish = [](Slot& s) { s.job->finish(s.chunk, s.started); };
  for (std::size_t j = 0; j < n_jobs; ++j) {
    std::vector<SplitRange> ranges;
    std::size_t s = 0;
    do {
      ring.push(
          [&]() -> Slot {
            DpuPool& pool = bank_pool(static_cast<unsigned>(launch % 2));
            if (s == 0) {
              jobs[j] = plan(j, pool, n_jobs == 1);
              ranges = split_ranges(jobs[j].units, jobs[j].split);
              require(!ranges.empty(), "run_jobs: a job needs DPU groups");
            }
            Chunk c{pool,
                    static_cast<unsigned>((lane0 + launch) % 2),
                    s,
                    ranges.size(),
                    ranges[s],
                    item0 + launch,
                    model,
                    &walls[j]};
            Started started = jobs[j].start(c);
            return Slot{c, &jobs[j], std::move(started)};
          },
          finish);
      ++launch;
      ++s;
    } while (s < ranges.size());
  }
  ring.drain(finish);
}

PipelineRun::PipelineRun(const char* name, const char* count_key,
                         std::size_t n)
    : name_(name),
      n_(n),
      span_((std::string(name) + ".pipeline").c_str(), "pipeline"),
      model_(2) {
  if (span_.active()) {
    span_.u64(count_key, n);
  }
}

PipelineStats PipelineRun::close(
    const char* slo_series,
    const std::function<double(std::size_t)>& latency_ms) {
  const PipelineStats stats = model_.stats();
  if (span_.active()) {
    span_.f64("makespan_ms", stats.makespan_seconds * 1e3);
    span_.f64("serial_ms", stats.serial_seconds * 1e3);
    span_.f64("speedup", stats.speedup());
  }
  auto& m = obs::Metrics::instance();
  const std::string prefix = std::string("timeline.") + name_;
  for (const LaneUsage& lane : stats.lanes) {
    m.record(prefix + ".util." + lane.name, lane.utilization);
  }
  m.record(prefix + ".overlap", stats.overlap_efficiency());
  if (obs::SloTracker::enabled()) {
    for (std::size_t i = 0; i < n_; ++i) {
      obs::SloTracker::instance().record(slo_series, latency_ms(i));
    }
  }
  return stats;
}

BankedExecutor::BankedExecutor(const UpmemConfig& sys)
    : sys_(sys), bank0_(sys) {}

DpuPool& BankedExecutor::pool(unsigned bank) {
  if (bank == 0) {
    return bank0_;
  }
  if (!bank1_.has_value()) {
    bank1_.emplace(sys_);
    bank1_->set_obs_bank(1);
  }
  return *bank1_;
}

const DpuPool* BankedExecutor::find(unsigned bank) const {
  if (bank == 0) {
    return &bank0_;
  }
  return bank1_.has_value() ? &*bank1_ : nullptr;
}

sim::HostXferStats BankedExecutor::host_stats() const {
  sim::HostXferStats out = bank0_.host_stats();
  if (bank1_.has_value()) {
    out += bank1_->host_stats();
  }
  return out;
}

void BankedExecutor::run(std::size_t n_jobs, const Planner& plan,
                         PipelineModel* model) {
  run_jobs(n_jobs, plan, [this](unsigned b) -> DpuPool& { return pool(b); },
           model);
}

} // namespace pimdnn::runtime
