#include "runtime/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pimdnn::runtime {

PipelineModel::PipelineModel(unsigned n_banks)
    : lanes_(1 + static_cast<std::size_t>(n_banks)) {
  require(n_banks >= 1, "PipelineModel needs at least one bank");
}

PipelineModel::Item& PipelineModel::item_at(std::size_t item) {
  if (item >= items_.size()) {
    const std::size_t old = items_.size();
    items_.resize(item + 1);
    // Two-in-flight floor: the executors start item i only after item i-2
    // finished, and they report items in order, so items_[i - 2] is final
    // by the time item i first appears.
    for (std::size_t i = std::max<std::size_t>(old, 2); i <= item; ++i) {
      items_[i].ready = items_[i - 2].ready;
    }
  }
  return items_[item];
}

Seconds PipelineModel::earliest_fit(const unsigned* lanes,
                                    std::size_t n_lanes, Seconds earliest,
                                    Seconds duration) const {
  Seconds t = earliest;
  // Slide the window right past every conflicting interval until a pass
  // over all lanes moves nothing; terminates because each move lands on
  // the end of one of finitely many intervals.
  bool moved = true;
  while (moved) {
    moved = false;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      for (const Busy& b : lanes_[lanes[l]]) {
        if (b.start >= t + duration) {
          break; // sorted: later intervals cannot conflict either
        }
        if (b.end > t) {
          t = b.end;
          moved = true;
        }
      }
    }
  }
  return t;
}

void PipelineModel::occupy(unsigned lane, Seconds start, Seconds end) {
  auto& v = lanes_[lane];
  v.insert(std::upper_bound(v.begin(), v.end(), start,
                            [](Seconds s, const Busy& b) {
                              return s < b.start;
                            }),
           Busy{start, end});
}

void PipelineModel::book(std::size_t item, Kind kind, unsigned bank,
                         Seconds duration) {
  require(1 + bank < lanes_.size(), "PipelineModel: bank out of range");
  std::lock_guard<std::mutex> lk(mu_);
  Item& it = item_at(item);
  switch (kind) {
    case Kind::Host:
      it.host += duration;
      break;
    case Kind::Xfer:
      it.xfer += duration;
      break;
    case Kind::Dpu:
      it.dpu += duration;
      break;
  }
  Seconds start = it.ready;
  if (duration > 0.0) {
    unsigned lanes[2];
    std::size_t n = 0;
    if (kind != Kind::Dpu) {
      lanes[n++] = 0;
    }
    if (kind != Kind::Host) {
      lanes[n++] = 1 + bank;
    }
    start = earliest_fit(lanes, n, it.ready, duration);
    for (std::size_t l = 0; l < n; ++l) {
      occupy(lanes[l], start, start + duration);
    }
    it.ready = start + duration;
    makespan_ = std::max(makespan_, it.ready);
  }
  if (it.first_start < 0.0) {
    it.first_start = start;
  }
}

void PipelineModel::host_stage(std::size_t item, Seconds duration) {
  book(item, Kind::Host, 0, duration);
}

void PipelineModel::xfer_stage(std::size_t item, unsigned bank,
                               Seconds duration) {
  book(item, Kind::Xfer, bank, duration);
}

void PipelineModel::dpu_stage(std::size_t item, unsigned bank,
                              Seconds duration) {
  book(item, Kind::Dpu, bank, duration);
}

Seconds PipelineModel::makespan() const {
  std::lock_guard<std::mutex> lk(mu_);
  return makespan_;
}

PipelineStats PipelineModel::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  PipelineStats s;
  s.items = items_.size();
  s.makespan_seconds = makespan_;

  // Totals add the per-item totals in item order, so they do not depend
  // on the order in which concurrent threads booked the stages.
  Seconds host_compute = 0.0;
  Seconds link = 0.0;
  s.per_frame.reserve(items_.size());
  for (const Item& it : items_) {
    FrameUsage f;
    f.host_seconds = it.host;
    f.xfer_seconds = it.xfer;
    f.dpu_seconds = it.dpu;
    f.latency_seconds = it.first_start >= 0.0 ? it.ready - it.first_start
                                              : 0.0;
    s.per_frame.push_back(f);
    host_compute += it.host;
    link += it.xfer;
    s.dpu_seconds += it.dpu;
    s.serial_seconds += it.host + it.xfer + it.dpu;
  }
  s.host_seconds = host_compute + link;

  const auto lane = [span = makespan_](std::string name, Seconds busy) {
    return LaneUsage{std::move(name), busy, span > 0.0 ? busy / span : 0.0};
  };
  s.lanes.push_back(lane("host", s.host_seconds));
  s.lanes.push_back(lane("link", link));
  // The bound is the busiest of the schedule's real resources: the host
  // lane against each bank (its transfers and kernels, as booked).
  Seconds best = s.host_seconds;
  Seconds second = 0.0;
  s.critical_lane = "host";
  for (std::size_t b = 0; b + 1 < lanes_.size(); ++b) {
    Seconds busy = 0.0;
    for (const Busy& iv : lanes_[1 + b]) {
      busy += iv.end - iv.start;
    }
    std::string name = "bank" + std::to_string(b);
    if (busy > best) {
      second = best;
      best = busy;
      s.critical_lane = name;
    } else {
      second = std::max(second, busy);
    }
    s.lanes.push_back(lane(std::move(name), busy));
  }
  if (s.critical_lane == "host" && link > host_compute) {
    s.critical_lane = "link";
  }
  s.critical_utilization = makespan_ > 0.0 ? best / makespan_ : 0.0;
  s.critical_margin_seconds = best - second;
  return s;
}

} // namespace pimdnn::runtime
