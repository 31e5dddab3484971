// Pure helpers of the pimbench benchmark: sample statistics, ratio
// metrics, span self times and the one-line JSON result. Kept free of any
// workload code so pimbench_tests can exercise them directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pimbench {

/// 1-based nearest rank of percentile `p` (0-100] among `n` >= 1 samples:
/// ceil(p% of n), at least 1. The epsilon keeps 99.9% of 10,000 at 9,990.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

/// Value at percentile `p` of `samples` by the nearest-rank rule: the
/// smallest sample with at least p% of the samples at or below it. 0 for
/// an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

/// Samples strictly beyond the nearest rank of percentile `p` in a set of
/// `n` samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// A tail timing: the percentile chosen, its value, and the samples that
/// lie beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
  /// False when no rung of the ladder had the required samples beyond it
  /// and the median stands in for the tail.
  bool qualified = false;
};

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} with at
/// least ten samples beyond it. With fewer than 20 samples no rung
/// qualifies, and the median is reported (`qualified` false), so a short
/// run never pretends to know its tail.
inline Tail tail_percentile(const std::vector<double>& samples) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  static constexpr std::size_t kMinBeyond = 10;
  Tail t;
  for (const double p : kLadder) {
    if (samples_beyond(samples.size(), p) >= kMinBeyond) {
      t.percentile = p;
      t.qualified = true;
      break;
    }
  }
  t.value = percentile(samples, t.percentile);
  t.beyond = samples_beyond(samples.size(), t.percentile);
  return t;
}

/// `num / base`, or 0 when the base is 0 (a ratio over no events).
inline double ratio(double num, double base) {
  return base == 0.0 ? 0.0 : num / base;
}

/// hits / (hits + misses), 0 when neither happened.
inline double hit_ratio(double hits, double misses) {
  return ratio(hits, hits + misses);
}

/// Per-name aggregate of completed spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0; ///< summed span durations
  double self_s = 0.0;  ///< summed durations minus nested same-thread spans
};

/// Aggregates `events` by name. A span's self time is its duration minus
/// the part covered by spans nested inside it on the same thread; spans on
/// other threads (the DPU launch workers) never count as children.
inline std::map<std::string, SpanTotals> span_totals(
    std::vector<pimdnn::obs::TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us; // parents before children
                   });
  std::map<std::string, SpanTotals> out;
  std::vector<double> self_us(events.size());
  std::vector<std::size_t> open; // indices of enclosing spans, innermost last
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (i > 0 && events[i - 1].tid != ev.tid) open.clear();
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (ev.ts_us < top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    self_us[i] = ev.dur_us;
    if (!open.empty()) {
      const auto& parent = events[open.back()];
      const double end = std::min(ev.ts_us + ev.dur_us,
                                  parent.ts_us + parent.dur_us);
      self_us[open.back()] -= std::max(0.0, end - ev.ts_us);
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = out[events[i].name];
    t.count += 1;
    t.total_s += events[i].dur_us * 1e-6;
    t.self_s += std::max(0.0, self_us[i]) * 1e-6;
  }
  return out;
}

/// Numeric value of a span argument (0 when absent or not a number).
inline double span_arg(const pimdnn::obs::TraceEvent& ev, const char* key) {
  for (const auto& [k, v] : ev.args) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  return 0.0;
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values print with 17 significant
/// digits so they read back bit-exact.
inline std::string result_json(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[40];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") +
           pimdnn::obs::json_escape(metrics[i].name) + "\": {\"value\": " +
           num + ", \"unit\": \"" + pimdnn::obs::json_escape(metrics[i].unit) +
           "\"}";
  }
  out += "}}";
  return out;
}

} // namespace pimbench
