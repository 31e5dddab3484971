// Tests of pimbench's own logic: tail-percentile selection, ratio metrics
// over a zero base, span self times, the JSON result read back through
// tools/json_min.hpp and bench_compare, and the metric catalog against
// BENCHMARK.json.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_compare.hpp"
#include "catalog.hpp"
#include "json_min.hpp"
#include "report.hpp"

namespace {

using pimbench::Tail;
using pimbench::tail_percentile;
using pimdnn::tools::Json;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v; // n, n-1, ..., 1 (unsorted on purpose)
}

TEST(TailPercentile, PicksHighestRungWithTenBeyond) {
  struct Case {
    std::size_t n;
    double p;
    double rank; ///< nearest rank: ceil(p% of n)
  };
  for (const Case c :
       {Case{20, 50.0, 10}, Case{39, 50.0, 20}, Case{40, 75.0, 30},
        Case{100, 90.0, 90}, Case{199, 90.0, 180}, Case{200, 95.0, 190},
        Case{1000, 99.0, 990}, Case{10000, 99.9, 9990}}) {
    const Tail t = tail_percentile(iota_samples(c.n));
    EXPECT_TRUE(t.qualified) << c.n;
    EXPECT_DOUBLE_EQ(t.percentile, c.p) << c.n;
    EXPECT_GE(t.beyond, 10u) << c.n;
    // Samples are 1..n, so the value is the rank itself.
    EXPECT_DOUBLE_EQ(t.value, c.rank) << c.n;
    EXPECT_EQ(t.beyond, c.n - static_cast<std::size_t>(c.rank)) << c.n;
  }
}

TEST(TailPercentile, SmallSampleCountsFallBackToTheMedian) {
  const Tail empty = tail_percentile({});
  EXPECT_FALSE(empty.qualified);
  EXPECT_EQ(empty.beyond, 0u);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);

  const Tail one = tail_percentile({3.5});
  EXPECT_FALSE(one.qualified);
  EXPECT_DOUBLE_EQ(one.value, 3.5);
  EXPECT_EQ(one.beyond, 0u);

  const Tail five = tail_percentile(iota_samples(5));
  EXPECT_FALSE(five.qualified);
  EXPECT_DOUBLE_EQ(five.percentile, 50.0);
  EXPECT_DOUBLE_EQ(five.value, 3.0);
  EXPECT_EQ(five.beyond, 2u);

  const Tail nineteen = tail_percentile(iota_samples(19));
  EXPECT_FALSE(nineteen.qualified);
  EXPECT_EQ(nineteen.beyond, 9u);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(pimbench::percentile({4, 1, 3, 2}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(pimbench::percentile({4, 1, 3, 2}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(pimbench::percentile({4, 1, 3, 2}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(pimbench::percentile({}, 50.0), 0.0);
}

TEST(Ratio, ZeroBaseReadsZero) {
  EXPECT_DOUBLE_EQ(pimbench::ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(pimbench::ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(pimbench::ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(pimbench::hit_ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(pimbench::hit_ratio(3.0, 1.0), 0.75);
  EXPECT_DOUBLE_EQ(pimbench::hit_ratio(0.0, 5.0), 0.0);
}

pimdnn::obs::TraceEvent ev(const char* name, std::uint32_t tid, double ts,
                           double dur) {
  pimdnn::obs::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.ts_us = ts;
  e.dur_us = dur;
  return e;
}

TEST(SpanTotals, SelfTimeSubtractsSameThreadChildrenOnly) {
  const auto totals = pimbench::span_totals({
      ev("child", 0, 10, 30),
      ev("parent", 0, 0, 100),
      ev("grandchild", 0, 20, 10),
      ev("sibling", 0, 60, 20),
      ev("worker", 1, 0, 50), // another thread: never a child
  });
  EXPECT_NEAR(totals.at("parent").self_s, 50e-6, 1e-12);
  EXPECT_NEAR(totals.at("parent").total_s, 100e-6, 1e-12);
  EXPECT_NEAR(totals.at("child").self_s, 20e-6, 1e-12);
  EXPECT_NEAR(totals.at("grandchild").self_s, 10e-6, 1e-12);
  EXPECT_NEAR(totals.at("sibling").self_s, 20e-6, 1e-12);
  EXPECT_NEAR(totals.at("worker").self_s, 50e-6, 1e-12);
  EXPECT_EQ(totals.at("parent").count, 1u);
}

TEST(SpanArg, ReadsNumbersAndDefaultsToZero) {
  pimdnn::obs::TraceEvent e;
  e.args = {{"cycles", "12345"}, {"ratio", "0.25"}, {"program", "\"x\""}};
  EXPECT_DOUBLE_EQ(pimbench::span_arg(e, "cycles"), 12345.0);
  EXPECT_DOUBLE_EQ(pimbench::span_arg(e, "ratio"), 0.25);
  EXPECT_DOUBLE_EQ(pimbench::span_arg(e, "missing"), 0.0);
}

TEST(ResultJson, RoundTripsThroughJsonMinAndBenchCompare) {
  const std::vector<pimbench::Metric> metrics = {
      {"host_p50_s", 1.0 / 3.0, "s"},
      {"device_s_per_item", 1.4771428571428571e-06, "sim_s"},
      {"sim_items_per_s", 12345.678901234567, "items/s"},
      {"obs.trace_dropped", 0.0, "count"},
  };
  const std::string line = pimbench::result_json(true, 40960, 0, metrics);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const Json j = pimdnn::tools::parse_json(line);
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.fields.size(), 4u);
  EXPECT_TRUE(j.bool_or("correct", false));
  EXPECT_EQ(j.num_or("attempted", -1), 40960.0);
  EXPECT_EQ(j.num_or("failed", -1), 0.0);
  const Json* m = j.get("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->fields.size(), metrics.size());
  for (const pimbench::Metric& want : metrics) {
    const Json* got = m->get(want.name);
    ASSERT_NE(got, nullptr) << want.name;
    EXPECT_EQ(got->fields.size(), 2u);
    EXPECT_EQ(got->num_or("value", -1), want.value) << want.name; // bit-exact
    EXPECT_EQ(got->str_or("unit", ""), want.unit);
  }

  // The same values in bench_compare's report shape compare exact against
  // themselves and flag a changed value.
  const auto report = [&](double scale) {
    Json r;
    r.kind = Json::Kind::Object;
    r.fields["schema_version"].kind = Json::Kind::Number;
    r.fields["schema_version"].number = 1;
    r.fields["bench"].kind = Json::Kind::String;
    r.fields["bench"].text = "pimbench";
    Json& list = r.fields["metrics"];
    list.kind = Json::Kind::Array;
    for (const auto& [name, v] : m->fields) {
      Json e;
      e.kind = Json::Kind::Object;
      e.fields["name"].kind = Json::Kind::String;
      e.fields["name"].text = name;
      e.fields["value"].kind = Json::Kind::Number;
      e.fields["value"].number = v.num_or("value", 0) * scale;
      list.items.push_back(e);
    }
    return r;
  };
  const auto same = pimdnn::tools::compare_reports(report(1.0), report(1.0));
  EXPECT_TRUE(same.ok) << same.error;
  EXPECT_EQ(same.metrics.size(), metrics.size());
  const auto moved = pimdnn::tools::compare_reports(report(1.0), report(1.5));
  EXPECT_FALSE(moved.ok);
}

TEST(ResultJson, NonFiniteValuesPrintAsZero) {
  const Json j = pimdnn::tools::parse_json(pimbench::result_json(
      false, 1, 1, {{"x", std::nan(""), "s"}, {"y", HUGE_VAL, "s"}}));
  EXPECT_FALSE(j.bool_or("correct", true));
  EXPECT_EQ(j.get("metrics")->get("x")->num_or("value", -1), 0.0);
  EXPECT_EQ(j.get("metrics")->get("y")->num_or("value", -1), 0.0);
}

template <std::size_t N>
void expect_matches(const Json* list, const pimbench::MetricSpec (&specs)[N],
                    bool bounded) {
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    const Json& e = list->items[i];
    EXPECT_EQ(e.str_or("name", ""), specs[i].name);
    EXPECT_EQ(e.str_or("unit", ""), specs[i].unit) << specs[i].name;
    EXPECT_EQ(e.str_or("better", ""), specs[i].better) << specs[i].name;
    EXPECT_EQ(e.get("bound") != nullptr, bounded) << specs[i].name;
  }
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PIMBENCH_JSON);
  ASSERT_TRUE(in) << PIMBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const Json j = pimdnn::tools::parse_json(ss.str());
  expect_matches(j.get("end_to_end"), pimbench::kEndToEnd, true);
  expect_matches(j.get("per_layer"), pimbench::kPerLayer, false);
  const Json* workloads = j.get("workloads");
  ASSERT_NE(workloads, nullptr);
  std::vector<std::string> names;
  for (const Json& w : workloads->items) names.push_back(w.str_or("name", ""));
  EXPECT_EQ(names, (std::vector<std::string>{"ebnn_paper_scale",
                                             "yolo_lite_stream",
                                             "yolo_tiny_frame",
                                             "yolo_lite_faulty"}));
}

} // namespace
