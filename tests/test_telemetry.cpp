// obs v2 telemetry tests: the PIMDNN_SLO grammar and rolling window,
// snapshot export (JSON + Prometheus) including under concurrent writers,
// the bench_compare perf-regression harness, and the end-to-end pipelined
// runs (traced and untraced) that carry the model's lane attribution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_compare.hpp"
#include "common/error.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "json_min.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "prom_check.hpp"
#include "runtime/pipeline.hpp"
#include "yolo/detect.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using obs::Metrics;
using obs::SloSpec;
using obs::SloTracker;
using obs::Span;
using obs::Tracer;

/// RAII guard: every test leaves the process-wide telemetry state clean.
struct TelemetryReset {
  TelemetryReset() { clear(); }
  ~TelemetryReset() { clear(); }
  static void clear() {
    Tracer::instance().disable();
    obs::Exporter::instance().start("", 0);
    SloTracker::instance().clear();
    Metrics::instance().reset();
  }
};

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ---- SLO grammar ------------------------------------------------------------

TEST(SloSpecTest, ParsesTargetsAndRoundTrips) {
  const SloSpec spec = SloSpec::parse("p99<8ms,p50<2ms");
  ASSERT_EQ(spec.targets.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.targets[0].quantile, 0.99);
  EXPECT_DOUBLE_EQ(spec.targets[0].threshold_ms, 8.0);
  EXPECT_DOUBLE_EQ(spec.targets[1].quantile, 0.50);
  EXPECT_DOUBLE_EQ(spec.targets[1].threshold_ms, 2.0);

  // Units: us and s normalize to ms; fractional quantiles survive.
  const SloSpec units = SloSpec::parse("p99.9<250us,p95<1s");
  EXPECT_DOUBLE_EQ(units.targets[0].quantile, 0.999);
  EXPECT_DOUBLE_EQ(units.targets[0].threshold_ms, 0.25);
  EXPECT_DOUBLE_EQ(units.targets[1].threshold_ms, 1000.0);

  // to_string round-trips through parse for both specs.
  for (const SloSpec* s : {&spec, &units}) {
    const SloSpec again = SloSpec::parse(s->to_string());
    ASSERT_EQ(again.targets.size(), s->targets.size());
    for (std::size_t i = 0; i < s->targets.size(); ++i) {
      EXPECT_DOUBLE_EQ(again.targets[i].quantile, s->targets[i].quantile);
      EXPECT_DOUBLE_EQ(again.targets[i].threshold_ms,
                       s->targets[i].threshold_ms);
    }
  }
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "p99", "p99<", "<8ms", "q99<8ms", "p0<8ms", "p100<8ms",
        "p-5<8ms", "p99<-8ms", "p99<0ms", "p99<8parsecs", "p99<8ms,",
        "p99<8ms,,p50<2ms", "99<8ms"}) {
    EXPECT_THROW(SloSpec::parse(bad), ConfigError) << "accepted: " << bad;
  }
}

// ---- SLO rolling window -----------------------------------------------------

TEST(SloTrackerTest, WindowedQuantilesBreachesAndExpiry) {
  TelemetryReset guard;
  auto& t = SloTracker::instance();
  t.configure(SloSpec::parse("p99<10ms"), /*window_ms=*/1000,
              /*buckets=*/4);
  ASSERT_TRUE(SloTracker::enabled());

  const std::uint64_t now = 1'000'000;
  for (int i = 0; i < 100; ++i) {
    t.record_at("svc", 5.0, now);
  }
  auto st = t.status_at(now);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].signature, "svc");
  EXPECT_EQ(st[0].samples, 100u);
  EXPECT_EQ(st[0].breaches, 0u);
  EXPECT_LT(st[0].current_ms, 10.0);
  EXPECT_FALSE(st[0].violated);

  // A burst of slow requests: each one over threshold counts a breach,
  // and the windowed p99 crosses the target.
  for (int i = 0; i < 50; ++i) {
    t.record_at("svc", 50.0, now + 100);
  }
  st = t.status_at(now + 100);
  EXPECT_EQ(st[0].samples, 150u);
  EXPECT_EQ(st[0].breaches, 50u);
  EXPECT_GT(st[0].current_ms, 10.0);
  EXPECT_TRUE(st[0].violated);

  // Two window-widths later every bucket expired: the live window is
  // empty and the violation clears (breach totals are cumulative).
  st = t.status_at(now + 3000);
  EXPECT_EQ(st[0].samples, 0u);
  EXPECT_EQ(st[0].breaches, 50u);
  EXPECT_FALSE(st[0].violated);

  // New traffic lands in fresh buckets, untainted by the old burst.
  t.record_at("svc", 1.0, now + 3000);
  st = t.status_at(now + 3000);
  EXPECT_EQ(st[0].samples, 1u);
  EXPECT_FALSE(st[0].violated);
}

TEST(SloTrackerTest, PartialExpiryDropsOldestBucketFirst) {
  TelemetryReset guard;
  auto& t = SloTracker::instance();
  t.configure(SloSpec::parse("p50<10ms"), 1000, 4); // 250ms buckets
  const std::uint64_t now = 2'000'000;
  t.record_at("svc", 100.0, now);       // bucket k
  t.record_at("svc", 1.0, now + 750);   // bucket k+3 (same window)
  auto st = t.status_at(now + 750);
  EXPECT_EQ(st[0].samples, 2u);
  // One bucket-width later the old sample ages out, the new one stays.
  st = t.status_at(now + 1000);
  EXPECT_EQ(st[0].samples, 1u);
  EXPECT_LT(st[0].current_ms, 10.0);
}

TEST(SloTrackerTest, DisabledRecordIsANoOp) {
  TelemetryReset guard;
  EXPECT_FALSE(SloTracker::enabled());
  SloTracker::instance().record("svc", 1.0); // must not create state
  EXPECT_TRUE(SloTracker::instance().status().empty());
  EXPECT_TRUE(SloTracker::instance().spec().targets.empty());
}

TEST(SloTrackerTest, MultiTargetMultiSignature) {
  TelemetryReset guard;
  auto& t = SloTracker::instance();
  t.configure(SloSpec::parse("p99<10ms,p50<2ms"), 1000, 4);
  const std::uint64_t now = 3'000'000;
  t.record_at("a", 1.0, now);
  t.record_at("b", 5.0, now);
  const auto st = t.status_at(now);
  ASSERT_EQ(st.size(), 4u); // 2 signatures x 2 targets
  // "a" (1ms) satisfies both targets; "b" (5ms) breaks only p50<2ms.
  for (const auto& s : st) {
    const bool want_violated =
        s.signature == "b" && s.target.threshold_ms == 2.0;
    EXPECT_EQ(s.violated, want_violated)
        << s.signature << " " << s.target.to_string();
  }
}

// ---- snapshot + exporters ---------------------------------------------------

TEST(SnapshotTest, JsonRoundTripsThroughParser) {
  TelemetryReset guard;
  auto& m = Metrics::instance();
  m.add("test.count", 7);
  for (int i = 1; i <= 10; ++i) m.record("test.lat", i);
  obs::OffloadSample s;
  s.wall_cycles = 1000;
  s.host_seconds = 0.25;
  s.bytes_to_dpu = 2048;
  m.record_offload("conv/3x3\"quoted\"", s);
  SloTracker::instance().configure(SloSpec::parse("p99<10ms"), 1000, 4);
  SloTracker::instance().record("svc", 5.0);

  std::ostringstream os;
  obs::write_snapshot_json(os, obs::snapshot());
  const tools::Json j = tools::parse_json(os.str());
  EXPECT_EQ(j.num_or("schema_version", -1), obs::kSchemaVersion);
  const tools::Json* counters = j.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->num_or("test.count", -1), 7);
  const tools::Json* hist = j.get("histograms");
  ASSERT_NE(hist, nullptr);
  const tools::Json* lat = hist->get("test.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->num_or("count", -1), 10);
  EXPECT_DOUBLE_EQ(lat->num_or("min", -1), 1.0);
  EXPECT_DOUBLE_EQ(lat->num_or("max", -1), 10.0);
  const tools::Json* sigs = j.get("signatures");
  ASSERT_NE(sigs, nullptr);
  ASSERT_EQ(sigs->items.size(), 1u);
  EXPECT_EQ(sigs->items[0].str_or("signature", ""), "conv/3x3\"quoted\"");
  EXPECT_EQ(sigs->items[0].num_or("launches", -1), 1);
  const tools::Json* slos = j.get("slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_EQ(slos->items.size(), 1u);
  EXPECT_EQ(slos->items[0].str_or("signature", ""), "svc");
}

TEST(SnapshotTest, PrometheusExpositionValidates) {
  TelemetryReset guard;
  auto& m = Metrics::instance();
  m.add("pool.resident.hit", 3);
  m.record("offload.latency", 1.5);
  obs::OffloadSample s;
  s.wall_cycles = 500;
  s.bytes_from_dpu = 64;
  m.record_offload("gemm 16x16 \"odd\\name\"\n", s); // needs escaping
  SloTracker::instance().configure(SloSpec::parse("p99<10ms"), 1000, 4);
  SloTracker::instance().record("svc", 20.0); // violated

  std::ostringstream os;
  obs::write_snapshot_prometheus(os, obs::snapshot());
  const std::string text = os.str();
  const tools::PromCheckResult r = tools::prom_check(text);
  for (const auto& e : r.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.samples, 5u);
  EXPECT_NE(text.find("pimdnn_schema_version 1"), std::string::npos);
  EXPECT_NE(text.find("pimdnn_pool_resident_hit_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("pimdnn_slo_violated"), std::string::npos);
  // The escaped signature survives as a quoted label value.
  EXPECT_NE(text.find("\\\"odd\\\\name\\\"\\n"), std::string::npos);
}

TEST(ExporterTest, ManualFlushWritesParseableJson) {
  TelemetryReset guard;
  Metrics::instance().add("flush.me", 11);
  const std::string path = temp_path("snap.json");
  auto& ex = obs::Exporter::instance();
  ex.start(path, 0); // no background thread
  EXPECT_EQ(ex.path(), path);
  ASSERT_TRUE(ex.flush());
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  const tools::Json j = tools::parse_json(buf.str());
  EXPECT_EQ(j.num_or("schema_version", -1), obs::kSchemaVersion);
  EXPECT_EQ(j.get("counters")->num_or("flush.me", -1), 11);
  std::remove(path.c_str());
}

TEST(ExporterTest, BackgroundThreadFlushesAndStopsCleanly) {
  TelemetryReset guard;
  Metrics::instance().add("bg.count", 1);
  const std::string path = temp_path("snap.prom");
  auto& ex = obs::Exporter::instance();
  ex.start(path, 5);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ex.writes() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(ex.writes(), 0u) << "background flusher never wrote";
  ex.stop(); // also writes one final snapshot

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  const tools::PromCheckResult r = tools::prom_check(buf.str());
  for (const auto& e : r.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.ok);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ConsistentUnderConcurrentWriters) {
  TelemetryReset guard;
  SloTracker::instance().configure(SloSpec::parse("p99<10ms"), 1000, 4);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&go, w] {
      while (!go.load()) {}
      auto& m = Metrics::instance();
      for (int i = 0; i < kIters; ++i) {
        m.add("stress.count");
        m.record("stress.lat", (w * kIters + i) % 17 + 1);
        obs::OffloadSample s;
        s.wall_cycles = 100 + i;
        m.record_offload("stress.sig" + std::to_string(w), s);
        SloTracker::instance().record("stress", 5.0);
      }
    });
  }
  go.store(true);
  // Snapshot + serialize continuously while the writers hammer away; the
  // snapshots must be internally parseable every time (no torn state).
  for (int i = 0; i < 50; ++i) {
    const obs::Snapshot snap = obs::snapshot();
    std::ostringstream js;
    obs::write_snapshot_json(js, snap);
    EXPECT_NO_THROW(tools::parse_json(js.str())) << "iteration " << i;
    std::ostringstream prom;
    obs::write_snapshot_prometheus(prom, snap);
    EXPECT_TRUE(tools::prom_check(prom.str()).ok) << "iteration " << i;
  }
  for (auto& t : writers) t.join();

  const obs::Snapshot final_snap = obs::snapshot();
  EXPECT_EQ(final_snap.counters.at("stress.count"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(final_snap.histograms.at("stress.lat").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(final_snap.signatures.at("stress.sig" + std::to_string(w))
                  .launches,
              static_cast<std::uint64_t>(kIters));
  }
}

// ---- bench_compare ----------------------------------------------------------

tools::CompareResult run_compare(const std::string& baseline,
                                 const std::string& fresh) {
  return tools::compare_reports(tools::parse_json(baseline),
                                tools::parse_json(fresh));
}

TEST(BenchCompareTest, PassesWhenWithinTolerances) {
  const auto r = run_compare(
      R"({"schema_version":1,"bench":"b","metrics":[
           {"name":"bit_identical","value":1},
           {"name":"speedup","value":1.9,"min":1.3},
           {"name":"frame_ms","value":100,"tol_rel":0.5},
           {"name":"wall_s","value":4.2,"skip":true}]})",
      R"({"schema_version":1,"bench":"b","metrics":[
           {"name":"bit_identical","value":1,"unit":""},
           {"name":"speedup","value":2.1,"unit":"x"},
           {"name":"frame_ms","value":140,"unit":"ms"},
           {"name":"wall_s","value":9000,"unit":"s"},
           {"name":"brand_new","value":3,"unit":""}]})");
  EXPECT_TRUE(r.ok) << [&] {
    std::ostringstream os;
    tools::print_compare(os, r);
    return os.str();
  }();
  EXPECT_EQ(r.failures(), 0u);
  ASSERT_EQ(r.extra.size(), 1u); // informational, not a failure
  EXPECT_EQ(r.extra[0], "brand_new");
}

TEST(BenchCompareTest, FailsReadablyOnPerturbation) {
  const auto r = run_compare(
      R"({"schema_version":1,"bench":"b","metrics":[
           {"name":"bit_identical","value":1},
           {"name":"speedup","value":1.9,"min":1.3},
           {"name":"frame_ms","value":100,"tol_rel":0.1},
           {"name":"gone","value":5}]})",
      R"({"schema_version":1,"bench":"b","metrics":[
           {"name":"bit_identical","value":0},
           {"name":"speedup","value":1.1},
           {"name":"frame_ms","value":150}]})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failures(), 4u); // exact, min-bound, tolerance, missing
  std::ostringstream os;
  tools::print_compare(os, r);
  const std::string report = os.str();
  EXPECT_NE(report.find("[FAIL] bit_identical"), std::string::npos);
  EXPECT_NE(report.find("[FAIL] speedup"), std::string::npos);
  EXPECT_NE(report.find("[FAIL] frame_ms"), std::string::npos);
  EXPECT_NE(report.find("missing from fresh run"), std::string::npos);
  EXPECT_NE(report.find("bench_compare: FAIL"), std::string::npos);
}

TEST(BenchCompareTest, RefusesSchemaAndBenchMismatch) {
  const auto schema = run_compare(
      R"({"schema_version":1,"bench":"b","metrics":[]})",
      R"({"schema_version":2,"bench":"b","metrics":[]})");
  EXPECT_FALSE(schema.ok);
  EXPECT_NE(schema.error.find("schema_version mismatch"),
            std::string::npos);
  const auto bench = run_compare(
      R"({"schema_version":1,"bench":"a","metrics":[]})",
      R"({"schema_version":1,"bench":"b","metrics":[]})");
  EXPECT_FALSE(bench.ok);
  EXPECT_NE(bench.error.find("bench name mismatch"), std::string::npos);
}

TEST(PromCheckTest, RejectsMalformedExposition) {
  EXPECT_FALSE(tools::prom_check("").ok);
  // Valid samples but no schema_version gauge.
  EXPECT_FALSE(tools::prom_check("pimdnn_x_total 1\n").ok);
  // Bad metric name.
  EXPECT_FALSE(
      tools::prom_check("1bad 1\npimdnn_schema_version 1\n").ok);
  // Unquoted label value.
  EXPECT_FALSE(tools::prom_check(
                   "x{sig=oops} 1\npimdnn_schema_version 1\n")
                   .ok);
  // Non-numeric sample value.
  EXPECT_FALSE(tools::prom_check(
                   "x banana\npimdnn_schema_version 1\n")
                   .ok);
  // And the straightforward valid case.
  EXPECT_TRUE(tools::prom_check("# TYPE x counter\n"
                                "x_total{sig=\"a b\"} 42\n"
                                "pimdnn_schema_version 1\n")
                  .ok);
}

// ---- disabled-path cost -----------------------------------------------------

TEST(DisabledPathTest, NoTelemetryStateWithoutOptIn) {
  TelemetryReset guard;
  ASSERT_FALSE(Tracer::enabled());
  ASSERT_FALSE(SloTracker::enabled());
  {
    Span sp("yolo.layer", "pipeline"); // the span sites' disabled path
    EXPECT_FALSE(sp.active());
  }
  SloTracker::instance().record("svc", 1.0);
  Tracer::instance().enable(temp_path("empty.json"));
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
  EXPECT_TRUE(SloTracker::instance().status().empty());
}

// ---- end-to-end: pipelined runs ---------------------------------------------

/// The attribution of a two-bank pipelined run of `items` items: one lane
/// per resource, one entry per item, and the three identities that tie
/// the lanes and items back to the schedule's totals.
void expect_attribution(const runtime::PipelineStats& s, std::size_t items) {
  EXPECT_EQ(s.items, items);
  ASSERT_EQ(s.per_frame.size(), items);
  ASSERT_EQ(s.lanes.size(), 4u);
  EXPECT_EQ(s.lanes[0].name, "host");
  EXPECT_EQ(s.lanes[1].name, "link");
  EXPECT_EQ(s.lanes[2].name, "bank0");
  EXPECT_EQ(s.lanes[3].name, "bank1");
  EXPECT_FALSE(s.critical_lane.empty());
  EXPECT_GT(s.critical_utilization, 0.0);
  for (const auto& lane : s.lanes) {
    EXPECT_GE(lane.utilization, 0.0) << lane.name;
    EXPECT_LE(lane.utilization, 1.0 + 1e-9) << lane.name;
  }

  // Every stage belongs to one item: the per-item totals sum to the
  // serial time.
  double stages = 0.0;
  for (const auto& f : s.per_frame) {
    EXPECT_GT(f.latency_seconds, 0.0);
    stages += f.host_seconds + f.xfer_seconds + f.dpu_seconds;
  }
  EXPECT_NEAR(stages, s.serial_seconds, 1e-9 * s.serial_seconds);
  // The host lane carries host compute and every transfer.
  EXPECT_EQ(s.lanes[0].busy_seconds, s.host_seconds);
  // The banks carry every transfer and every kernel between them.
  EXPECT_NEAR(s.lanes[2].busy_seconds + s.lanes[3].busy_seconds,
              s.lanes[1].busy_seconds + s.dpu_seconds,
              1e-9 * (s.lanes[1].busy_seconds + s.dpu_seconds));
}

std::vector<std::vector<ebnn::Image>> ebnn_batches(std::size_t n) {
  const auto images =
      ebnn::images_only(ebnn::make_synthetic_mnist(16 * n, 11));
  std::vector<std::vector<ebnn::Image>> batches(n);
  for (std::size_t b = 0; b < n; ++b) {
    batches[b].assign(images.begin() + static_cast<long>(b) * 16,
                      images.begin() + static_cast<long>(b + 1) * 16);
  }
  return batches;
}

TEST(TelemetryEndToEnd, TracedYoloPipelineReportsLaneAttribution) {
  TelemetryReset guard;
  Tracer::instance().enable(temp_path("yolo_e2e.json"));
  SloTracker::instance().configure(SloSpec::parse("p99<60000ms"), 10000,
                                   8);

  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  std::vector<std::vector<std::int16_t>> frames;
  for (int i = 0; i < 4; ++i) {
    frames.push_back(yolo::make_synthetic_image(
        3, 64, 64, 5, 100 + static_cast<unsigned>(i)));
  }
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;
  const auto piped = runner.run_pipelined(frames, opts);
  Tracer::instance().disable();

  // The run's stats carry per-lane utilization and critical-path
  // attribution, and the closing block published the utilizations.
  expect_attribution(piped.pipeline, frames.size());
  auto& m = Metrics::instance();
  EXPECT_GT(m.histogram("timeline.yolo.util.host").count(), 0u);
  EXPECT_GT(m.histogram("timeline.yolo.overlap").count(), 0u);

  // Every frame latency landed in the SLO window under "yolo.frame".
  const auto st = SloTracker::instance().status();
  ASSERT_FALSE(st.empty());
  bool found = false;
  for (const auto& s : st) {
    if (s.signature == "yolo.frame") {
      found = true;
      EXPECT_EQ(s.samples, frames.size());
      EXPECT_FALSE(s.violated); // threshold deliberately generous
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryEndToEnd, TracedEbnnPipelineReportsLaneAttribution) {
  TelemetryReset guard;
  Tracer::instance().enable(temp_path("ebnn_e2e.json"));

  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3);
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  const auto piped = host.run_pipelined(batches, 16);
  Tracer::instance().disable();

  expect_attribution(piped.pipeline, batches.size());
  EXPECT_GT(
      Metrics::instance().histogram("timeline.ebnn.overlap").count(), 0u);
}

TEST(TelemetryEndToEnd, UntracedPipelineCarriesSameAttribution) {
  TelemetryReset guard;
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(2);
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);

  Tracer::instance().enable(temp_path("ebnn_traced.json"));
  const auto traced = host.run_pipelined(batches, 16);
  Tracer::instance().disable();
  Metrics::instance().reset();
  ASSERT_FALSE(Tracer::enabled());
  const auto untraced = host.run_pipelined(batches, 16);

  // The report reads the model, not the trace: an untraced run carries
  // the same lanes and items, and its simulated kernel stages match the
  // traced run's exactly (host stages are measured wall time).
  expect_attribution(untraced.pipeline, batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(untraced.pipeline.per_frame[i].dpu_seconds,
              traced.pipeline.per_frame[i].dpu_seconds)
        << "batch " << i;
  }
  EXPECT_EQ(untraced.pipeline.dpu_seconds, traced.pipeline.dpu_seconds);
  EXPECT_GT(
      Metrics::instance().histogram("timeline.ebnn.overlap").count(), 0u);
}

} // namespace
} // namespace pimdnn
