// pimbench — the repository benchmark.
//
//   pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-file <path>]
//
// Runs one fixed, seeded workload through the public APIs of
// ebnn::EbnnHost and yolo::YoloRunner, checks every output against the CPU
// golden model, and prints every metric with its unit and clock (see
// catalog.hpp), ending with one JSON line. It measures each layer from
// outside: it times its own calls, reads the stats the layers return
// (LaunchStats, HostXferStats, PipelineStats, YoloRunResult,
// EbnnBatchResult), the obs::Metrics counters, and — with --trace 1 — the
// obs::Tracer spans the program already emits.
//
// A run: compute the golden outputs; set up kSetups times (construct the
// host/runner, then its cold first call) and keep the last one; then call
// it until at least `min_calls` calls ran and --seconds of call time was
// measured. With --trace 1 the calls alternate untraced and traced, and the
// per-layer metrics come from the traced ones. Sim-clock metrics read the
// first `min_calls` calls only, so they repeat exactly for a seed however
// many calls a run fits.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog.hpp"
#include "common/concurrency.hpp"
#include "common/sim_mode.hpp"
#include "ebnn/dpu_kernel.hpp"
#include "ebnn/host.hpp"
#include "ebnn/lut.hpp"
#include "ebnn/mnist_synth.hpp"
#include "map/mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "sim/fault.hpp"
#include "yolo/detect.hpp"
#include "yolo/network.hpp"

namespace pimbench {
namespace {

using namespace pimdnn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Constructions + cold calls per run; setup_s is their median.
constexpr int kSetups = 5;
/// A run stops calling after this much wall time whatever --seconds says,
/// so it always ends well within its time limit.
constexpr double kWallCapSeconds = 120.0;

/// Returns the memory a dropped host or runner freed to the OS, so each
/// setup starts from the same resident set and peak_rss_mb does not depend
/// on which allocator arenas the previous one left holding pages.
void release_freed_memory() { malloc_trim(0); }

/// splitmix64 finalizer: independent sub-seeds from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Seeds {
  std::uint64_t images, weights;
};

Seeds derive_seeds(std::uint64_t seed) {
  return {mix(seed * 2 + 1), mix(seed * 2 + 2)};
}

/// The fault plan is part of the yolo_lite_faulty workload, not of its
/// inputs: a seed changes the frames and weights, never the fault sequence.
/// (With a seed-derived plan at launch=0.005, the fault layout alone moved
/// host_p50_s by 15% and the share of frames served on the DPUs between
/// 0.38 and 0.75 across five seeds on a 4-core VM.)
constexpr std::uint64_t kFaultSeed = 0x5eed;

/// Span-derived numbers of one traced call.
struct TraceSummary {
  std::map<std::string, SpanTotals> spans;
  double dpu_cycles = 0.0;     ///< Σ dpu.launch cycles (every DPU run)
  double dma_bytes = 0.0;      ///< Σ dpu.launch dma_bytes
  double reserved_cycles = 0.0; ///< Σ offload wall cycles x DPUs held
  double offloads = 0.0;       ///< offloads that ran on the DPUs
  double offload_dpus = 0.0;   ///< Σ DPUs over those offloads
  double pred_err_sum = 0.0;   ///< Σ |executed - predicted| / predicted
  double pred_count = 0.0;

  /// Totals of the spans named `name` (zeros when none ran).
  SpanTotals span(const char* name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  }
};

TraceSummary summarize(const std::vector<obs::TraceEvent>& events) {
  TraceSummary t;
  t.spans = span_totals(events);
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "dpu.launch") {
      t.dpu_cycles += span_arg(ev, "cycles");
      t.dma_bytes += span_arg(ev, "dma_bytes");
    } else if (ev.name == "offload") {
      const double cycles = span_arg(ev, "cycles");
      if (cycles > 0) {
        const double dpus = span_arg(ev, "n_dpus");
        t.reserved_cycles += cycles * dpus;
        t.offloads += 1;
        t.offload_dpus += dpus;
      }
    } else if (ev.name == "launch") {
      const double pred = span_arg(ev, "pred_cycles");
      const double cycles = span_arg(ev, "cycles");
      if (pred > 0 && cycles > 0) {
        t.pred_err_sum += std::abs(cycles - pred) / pred;
        t.pred_count += 1;
      }
    }
  }
  return t;
}

/// What one public call did, as the benchmark measured and read it.
struct CallRecord {
  std::size_t items = 0;
  double host_s = 0.0;          ///< bench-timed wall of the public call
  Cycles device_cycles = 0;     ///< Σ launch wall cycles
  double modeled_s = 0.0;       ///< makespan (frame wall when synchronous)
  double serial_s = 0.0;        ///< the same stages laid end to end
  double host_lane_s = 0.0;
  double dpu_lane_s = 0.0;
  double predicted_s = 0.0;     ///< the mapper's predicted makespan
  double host_compute_s = 0.0;  ///< YOLO im2col, bias+leaky, non-conv
  double host_tail_s = 0.0;     ///< eBNN FC + softmax tail
  double split_units = 0.0;     ///< launches (plans) with split > 1
  double plan_units = 0.0;      ///< launches (plans) considered
  /// layer_plans reads the benchmark made inside the call's counter
  /// window; each leaves one extra map.plan.hit (see observed_call).
  std::uint64_t plan_reads = 0;
  std::size_t fallback_items = 0;
  std::size_t mismatched_items = 0;
  double verify_s = 0.0;
  sim::HostXferStats xfer;
  std::map<std::string, std::uint64_t> counters; ///< obs counter deltas
  double faults_absorbed = 0.0;
  double offloads = 0.0;
  std::optional<TraceSummary> trace;

  double counter(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double item_count() const { return static_cast<double>(items); }
};

/// One benchmark workload: fixed inputs derived from the seed, one host or
/// runner, and one kind of public call.
class Workload {
public:
  virtual ~Workload() = default;
  /// Calls a run always makes, and over which sim-clock metrics read.
  virtual std::size_t min_calls() const = 0;
  /// Human description of the inputs.
  virtual std::string describe() const = 0;
  /// Computes the CPU golden outputs of every input.
  virtual void compute_golden() = 0;
  /// Drops the current host/runner and returns its memory to the OS.
  virtual void teardown() = 0;
  /// Constructs a fresh host/runner (after teardown()).
  virtual void construct() = 0;
  /// Times the mapper's plan for one call on a throwaway planning context
  /// (so the host's own plan memo stays untouched).
  virtual double time_plan() = 0;
  /// One public call, timed alone, then checked against the golden model.
  virtual CallRecord call() = 0;
};

// ---- eBNN -------------------------------------------------------------------

/// ebnn_paper_scale: 4 x 10,240 synthetic MNIST images (2,560 DPUs x 16
/// images) per EbnnHost::run_pipelined call, LUT BN, packed-row conv.
class EbnnPaperScale final : public Workload {
public:
  explicit EbnnPaperScale(const Seeds& seeds)
      : weights_(ebnn::EbnnWeights::random(cfg_, seeds.weights)) {
    const std::vector<ebnn::Image> all =
        ebnn::images_only(ebnn::make_synthetic_mnist(
            kBatches * kBatchImages, seeds.images));
    for (std::size_t b = 0; b < kBatches; ++b) {
      batches_.emplace_back(all.begin() + b * kBatchImages,
                            all.begin() + (b + 1) * kBatchImages);
    }
  }

  std::size_t min_calls() const override { return 3; }

  std::string describe() const override {
    return std::to_string(kBatches) + " x " + std::to_string(kBatchImages) +
           " 28x28 images per run_pipelined call, 16 filters, HostLut, "
           "PackedRows";
  }

  void compute_golden() override {
    const ebnn::EbnnReference ref(cfg_, weights_);
    const std::size_t words = feature_words();
    const std::size_t n = kBatches * kBatchImages;
    golden_pred_.assign(n, -1);
    golden_bits_.assign(n * words, 0);
    // The reference is pure, so its 40,960 inferences split across the
    // host's cores; each worker writes only its own images' slots.
    const unsigned workers = pimdnn::hardware_threads();
    std::vector<std::jthread> pool; // joins on every exit path
    for (unsigned t = 0; t < workers; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t idx = t; idx < n; idx += workers) {
          const ebnn::EbnnActivations a = ref.infer(
              batches_[idx / kBatchImages][idx % kBatchImages].data());
          golden_pred_[idx] = a.predicted;
          std::uint64_t* bits = golden_bits_.data() + idx * words;
          for (std::size_t j = 0; j < a.feature.size(); ++j) {
            if (a.feature[j] != 0) bits[j / 64] |= 1ull << (j % 64);
          }
        }
      });
    }
    pool.clear();
  }

  void teardown() override {
    host_.reset();
    release_freed_memory();
  }

  void construct() override {
    host_ = std::make_unique<ebnn::EbnnHost>(
        cfg_, weights_, ebnn::BnMode::HostLut, sim::default_config(),
        ebnn::ConvKernel::PackedRows);
  }

  double time_plan() override {
    // The request EbnnHost builds for one batch of a multi-batch
    // run_pipelined call (no split: the batches already overlap).
    const ebnn::EbnnLayout layout = ebnn::ebnn_layout(cfg_);
    const ebnn::BnBinactLut lut =
        ebnn::build_bn_binact_lut(cfg_, weights_.bn);
    map::BatchRequest req;
    req.n_items = kBatchImages;
    req.capacity = layout.max_images;
    req.kernel_cycles = [this](std::uint32_t items, std::uint32_t t) {
      return ebnn::estimate_ebnn_wall_cycles(
          cfg_, ebnn::BnMode::HostLut, ebnn::ConvKernel::PackedRows, items,
          t, sim::OptLevel::O3);
    };
    req.item_in_bytes = layout.image_stride;
    req.item_out_bytes = layout.result_stride;
    req.const_bytes_per_dpu =
        weights_.conv_bits.size() * sizeof(std::uint32_t) + lut.table.size();
    const auto t0 = Clock::now();
    const map::MappingPlan plan = map::Mapper().plan_batch(req);
    const double s = seconds_since(t0);
    predicted_s_ = plan.predicted.makespan_seconds * kBatches;
    return s;
  }

  CallRecord call() override {
    CallRecord r;
    const auto t0 = Clock::now();
    ebnn::EbnnPipelineResult res;
    {
      obs::Span sp("bench.call", "bench");
      res = host_->run_pipelined(batches_);
    }
    r.host_s = seconds_since(t0);

    const auto v0 = Clock::now();
    const std::size_t words = feature_words();
    for (std::size_t b = 0; b < kBatches; ++b) {
      const ebnn::EbnnBatchResult& br = res.batches[b];
      r.items += batches_[b].size();
      r.device_cycles += br.launch.wall_cycles;
      r.xfer += br.launch.host;
      r.host_tail_s += br.host_tail_seconds;
      r.plan_units += 1;
      r.split_units += br.split > 1 ? 1 : 0;
      if (br.launch.cpu_fallback) r.fallback_items += batches_[b].size();
      for (std::size_t i = 0; i < batches_[b].size(); ++i) {
        const std::size_t idx = b * kBatchImages + i;
        bool ok = i < br.predicted.size() && i < br.features.size() &&
                  br.predicted[i] == golden_pred_[idx] &&
                  br.features[i].size() ==
                      static_cast<std::size_t>(cfg_.feature_bits());
        const std::uint64_t* bits = golden_bits_.data() + idx * words;
        for (std::size_t j = 0; ok && j < br.features[i].size(); ++j) {
          const bool want = ((bits[j / 64] >> (j % 64)) & 1) != 0;
          ok = (br.features[i][j] != 0) == want;
        }
        r.mismatched_items += ok ? 0 : 1;
      }
    }
    r.modeled_s = res.pipeline.makespan_seconds;
    r.serial_s = res.pipeline.serial_seconds;
    r.host_lane_s = res.pipeline.host_seconds;
    r.dpu_lane_s = res.pipeline.dpu_seconds;
    r.predicted_s = predicted_s_;
    r.verify_s = seconds_since(v0);
    return r;
  }

private:
  static constexpr std::size_t kBatches = 4;
  static constexpr std::size_t kBatchImages = 10240;

  std::size_t feature_words() const {
    return (static_cast<std::size_t>(cfg_.feature_bits()) + 63) / 64;
  }

  ebnn::EbnnConfig cfg_;
  ebnn::EbnnWeights weights_;
  std::vector<std::vector<ebnn::Image>> batches_;
  std::vector<int> golden_pred_;
  std::vector<std::uint64_t> golden_bits_;
  std::unique_ptr<ebnn::EbnnHost> host_;
  double predicted_s_ = 0.0;
};

// ---- YOLO -------------------------------------------------------------------

/// The three YOLO workloads: a network, an input size, the frames of one
/// call, how they are called, and an optional fault plan.
struct YoloSpec {
  std::vector<yolo::LayerDef> defs;
  int size = 0;
  std::size_t frames_per_call = 1;
  /// Distinct frames cycled through (each call takes the next ones).
  std::size_t distinct_frames = 1;
  bool pipelined = true;
  std::optional<sim::FaultConfig> faults;
  std::size_t min_calls = 3;
  std::string label;
};

class YoloWorkload final : public Workload {
public:
  YoloWorkload(YoloSpec spec, const Seeds& seeds)
      : spec_(std::move(spec)),
        weights_(yolo::YoloWeights::random(spec_.defs, 3, seeds.weights)) {
    for (std::size_t f = 0; f < spec_.distinct_frames; ++f) {
      frames_.push_back(yolo::make_synthetic_image(
          3, spec_.size, spec_.size, kFracBits, mix(seeds.images + f)));
    }
    opts_.mode = yolo::ExecMode::DpuWram;
    opts_.retain_all_outputs = false; // keep the YOLO heads and the output
  }

  std::size_t min_calls() const override { return spec_.min_calls; }

  std::string describe() const override { return spec_.label; }

  void compute_golden() override {
    yolo::YoloRunner cpu(spec_.defs, weights_, 3, spec_.size, spec_.size);
    yolo::RunOptions opts = opts_;
    opts.mode = yolo::ExecMode::Cpu;
    golden_.clear();
    for (const auto& f : frames_) {
      golden_.push_back(cpu.run(f, opts).outputs);
    }
  }

  void teardown() override {
    runner_.reset();
    release_freed_memory();
  }

  void construct() override {
    if (spec_.faults.has_value()) {
      // Reinstalling the plan resets its draw ordinals, so every setup —
      // and the calls after the last one — sees the same fault sequence.
      sim::set_fault_config(*spec_.faults);
    }
    runner_ = std::make_unique<yolo::YoloRunner>(spec_.defs, weights_, 3,
                                                 spec_.size, spec_.size);
    next_frame_ = 0;
  }

  double time_plan() override {
    const yolo::YoloRunner probe(spec_.defs, weights_, 3, spec_.size,
                                 spec_.size);
    const auto t0 = Clock::now();
    probe.layer_plans(opts_, max_split());
    return seconds_since(t0);
  }

  CallRecord call() override {
    std::vector<std::vector<std::int16_t>> batch;
    std::vector<std::size_t> ids;
    for (std::size_t f = 0; f < spec_.frames_per_call; ++f) {
      ids.push_back(next_frame_);
      batch.push_back(frames_[next_frame_]);
      next_frame_ = (next_frame_ + 1) % frames_.size();
    }
    obs::Metrics& m = obs::Metrics::instance();
    const std::uint64_t fallbacks0 = m.counter("offload.fallback");

    CallRecord r;
    const auto t0 = Clock::now();
    // The plans this call executes: run and run_pipelined both resolve
    // them once, at their start, under the runner's current capacity,
    // which this read sees too (quarantines included). The call's own
    // resolve then hits the memo this read filled; the read sits inside
    // the timer so a re-plan still counts in the call's host time.
    const std::vector<map::MappingPlan> plans =
        runner_->layer_plans(opts_, max_split());
    r.plan_reads = 1;

    std::vector<yolo::YoloRunResult> frames;
    if (spec_.pipelined) {
      yolo::YoloPipelineResult res;
      {
        obs::Span sp("bench.call", "bench");
        res = runner_->run_pipelined(batch, opts_);
      }
      r.host_s = seconds_since(t0);
      r.modeled_s = res.pipeline.makespan_seconds;
      r.serial_s = res.pipeline.serial_seconds;
      r.host_lane_s = res.pipeline.host_seconds;
      r.dpu_lane_s = res.pipeline.dpu_seconds;
      frames = std::move(res.frames);
    } else {
      yolo::YoloRunResult res;
      {
        obs::Span sp("bench.call", "bench");
        res = runner_->run(batch[0], opts_);
      }
      r.host_s = seconds_since(t0);
      r.modeled_s = res.frame_wall_seconds();
      r.serial_s = r.modeled_s;
      r.host_lane_s = res.host.host_seconds() + res.host_compute_seconds;
      r.dpu_lane_s = res.total_seconds;
      frames.push_back(std::move(res));
    }

    const auto v0 = Clock::now();
    // The runner reports fallbacks only as a counter: a call with any
    // fallback counts all of its frames.
    const bool fell_back = m.counter("offload.fallback") > fallbacks0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const yolo::YoloRunResult& fr = frames[f];
      r.items += 1;
      r.device_cycles += fr.total_cycles;
      r.xfer += fr.host;
      r.host_compute_s += fr.host_compute_seconds;
      r.fallback_items += fell_back ? 1 : 0;
      r.mismatched_items += fr.outputs == golden_[ids[f]] ? 0 : 1;
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (spec_.defs[i].type != yolo::LayerType::Convolutional) continue;
      const double n = static_cast<double>(frames.size());
      r.plan_units += n;
      r.split_units += plans[i].split > 1 ? n : 0.0;
      r.predicted_s += plans[i].predicted.makespan_seconds * n;
    }
    r.verify_s = seconds_since(v0);
    return r;
  }

private:
  static constexpr int kFracBits = 5;

  /// The split cap the runner plans with: a lone frame may split its
  /// layers across both banks; several frames overlap with each other.
  std::uint32_t max_split() const {
    return spec_.frames_per_call == 1 ? map::kMaxSplitFactor : 1;
  }

  YoloSpec spec_;
  yolo::YoloWeights weights_;
  std::vector<std::vector<std::int16_t>> frames_;
  std::vector<std::vector<std::vector<std::int16_t>>> golden_;
  yolo::RunOptions opts_;
  std::unique_ptr<yolo::YoloRunner> runner_;
  std::size_t next_frame_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Seeds& seeds) {
  if (name == "ebnn_paper_scale") {
    return std::make_unique<EbnnPaperScale>(seeds);
  }
  YoloSpec s;
  if (name == "yolo_lite_stream") {
    s.defs = yolo::yolov3_lite_config(1, 1);
    s.size = 256;
    s.frames_per_call = 4;
    s.distinct_frames = 4;
    s.label = "yolov3_lite_config(1,1) 256x256, run_pipelined over 4 frames";
  } else if (name == "yolo_tiny_frame") {
    s.defs = yolo::yolov3_tiny_config();
    s.size = 128;
    s.label = "yolov3_tiny_config() 128x128, run_pipelined on one frame";
  } else if (name == "yolo_lite_faulty") {
    s.defs = yolo::yolov3_lite_config(1, 1);
    s.size = 64;
    s.distinct_frames = 4;
    s.pipelined = false;
    s.min_calls = 40;
    sim::FaultConfig f;
    f.seed = kFaultSeed;
    f.bad_dpu_rate = 0.02;
    // Half the starting rate of 0.005: at 0.005 a quarter to two thirds of
    // the frames fell back to the CPU, so the median frame wall could sit
    // in either of two modes.
    f.launch_fail_rate = 0.0025;
    f.transfer_corrupt_rate = 0.001;
    f.mram_corrupt_rate = 0.01;
    s.faults = f;
    s.label = "yolov3_lite_config(1,1) 64x64, one synchronous run per frame "
              "under faults " + f.describe();
  } else {
    return nullptr;
  }
  return std::make_unique<YoloWorkload>(std::move(s), seeds);
}

// ---- one run ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double signature_sum(std::uint64_t obs::SignatureSummary::*field) {
  double s = 0.0;
  for (const auto& [name, sig] : obs::Metrics::instance().signatures()) {
    s += static_cast<double>(sig.*field);
  }
  return s;
}

/// Runs `w.call()` with the counter and signature deltas attached, traced
/// when `traced`.
CallRecord observed_call(Workload& w, bool traced,
                         const std::string& trace_file) {
  obs::Metrics& m = obs::Metrics::instance();
  const auto counters0 = m.counters();
  const double absorbed0 =
      signature_sum(&obs::SignatureSummary::faults_absorbed);
  const double launches0 = signature_sum(&obs::SignatureSummary::launches);
  if (traced) obs::Tracer::instance().enable(trace_file);
  CallRecord r = w.call();
  if (traced) {
    obs::Tracer::instance().disable();
    r.trace = summarize(obs::Tracer::instance().snapshot());
  }
  for (const auto& [name, v] : m.counters()) {
    const auto it = counters0.find(name);
    const std::uint64_t before = it == counters0.end() ? 0 : it->second;
    if (v > before) r.counters[name] = v - before;
  }
  // A read of the plans ahead of the call counts a hit or a miss, and the
  // call's own resolve then hits: net, one extra hit per read.
  if (r.plan_reads > 0) r.counters["map.plan.hit"] -= r.plan_reads;
  r.faults_absorbed =
      signature_sum(&obs::SignatureSummary::faults_absorbed) - absorbed0;
  r.offloads = signature_sum(&obs::SignatureSummary::launches) - launches0;
  return r;
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Σ over `rs` of `f` — a CallRecord member, member function or callable.
template <typename F>
double total(const std::vector<const CallRecord*>& rs, F f) {
  double s = 0.0;
  for (const CallRecord* r : rs) {
    s += static_cast<double>(std::invoke(f, *r));
  }
  return s;
}

const MetricSpec& spec_of(const char* name) {
  for (const MetricSpec& s : kEndToEnd) {
    if (std::strcmp(s.name, name) == 0) return s;
  }
  for (const MetricSpec& s : kPerLayer) {
    if (std::strcmp(s.name, name) == 0) return s;
  }
  throw std::logic_error(std::string("metric not in catalog: ") + name);
}

/// A metric with its unit from the catalog.
Metric metric(const char* name, double value) {
  return {name, value, spec_of(name).unit};
}

/// One human-readable line: name, value, unit, [clock], then `extra`.
void print_metric(const Metric& m, const char* clock,
                  const std::string& extra) {
  char line[160];
  std::snprintf(line, sizeof(line), "  %-40s %-12.6g %-7s [%s]",
                m.name.c_str(), m.value, m.unit.c_str(), clock);
  std::cout << line << (extra.empty() ? "" : "  " + extra) << "\n";
}

int run(const Options& o) {
  set_default_sim_mode(SimMode::Fast);
  obs::Tracer::instance().disable();
  const Seeds seeds = derive_seeds(o.seed);
  std::unique_ptr<Workload> w = make_workload(o.workload, seeds);
  if (w == nullptr) {
    std::cerr << "pimbench: unknown workload '" << o.workload
              << "' (ebnn_paper_scale, yolo_lite_stream, yolo_tiny_frame, "
                 "yolo_lite_faulty)\n";
    return 2;
  }
  const auto run_start = Clock::now();
  std::cout << "pimbench " << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\n  " << w->describe() << "\n";

  double golden_s = 0.0;
  {
    const auto t0 = Clock::now();
    w->compute_golden();
    golden_s = seconds_since(t0);
  }
  double verify_s = golden_s;

  std::vector<CallRecord> setups; // the cold first call of each setup
  std::vector<double> setup_samples;
  std::vector<double> plan_samples;
  for (int s = 0; s < kSetups; ++s) {
    w->teardown(); // untimed: setup_s is construction and the cold call
    const auto t0 = Clock::now();
    w->construct();
    const double construct_s = seconds_since(t0);
    plan_samples.push_back(w->time_plan());
    CallRecord cold = observed_call(*w, false, o.trace_file);
    setup_samples.push_back(construct_s + cold.host_s);
    verify_s += cold.verify_s;
    setups.push_back(std::move(cold));
  }

  // Timed calls. With --trace 1 they alternate untraced / traced.
  // peak_rss_mb is read once the first min_calls calls are done: a fixed
  // amount of work, however many more calls the run then fits.
  std::vector<CallRecord> timed;
  double measured = 0.0;
  double rss_mb = 0.0;
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    CallRecord r = observed_call(*w, traced, o.trace_file);
    measured += r.host_s;
    verify_s += r.verify_s;
    timed.push_back(std::move(r));
    const std::size_t per_kind = o.trace ? (i + 1) / 2 : i + 1;
    if (per_kind == w->min_calls() && rss_mb == 0.0) rss_mb = peak_rss_mb();
    if (per_kind >= w->min_calls() &&
        (measured >= o.seconds || seconds_since(run_start) > kWallCapSeconds)) {
      break;
    }
  }

  std::vector<const CallRecord*> untraced, traced;
  for (const CallRecord& r : timed) (r.trace ? traced : untraced).push_back(&r);
  const auto first = [&](const std::vector<const CallRecord*>& v) {
    return std::vector<const CallRecord*>(
        v.begin(), v.begin() + std::min(v.size(), w->min_calls()));
  };

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* calls : {&setups, &timed}) {
    for (const CallRecord& r : *calls) {
      attempted += r.items;
      failed += r.mismatched_items;
    }
  }
  const bool correct = failed == 0;
  const double freq = sim::default_config().frequency_hz;

  std::vector<double> host_untraced;
  for (const CallRecord* r : untraced) host_untraced.push_back(r->host_s);
  const Tail tail = tail_percentile(host_untraced);
  const double p50 = median(host_untraced);

  std::cout << "  setup: " << kSetups << " x (construct + cold call), "
            << untraced.size() << " untraced"
            << (o.trace ? " + " + std::to_string(traced.size()) + " traced"
                        : std::string())
            << " timed calls\n  golden model: " << golden_s
            << " s, checking " << attempted << " items: "
            << verify_s - golden_s << " s (outside every timed metric)\n";

  std::vector<Metric> e2e;
  {
    const auto sim_set = first(untraced);
    const double items = total(untraced, &CallRecord::item_count);
    const double sim_items = total(sim_set, &CallRecord::item_count);
    std::vector<double> modeled;
    for (const CallRecord* r : untraced) {
      modeled.push_back(ratio(r->modeled_s, r->item_count()));
    }
    e2e = {
        metric("sim_items_per_s",
               ratio(items, total(untraced, &CallRecord::host_s))),
        metric("host_p50_s", p50),
        metric("host_tail_s", tail.value),
        metric("device_s_per_item",
               ratio(total(sim_set, &CallRecord::device_cycles), sim_items) /
                   freq),
        metric("modeled_s_per_item", median(modeled)),
        metric("peak_rss_mb", rss_mb),
        metric("setup_s", median(setup_samples)),
        metric("dpu_served_frac",
               1.0 - ratio(total(sim_set, &CallRecord::fallback_items),
                           sim_items)),
    };
  }
  std::cout << "  call host walls (s):";
  for (const double s : host_untraced) std::cout << " " << s;
  std::cout << "\nend-to-end (untraced calls):\n";
  for (const Metric& m : e2e) {
    std::string extra;
    if (m.name == "host_tail_s") {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "p%g of %zu calls, %zu beyond%s",
                    tail.percentile, host_untraced.size(), tail.beyond,
                    tail.qualified ? "" : " (too few calls: the median)");
      extra = buf;
    } else if (m.name == "device_s_per_item" ||
               m.name == "dpu_served_frac") {
      extra = "over the first " + std::to_string(first(untraced).size()) +
              " calls";
    }
    print_metric(m, spec_of(m.name.c_str()).clock, extra);
  }
  // Not in BENCHMARK.json, whose metrics may never read 0: the result
  // line carries it as failed / attempted, and any mismatch fails the run.
  print_metric({"mismatch_frac", ratio(double(failed), double(attempted)),
                "frac"},
               "-",
               std::to_string(failed) + " of " + std::to_string(attempted) +
                   " items differ from the CPU golden model");

  std::vector<Metric> layer;
  if (o.trace) {
    const auto rs = first(traced);
    const double n = total(rs, &CallRecord::item_count);
    const auto per_item = [&](auto field) {
      return ratio(total(rs, field), n);
    };
    // Σ over the traced calls of one TraceSummary value.
    const auto tr = [&](auto f) {
      return total(rs, [&](const CallRecord& r) {
        return std::invoke(f, *r.trace);
      });
    };
    const auto self_s = [&](std::initializer_list<const char*> names) {
      return tr([&](const TraceSummary& t) {
        double s = 0.0;
        for (const char* name : names) s += t.span(name).self_s;
        return s;
      });
    };
    const auto ctr = [&](const char* name) {
      return total(rs, [&](const CallRecord& r) { return r.counter(name); });
    };
    std::vector<double> host_traced;
    for (const CallRecord* r : traced) host_traced.push_back(r->host_s);
    const double dpu_launches = tr([](const TraceSummary& t) {
      return static_cast<double>(t.span("dpu.launch").count);
    });
    const double dpu_cycles = tr(&TraceSummary::dpu_cycles);
    const double offloads = tr(&TraceSummary::offloads);
    const double offload_dpus = tr(&TraceSummary::offload_dpus);
    const double predicted = total(rs, &CallRecord::predicted_s);
    const double modeled = total(rs, &CallRecord::modeled_s);
    layer = {
        metric("sim.host_s_per_item",
               ratio(tr([](const TraceSummary& t) {
                       return t.span("dpu.launch").total_s;
                     }),
                     n)),
        metric("sim.launches_per_item", ratio(dpu_launches, n)),
        metric("sim.fast_frac", ratio(ctr("sim.fast_launches"), dpu_launches)),
        metric("sim.dpu_cycles_per_item", ratio(dpu_cycles, n)),
        metric("sim.dma_bytes_per_item",
               ratio(tr(&TraceSummary::dma_bytes), n)),
        metric("sim.imbalance",
               ratio(tr(&TraceSummary::reserved_cycles), dpu_cycles)),
        metric("sim.active_dpu_frac", ratio(offload_dpus, offloads) /
                                          sim::default_config().total_dpus),
        metric("runtime.bytes_to_dpu_per_item",
               per_item([](const CallRecord& r) {
                 return double(r.xfer.bytes_to_dpu);
               })),
        metric("runtime.bytes_from_dpu_per_item",
               per_item([](const CallRecord& r) {
                 return double(r.xfer.bytes_from_dpu);
               })),
        metric("runtime.xfer_host_s_per_item",
               per_item([](const CallRecord& r) {
                 return r.xfer.host_seconds();
               })),
        metric("runtime.broadcast_s_per_item",
               ratio(self_s({"broadcast", "broadcast_const"}), n)),
        metric("runtime.scatter_s_per_item",
               ratio(self_s({"scatter", "scatter_resident", "scatter_items"}),
                     n)),
        metric("runtime.gather_s_per_item", ratio(self_s({"gather"}), n)),
        metric("runtime.program_load_s_per_item",
               ratio(self_s({"program.load"}), n)),
        metric("runtime.activation_hit_ratio",
               hit_ratio(total(rs,
                               [](const CallRecord& r) {
                                 return double(r.xfer.cached_activations);
                               }),
                         total(rs, [](const CallRecord& r) {
                           return double(r.xfer.program_loads);
                         }))),
        metric("runtime.resident_hit_ratio",
               hit_ratio(ctr("pool.resident.hit"), ctr("pool.resident.miss"))),
        metric("runtime.arena_hit_ratio",
               hit_ratio(ctr("pool.arena.hit"), ctr("pool.arena.miss"))),
        metric("runtime.threads_created_warm", ctr("hostpool.threads_created")),
        metric("runtime.pipeline_overlap",
               1.0 - ratio(modeled, total(rs, &CallRecord::serial_s))),
        metric("runtime.host_lane_s_per_item",
               per_item(&CallRecord::host_lane_s)),
        metric("runtime.dpu_lane_s_per_item",
               per_item(&CallRecord::dpu_lane_s)),
        metric("runtime.health.retries_per_item",
               ratio(ctr("offload.retry"), n)),
        metric("runtime.health.faults_absorbed_per_item",
               per_item(&CallRecord::faults_absorbed)),
        metric("runtime.health.quarantined_per_item",
               ratio(ctr("pool.quarantined"), n)),
        metric("runtime.health.fallback_launch_frac",
               ratio(ctr("offload.fallback"),
                     total(rs, &CallRecord::offloads))),
        metric("runtime.health.scrub_repaired_per_item",
               ratio(ctr("scrub.repaired"), n)),
        metric("runtime.health.reintegrated_per_item",
               ratio(ctr("health.reintegrated"), n)),
        metric("runtime.health.breaker_open_per_item",
               ratio(ctr("breaker.open"), n)),
        metric("map.plan_s", median(plan_samples)),
        metric("map.plan_hit_ratio",
               hit_ratio(ctr("map.plan.hit"), ctr("map.plan.miss"))),
        metric("map.split_frac", ratio(total(rs, &CallRecord::split_units),
                                       total(rs, &CallRecord::plan_units))),
        metric("map.dpus_per_launch", ratio(offload_dpus, offloads)),
        metric("map.kernel_pred_err", ratio(tr(&TraceSummary::pred_err_sum),
                                            tr(&TraceSummary::pred_count))),
        metric("map.makespan_pred_err",
               ratio(std::abs(modeled - predicted), predicted)),
        metric("yolo.host_compute_s_per_item",
               per_item(&CallRecord::host_compute_s)),
        metric("ebnn.host_tail_s_per_item", per_item(&CallRecord::host_tail_s)),
        metric("obs.trace_overhead", ratio(median(host_traced), p50)),
        metric("obs.trace_dropped",
               double(obs::Metrics::instance().counter("trace.dropped"))),
        metric("bench.verify_s", verify_s),
    };
    std::cout << "per layer (first " << rs.size() << " traced calls):\n";
    for (const Metric& m : layer) {
      const MetricSpec& spec = spec_of(m.name.c_str());
      print_metric(m, spec.clock, std::string("-> ") + spec.note);
    }
  }

  const bool dropped = obs::Metrics::instance().counter("trace.dropped") > 0;
  if (!correct) {
    std::cerr << "pimbench: FAIL: " << failed << " of " << attempted
              << " items differ from the CPU golden model\n";
  }
  if (dropped) {
    std::cerr << "pimbench: FAIL: the tracer dropped spans\n";
  }
  std::cout << result_json(correct, attempted, failed, o.trace ? layer : e2e)
            << std::endl;
  return correct && !dropped ? 0 : 1;
}

} // namespace
} // namespace pimbench

int main(int argc, char** argv) {
  try {
    return pimbench::run(pimbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pimbench: error: " << e.what() << "\n";
    return 2;
  }
}
