#include "yolo/network.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "map/space.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/banked_executor.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/host_timer.hpp"

namespace pimdnn::yolo {

namespace {

const char* layer_type_name(LayerType t) {
  switch (t) {
    case LayerType::Convolutional: return "conv";
    case LayerType::Shortcut: return "shortcut";
    case LayerType::Route: return "route";
    case LayerType::Upsample: return "upsample";
    case LayerType::Maxpool: return "maxpool";
    case LayerType::Yolo: return "yolo";
  }
  return "?";
}

/// Bias add + optional leaky ReLU over the M x N conv output, parallelized
/// across filter rows on the process-wide HostPool (no threads created on
/// warm frames). Each row is processed independently with the same
/// arithmetic as the serial loop, so the result is bit-identical.
void postprocess_conv(std::span<std::int16_t> conv_out, int m, int n,
                      std::span<const std::int16_t> bias, bool leaky) {
  runtime::HostPool::global().parallel_for(
      static_cast<std::uint32_t>(m), [&](std::uint32_t f) {
        const std::int32_t b = bias[f];
        std::int16_t* row = conv_out.data() + static_cast<std::size_t>(f) * n;
        for (int j = 0; j < n; ++j) {
          row[j] = static_cast<std::int16_t>(std::clamp(
              static_cast<std::int32_t>(row[j]) + b, -32767, 32767));
        }
        if (leaky) {
          nn::leaky_relu_q16(
              std::span<std::int16_t>(row, static_cast<std::size_t>(n)));
        }
      });
}

/// The GEMM kernel a DPU mode runs (CPU mode plans as the WRAM kernel).
GemmVariant gemm_variant(ExecMode mode) {
  return mode == ExecMode::DpuMram ? GemmVariant::MramResident
                                   : GemmVariant::WramTiled;
}

} // namespace

YoloWeights YoloWeights::random(const std::vector<LayerDef>& defs, int in_c,
                                std::uint64_t seed) {
  Rng rng(seed);
  YoloWeights w;
  w.conv.resize(defs.size());

  // Output channels of every layer, so each conv's K is right. Only
  // channels: layer_shapes needs the spatial input size, which this
  // signature does not carry.
  std::vector<int> channels;
  int cur = in_c;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const LayerDef& d = defs[i];
    switch (d.type) {
      case LayerType::Convolutional: {
        const int kdim = cur * d.size * d.size;
        auto& c = w.conv[i];
        c.w.resize(static_cast<std::size_t>(d.filters) * kdim);
        for (auto& v : c.w) {
          v = static_cast<std::int16_t>(rng.uniform_int(-24, 24));
        }
        c.bias.resize(static_cast<std::size_t>(d.filters));
        for (auto& v : c.bias) {
          v = static_cast<std::int16_t>(rng.uniform_int(-64, 64));
        }
        c.alpha = 1;
        cur = d.filters;
        break;
      }
      case LayerType::Route: {
        int sum = 0;
        for (int idx : d.layers) sum += channels[resolve_ref(i, idx)];
        cur = sum;
        break;
      }
      case LayerType::Shortcut:
      case LayerType::Upsample:
      case LayerType::Maxpool:
      case LayerType::Yolo:
        break;
    }
    channels.push_back(cur);
  }
  return w;
}

YoloRunner::YoloRunner(std::vector<LayerDef> defs, YoloWeights weights,
                       int in_c, int in_h, int in_w,
                       const runtime::UpmemConfig& sys)
    : defs_(std::move(defs)),
      weights_(std::move(weights)),
      in_c_(in_c),
      in_h_(in_h),
      in_w_(in_w),
      shapes_(layer_shapes(defs_, in_c, in_h, in_w)),
      last_use_(defs_.size()),
      sys_(sys),
      banks_(sys) {
  require(weights_.conv.size() == defs_.size(),
          "weights/layer count mismatch");
  const std::size_t n = defs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const LayerDef& d = defs_[i];
    last_use_[i] = d.type == LayerType::Yolo || i + 1 == n ? n : i;
    // A later reader extends a lifetime; a kept output stays kept.
    const auto read = [&](int ref) {
      std::size_t& last = last_use_[resolve_ref(i, ref)];
      last = std::max(last, i);
    };
    if (d.type == LayerType::Shortcut) {
      read(d.from);
    } else if (d.type == LayerType::Route) {
      for (int idx : d.layers) {
        read(idx);
      }
    }
  }
}

YoloRunResult YoloRunner::run(std::span<const std::int16_t> input,
                              ExecMode mode, std::uint32_t n_tasklets,
                              runtime::OptLevel opt) const {
  RunOptions opts;
  opts.mode = mode;
  opts.n_tasklets = n_tasklets;
  opts.opt = opt;
  return run(input, opts);
}

sim::HostXferStats YoloRunner::pool_host_stats() const {
  return banks_.host_stats();
}

std::vector<map::MappingPlan> YoloRunner::layer_plans(
    const RunOptions& opts, std::uint32_t max_split) const {
  const GemmVariant variant = gemm_variant(opts.mode);
  // Health-aware capacity: both banks must run identical plans, so take
  // the tightest allocated pool's planning view. Epochs key the memo —
  // any capacity change (quarantine or reintegration) forces a re-plan.
  std::uint32_t cap = sys_.total_dpus;
  std::uint64_t epoch_key = 0;
  for (unsigned b = 0; b < 2; ++b) {
    if (const runtime::DpuPool* p = banks_.find(b)) {
      cap = std::min(cap, p->plan_capacity());
      epoch_key = epoch_key * 1000003 + p->health_epoch() + 1;
    }
  }
  map::Limits limits;
  if (cap < sys_.total_dpus) {
    limits.max_dpus = cap;
  }
  const char* mapping_env = std::getenv("PIMDNN_MAPPING");
  std::string key = std::to_string(static_cast<int>(variant)) + "/" +
                    std::to_string(static_cast<int>(opts.opt)) + "/" +
                    std::to_string(opts.n_tasklets) + "/" +
                    std::to_string(opts.rows_per_dpu) + "/" +
                    std::to_string(epoch_key) + "/" + std::to_string(cap) +
                    "/" + std::to_string(max_split) + "/" +
                    (mapping_env != nullptr ? mapping_env : "");
  if (!plan_cache_.empty() && key == plan_cache_key_) {
    obs::Metrics::instance().add("map.plan.hit");
    return plan_cache_;
  }
  obs::Metrics::instance().add("map.plan.miss");
  std::vector<map::MappingPlan> plans(defs_.size());
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].type == LayerType::Convolutional) {
      const nn::ConvGeom& g = shapes_[i].conv;
      plans[i] = plan_gemm_mapping(g.gemm_m(), g.gemm_n(), g.gemm_k(),
                                   variant, opts.opt, opts.n_tasklets,
                                   opts.rows_per_dpu, limits, max_split,
                                   sys_);
    }
  }
  plan_cache_ = plans;
  plan_cache_key_ = std::move(key);
  return plans;
}

void YoloRunner::reserve_bank(
    unsigned bank, const std::vector<map::MappingPlan>& plans) const {
  std::uint32_t peak = 1;
  for (const map::MappingPlan& p : plans) {
    const std::uint32_t split = std::max(p.split, 1u);
    peak = std::max(peak, (p.n_dpus + split - 1) / split);
  }
  banks_.pool(bank).reserve(peak);
}

YoloRunResult YoloRunner::run(std::span<const std::int16_t> input,
                              const RunOptions& opts) const {
  require(input.size() == static_cast<std::size_t>(in_c_) * in_h_ * in_w_,
          "YoloRunner::run: wrong input size");
  if (opts.rows_per_dpu != map::kAutoRows) {
    map::require_positive_rows(opts.rows_per_dpu);
  }
  if (opts.mode == ExecMode::Cpu) {
    return run_frame(input, opts, nullptr, 0, 0, nullptr);
  }
  // A single frame has no second frame to overlap with, so the second
  // bank is free for intra-layer splitting whenever the mapper predicts a
  // win (split plans only arise on a strict predicted improvement).
  const std::vector<map::MappingPlan> plans =
      layer_plans(opts, map::kMaxSplitFactor);
  reserve_bank(0, plans);
  if (std::any_of(plans.begin(), plans.end(),
                  [](const map::MappingPlan& p) { return p.split > 1; })) {
    reserve_bank(1, plans);
  }
  return run_frame(input, opts, nullptr, 0, 0, &plans);
}

YoloPipelineResult YoloRunner::run_pipelined(
    const std::vector<std::vector<std::int16_t>>& frames,
    const RunOptions& opts) const {
  require(opts.mode != ExecMode::Cpu,
          "YoloRunner::run_pipelined: CPU mode has no DPU phase to overlap "
          "— use run()");
  if (opts.rows_per_dpu != map::kAutoRows) {
    map::require_positive_rows(opts.rows_per_dpu);
  }
  const std::size_t frame_len =
      static_cast<std::size_t>(in_c_) * in_h_ * in_w_;
  for (const auto& f : frames) {
    require(f.size() == frame_len, "YoloRunner::run_pipelined: wrong input "
                                   "size");
  }

  YoloPipelineResult out;
  out.frames.resize(frames.size());
  if (frames.empty()) {
    return out;
  }

  // Both bank pools are created/sized on this thread before any frame
  // task can touch them (a frame only ever uses its own bank's pool).
  // With two or more frames the banks are busy overlapping whole frames,
  // so layers stay unsplit; a single frame instead donates the idle second
  // bank to intra-layer splitting (the mapper decides per layer).
  runtime::PipelineRun run("yolo", "n_frames", frames.size());
  const std::vector<map::MappingPlan> plans =
      layer_plans(opts, frames.size() == 1 ? map::kMaxSplitFactor : 1);
  reserve_bank(0, plans);
  reserve_bank(1, plans);

  // Frame i runs on bank i%2 as a HostPool task, through the executor's
  // two-slot ring: a bank's next frame is submitted only after its
  // previous frame completed, so each bank's frames serialize (the
  // happens-before chain that keeps warm-pool state and results
  // bit-identical to the serial path).
  {
    runtime::InFlightRing<runtime::HostPool::TaskHandle> ring;
    const auto wait = [](runtime::HostPool::TaskHandle& h) { h.wait(); };
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const unsigned bank = static_cast<unsigned>(i % 2);
      ring.push(
          [&, i, bank] {
            return runtime::HostPool::global().submit([&, i, bank] {
              out.frames[i] =
                  run_frame(frames[i], opts, &run.model(), bank, i, &plans);
            });
          },
          wait);
    }
    ring.drain(wait);
  }

  out.pipeline = run.close("yolo.frame", [&](std::size_t i) {
    return out.frames[i].frame_wall_seconds() * 1e3;
  });
  return out;
}

YoloRunResult YoloRunner::run_frame(
    std::span<const std::int16_t> input, const RunOptions& opts,
    runtime::PipelineModel* model, unsigned bank, std::size_t item,
    const std::vector<map::MappingPlan>* plans) const {
  // Timeline item the next stage lands on. Split conv layers advance it:
  // sub-launch s occupies item `cur_item + s` on bank lane s%2, so the
  // overlapped schedule shows K concurrent lanes instead of one serialized
  // frame item. Unsplit runs never advance it (cur_item == item
  // throughout, the historical attribution).
  std::size_t cur_item = item;

  obs::Span frame_sp("yolo.frame", "pipeline");
  if (frame_sp.active()) {
    frame_sp.u64("n_layers", defs_.size());
  }

  YoloRunResult out;
  out.outputs.reserve(defs_.size());
  out.layers.reserve(defs_.size());

  require(opts.mode == ExecMode::Cpu || plans != nullptr,
          "YoloRunner::run_frame: DPU mode needs layer plans");
  Scratch& scratch = bank_scratch_[bank];

  std::vector<std::int16_t> cur(input.begin(), input.end());
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const LayerDef& d = defs_[i];
    const LayerShape& sh = shapes_[i];
    LayerStats ls;
    ls.type = d.type;
    obs::Span layer_sp("yolo.layer", "pipeline");
    if (layer_sp.active()) {
      layer_sp.u64("index", i);
      layer_sp.str("type", layer_type_name(d.type));
    }

    runtime::HostTimer ht;
    if (d.type == LayerType::Convolutional) {
      const nn::ConvGeom& g = sh.conv;
      const int m = g.gemm_m();
      const int k = g.gemm_k();
      const int n = g.gemm_n();
      ls.macs = g.macs();

      // im2col into the bank's persistent scratch: it writes every output
      // element (pad regions included), so stale contents never leak and
      // warm frames re-use the allocation layer after layer.
      ht.start();
      scratch.cols.resize(static_cast<std::size_t>(k) * n);
      nn::im2col<std::int16_t>(g, cur, scratch.cols);
      const Seconds im2col_s = ht.elapsed();
      out.host_compute_seconds += im2col_s;
      if (model != nullptr) {
        model->host_stage(cur_item, im2col_s);
      }

      std::vector<std::int16_t> conv_out(static_cast<std::size_t>(m) * n);
      const auto& cw = weights_.conv[i];
      if (opts.mode == ExecMode::Cpu) {
        ht.start();
        nn::gemm_q16_reference(m, n, k, cw.alpha, cw.w, scratch.cols,
                               conv_out);
        out.host_compute_seconds += ht.elapsed();
      } else {
        // A split plan runs as chunks across both banks, chunk s on
        // timeline item cur_item + s; any other plan runs as one chunk on
        // this bank. The weight tag pins the layer's A rows in MRAM: frames
        // after the first skip the scatter (the weights are bound at
        // construction, so the version never changes).
        const map::MappingPlan& plan = (*plans)[i];
        GemmResult r = dpu_gemm_planned(
            banks_.pool(bank),
            plan.split > 1 ? &banks_.pool(1 - bank) : nullptr, m, n, k,
            cw.alpha, cw.w, scratch.cols, gemm_variant(opts.mode), plan,
            opts.opt, "A/conv" + std::to_string(i), 0, model, cur_item,
            bank);
        conv_out = std::move(r.c);
        ls.dpus = r.dpus_used;
        ls.cycles = r.stats.wall_cycles;
        out.profile.merge(r.stats.profile);
        out.host += r.stats.host;
        cur_item += r.split - 1;
      }

      // Host post-processing: bias add + activation (§4.2.3: only the
      // GEMM runs on the DPUs), parallelized across filter rows.
      ht.start();
      postprocess_conv(conv_out, m, n, cw.bias, d.leaky);
      const Seconds post_s = ht.elapsed();
      out.host_compute_seconds += post_s;
      if (model != nullptr) {
        model->host_stage(cur_item, post_s);
      }
      cur = std::move(conv_out);
    } else {
      ht.start();
      switch (d.type) {
        case LayerType::Shortcut: {
          const auto& other = out.outputs[resolve_ref(i, d.from)];
          std::vector<std::int16_t> sum(cur.size());
          nn::shortcut_q16(cur, other, sum);
          cur = std::move(sum);
          break;
        }
        case LayerType::Route: {
          std::vector<std::int16_t> cat;
          for (int idx : d.layers) {
            const auto& src = out.outputs[resolve_ref(i, idx)];
            cat.insert(cat.end(), src.begin(), src.end());
          }
          cur = std::move(cat);
          break;
        }
        case LayerType::Upsample: {
          std::vector<std::int16_t> up(sh.out.size());
          nn::upsample2x<std::int16_t>(sh.in.c, sh.in.h, sh.in.w, cur, up);
          cur = std::move(up);
          break;
        }
        case LayerType::Maxpool: {
          std::vector<std::int16_t> pooled(sh.out.size());
          nn::maxpool2d_darknet<std::int16_t>(sh.in.c, sh.in.h, sh.in.w,
                                              d.size, d.stride, cur, pooled);
          cur = std::move(pooled);
          break;
        }
        case LayerType::Convolutional: // handled above
        case LayerType::Yolo:
          break; // raw predictions pass through; decoding is in detect.cpp
      }
      const Seconds body_s = ht.elapsed();
      out.host_compute_seconds += body_s;
      if (model != nullptr) {
        model->host_stage(cur_item, body_s);
      }
    }

    ls.out_c = sh.out.c;
    ls.out_h = sh.out.h;
    ls.out_w = sh.out.w;
    ls.seconds = sys_.cycles_to_seconds(ls.cycles);
    if (layer_sp.active() && ls.cycles > 0) {
      layer_sp.u64("cycles", ls.cycles);
      layer_sp.u64("dpus", ls.dpus);
    }
    out.total_cycles += ls.cycles;
    out.layers.push_back(ls);
    out.outputs.push_back(cur);

    // Free activations whose last consumer has now run (route/shortcut
    // read earlier outputs, so an output must only survive until the last
    // layer that references it).
    if (!opts.retain_all_outputs) {
      for (std::size_t j = 0; j <= i; ++j) {
        if (last_use_[j] <= i && !out.outputs[j].empty()) {
          std::vector<std::int16_t>().swap(out.outputs[j]);
        }
      }
    }
  }
  out.total_seconds = sys_.cycles_to_seconds(out.total_cycles);
  return out;
}

std::vector<LayerStats> YoloRunner::estimate(
    const std::vector<LayerDef>& defs, int in_c, int in_h, int in_w,
    GemmVariant variant, std::uint32_t n_tasklets, runtime::OptLevel opt,
    int rows_per_dpu) {
  const std::vector<LayerShape> shapes = layer_shapes(defs, in_c, in_h, in_w);
  map::require_positive_rows(rows_per_dpu);
  std::vector<LayerStats> out;
  out.reserve(defs.size());
  const runtime::UpmemConfig& sys = sim::default_config();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    LayerStats ls;
    ls.type = defs[i].type;
    if (ls.type == LayerType::Convolutional) {
      const nn::ConvGeom& g = shapes[i].conv;
      ls.macs = g.macs();
      // ceil(M / rows_per_dpu) DPUs, each computing rows_per_dpu rows —
      // reporting gemm_m() DPUs and per-row cycles regardless of the
      // mapping was the historical bug this parameter fixes.
      ls.dpus = static_cast<std::uint32_t>(
          (g.gemm_m() + rows_per_dpu - 1) / rows_per_dpu);
      ls.cycles = estimate_gemm_row_cycles(g.gemm_n(), g.gemm_k(), variant,
                                           n_tasklets, opt, rows_per_dpu,
                                           sys);
    }
    ls.out_c = shapes[i].out.c;
    ls.out_h = shapes[i].out.h;
    ls.out_w = shapes[i].out.w;
    ls.seconds = sys.cycles_to_seconds(ls.cycles);
    out.push_back(ls);
  }
  return out;
}

} // namespace pimdnn::yolo
