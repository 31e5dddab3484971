#include "ebnn/host.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "map/mapper.hpp"
#include "map/space.hpp"
#include "nn/bitpack.hpp"
#include "obs/trace.hpp"
#include "runtime/host_timer.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/report.hpp"

namespace pimdnn::ebnn {

using runtime::DpuPool;
using runtime::KernelSession;
using runtime::LaunchStats;

EbnnHost::EbnnHost(const EbnnConfig& cfg, EbnnWeights weights, BnMode mode,
                   const runtime::UpmemConfig& sys, ConvKernel kernel)
    : cfg_(cfg),
      weights_(std::move(weights)),
      mode_(mode),
      kernel_(kernel),
      layout_(ebnn_layout(cfg)),
      lut_(build_bn_binact_lut(cfg, weights_.bn)),
      reference_(cfg_, weights_),
      banks_(sys) {}

runtime::Job EbnnHost::plan_job(const std::vector<Image>& images,
                                EbnnBatchResult& out,
                                runtime::DpuPool& pool, bool may_split,
                                std::uint32_t n_tasklets,
                                runtime::OptLevel opt) {
  require(!images.empty(), "EbnnHost::run: empty batch");
  if (n_tasklets != map::kAutoTasklets) {
    require(n_tasklets >= 1 && n_tasklets <= layout_.max_images,
            "EbnnHost::run: tasklets must be in [1, 16]");
  }
  // Resolve the (images_per_dpu, tasklets, split) mapping through
  // map::Mapper: auto-sentinel callers get the cost-model argmin (or
  // PIMDNN_MAPPING); an explicit tasklet count pins the thesis' mapping.
  map::BatchRequest mreq;
  mreq.n_items = images.size();
  mreq.capacity = layout_.max_images;
  mreq.kernel_cycles = [this, opt](std::uint32_t items, std::uint32_t t) {
    return estimate_ebnn_wall_cycles(cfg_, mode_, kernel_, items, t, opt);
  };
  mreq.item_in_bytes = layout_.image_stride;
  mreq.item_out_bytes = layout_.result_stride;
  mreq.const_bytes_per_dpu =
      weights_.conv_bits.size() * sizeof(std::uint32_t) +
      (mode_ == BnMode::HostLut
           ? lut_.table.size()
           : 5 * static_cast<std::size_t>(cfg_.filters) * sizeof(float));
  mreq.pinned_tasklets = n_tasklets;
  mreq.max_split = may_split ? map::kMaxSplitFactor : 1;
  mreq.limits = map::pool_limits(pool);
  const map::MappingPlan plan = map::Mapper().plan_batch(mreq);
  return {KernelSession::dpus_for(images.size(), plan.items_per_dpu),
          plan.split,
          [this, &images, plan, opt](const runtime::Chunk& c) {
            return start_batch(c, images, plan, opt);
          },
          [this, &images, plan, &out](const runtime::Chunk& c,
                                      runtime::Started& started) {
            finish_batch(c, started, images, plan, out);
          }};
}

runtime::Started EbnnHost::start_batch(const runtime::Chunk& c,
                                       const std::vector<Image>& images,
                                       const map::MappingPlan& plan,
                                       runtime::OptLevel opt) {
  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg_.img_h) * cfg_.img_w;
  for (const Image& im : images) {
    require(im.size() == img_bytes, "EbnnHost::run: wrong image size");
  }
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const runtime::Chunk::Window w = c.window(images.size(), per_dpu);

  const sim::HostXferStats before = c.pool.host_stats();
  runtime::Started started;
  started.session = std::make_unique<KernelSession>(
      c.pool, "ebnn", KernelSession::dpus_for(w.count, per_dpu),
      [&] { return make_ebnn_program(cfg_, mode_, kernel_); });
  KernelSession& session = *started.session;
  session.annotate(plan.obs_suffix());
  // A chunk is predicted to carry its share of the plan's transfer volume.
  session.set_predicted(plan.predicted.kernel_cycles,
                        (plan.predicted.to_dpu_seconds +
                         plan.predicted.from_dpu_seconds) *
                            (static_cast<double>(w.count) /
                             static_cast<double>(images.size())));

  // Weights and the BN stage are WRAM constants: broadcast_const re-sends
  // them only when the activation rebuilt/reloaded the program, so warm
  // batches pay only for images + counts.
  session.broadcast_const(symbols::kConvWeights, weights_.conv_bits.data(),
                          weights_.conv_bits.size() * sizeof(std::uint32_t));
  if (session.activation() != DpuPool::Activation::Active) {
    if (mode_ == BnMode::HostLut) {
      session.broadcast(symbols::kBnLut, lut_.table.data(),
                        lut_.table.size());
    } else {
      std::vector<float> bn;
      bn.reserve(5 * static_cast<std::size_t>(cfg_.filters));
      for (const auto* v : {&weights_.bn.w0, &weights_.bn.w1, &weights_.bn.w2,
                            &weights_.bn.w3, &weights_.bn.w4}) {
        bn.insert(bn.end(), v->begin(), v->end());
      }
      session.broadcast(symbols::kBnParams, bn.data(),
                        bn.size() * sizeof(float));
    }
  }

  // Scatter images and per-DPU true counts (Eqs. 3.2/3.3 + the §3.2 rule).
  session.scatter_items(symbols::kImages, symbols::kMeta, w.count, per_dpu,
                        layout_.image_stride, img_bytes, [&](std::size_t i) {
                          return images[w.first + i].data();
                        });

  const sim::HostXferStats d =
      sim::host_xfer_delta(c.pool.host_stats(), before);
  c.xfer(d.to_dpu_seconds + d.load_seconds);

  // Launch on the HostPool: the next chunk or batch scatters on the other
  // bank while this one's kernel is in flight.
  started.handle = session.launch_async(plan.n_tasklets, opt);
  return started;
}

void EbnnHost::finish_batch(const runtime::Chunk& c,
                            runtime::Started& started,
                            const std::vector<Image>& images,
                            const map::MappingPlan& plan,
                            EbnnBatchResult& out) {
  KernelSession& session = *started.session;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const runtime::Chunk::Window w = c.window(images.size(), per_dpu);
  const std::size_t feat_words = static_cast<std::size_t>(cfg_.filters) *
                                 layout_.words_per_filter;
  const int ppf = cfg_.pool_h() * cfg_.pool_w();

  out.split = static_cast<std::uint32_t>(c.count);
  out.dpus_used += session.n_dpus();
  out.predicted.reserve(images.size());
  out.features.reserve(images.size());

  runtime::HostTimer ht;
  // A degraded session routes the chunk through the reference model,
  // which is bit-identical to the kernel.
  if (!started.handle.wait()) {
    ht.start();
    for (std::size_t i = 0; i < w.count; ++i) {
      EbnnActivations a = reference_.infer(images[w.first + i].data());
      out.predicted.push_back(a.predicted);
      out.features.push_back(std::move(a.feature));
    }
    const Seconds tail = ht.elapsed();
    out.host_tail_seconds += tail;
    c.fold(out.launch, session.finish());
    c.host(tail);
    return;
  }

  // Batched gather of the raw feature words, then the host tail per image
  // (unpack + FC + softmax) — separated so the transfer wall and the tail
  // compute land in their own pipeline stages.
  const sim::HostXferStats before = c.pool.host_stats();
  std::vector<std::uint32_t> words(w.count * feat_words);
  session.gather_items(
      symbols::kResults, w.count, per_dpu, layout_.result_stride,
      [&](std::size_t i, const std::uint8_t* slot) {
        std::memcpy(words.data() + i * feat_words, slot,
                    feat_words * sizeof(std::uint32_t));
      });
  const sim::HostXferStats gathered =
      sim::host_xfer_delta(c.pool.host_stats(), before);

  ht.start();
  for (std::size_t i = 0; i < w.count; ++i) {
    const std::uint32_t* wd = words.data() + i * feat_words;
    std::vector<int> feature(static_cast<std::size_t>(cfg_.feature_bits()));
    for (int f = 0; f < cfg_.filters; ++f) {
      for (int p = 0; p < ppf; ++p) {
        const std::uint32_t word =
            wd[static_cast<std::size_t>(f) * layout_.words_per_filter +
               static_cast<std::size_t>(p) / 32];
        feature[static_cast<std::size_t>(f) * ppf + p] =
            static_cast<int>((word >> (p % 32)) & 1u);
      }
    }
    std::vector<float> logits;
    std::vector<float> probs;
    int predicted = -1;
    reference_.infer_tail(feature, logits, probs, predicted);
    out.predicted.push_back(predicted);
    out.features.push_back(std::move(feature));
  }
  const Seconds tail = ht.elapsed();
  out.host_tail_seconds += tail;
  const LaunchStats stats = session.finish();
  c.fold(out.launch, stats);

  // Reported here (after the fact) but in per-lane chronological order:
  // kernel on the bank, gather on host+bank, tail on the host.
  c.kernel(stats.wall_seconds);
  c.xfer(gathered.from_dpu_seconds);
  c.host(tail);
}

EbnnBatchResult EbnnHost::run(const std::vector<Image>& images,
                              std::uint32_t n_tasklets,
                              runtime::OptLevel opt) {
  obs::Span batch_sp("ebnn.batch", "pipeline");
  if (batch_sp.active()) {
    batch_sp.u64("n_images", images.size());
  }
  EbnnBatchResult out;
  banks_.run(1, [&](std::size_t, runtime::DpuPool& pool, bool may_split) {
    return plan_job(images, out, pool, may_split, n_tasklets, opt);
  });
  return out;
}

EbnnPipelineResult EbnnHost::run_pipelined(
    const std::vector<std::vector<Image>>& batches,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  EbnnPipelineResult out;
  out.batches.resize(batches.size());
  if (batches.empty()) {
    return out;
  }
  runtime::PipelineRun run("ebnn", "n_batches", batches.size());
  banks_.run(
      batches.size(),
      [&](std::size_t i, runtime::DpuPool& pool, bool may_split) {
        return plan_job(batches[i], out.batches[i], pool, may_split,
                          n_tasklets, opt);
      },
      &run.model());
  out.pipeline = run.close(out.timeline, "ebnn.batch", [&](std::size_t i) {
    const EbnnBatchResult& b = out.batches[i];
    return (b.launch.host.host_seconds() + b.launch.wall_seconds +
            b.host_tail_seconds) *
           1e3;
  });
  return out;
}

} // namespace pimdnn::ebnn
