#include "core/offloader.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "map/space.hpp"
#include "obs/trace.hpp"
#include "runtime/host_timer.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/report.hpp"

namespace pimdnn::core {

using runtime::KernelSession;
using sim::MemKind;
using sim::TaskletCtx;

namespace {

/// Largest single MRAM<->WRAM DMA the hardware performs (§4.1.3); bigger
/// buffers move in chunks.
constexpr MemSize kDmaMax = 2048;

/// DMA of arbitrary size via <=2048-byte chunks.
void chunked_read(TaskletCtx& ctx, std::uint8_t* dst, MemSize src,
                  MemSize bytes) {
  MemSize off = 0;
  while (off < bytes) {
    const MemSize n = std::min(kDmaMax, bytes - off);
    ctx.mram_read(dst + off, src + off, n);
    ctx.charge_loop(1);
    off += n;
  }
}

void chunked_write(TaskletCtx& ctx, MemSize dst, const std::uint8_t* src,
                   MemSize bytes) {
  MemSize off = 0;
  while (off < bytes) {
    const MemSize n = std::min(kDmaMax, bytes - off);
    ctx.mram_write(dst + off, src + off, n);
    ctx.charge_loop(1);
    off += n;
  }
}

} // namespace

Offloader::Offloader(WorkloadSpec spec, ItemKernel kernel,
                     const runtime::UpmemConfig& sys)
    : spec_(std::move(spec)), kernel_(std::move(kernel)), sys_(sys),
      banks_(sys) {
  require(static_cast<bool>(kernel_), "Offloader needs a kernel");
  if (spec_.item_in_bytes == 0 || spec_.item_out_bytes == 0) {
    throw ConfigError("WorkloadSpec: item sizes must be positive");
  }
  if (spec_.items_per_dpu == 0 ||
      spec_.items_per_dpu > sys_.max_tasklets) {
    throw ConfigError("WorkloadSpec: items_per_dpu must be in [1, 24]");
  }
  in_stride_ = align_up(spec_.item_in_bytes, kXferAlign);
  out_stride_ = align_up(spec_.item_out_bytes, kXferAlign);
  // Fail fast on impossible WRAM mappings: a throwaway DPU performs the
  // placement checks the real toolchain's linker would.
  sim::Dpu probe(sys_);
  probe.load(build_program());
}

sim::DpuProgram Offloader::build_program() const {
  sim::DpuProgram prog;
  prog.name = spec_.name;
  prog.iram_bytes = spec_.iram_bytes;
  const MemSize n = spec_.items_per_dpu;
  prog.symbols = {
      {"meta", MemKind::Wram, 8},
      {"in_mram", MemKind::Mram, n * in_stride_},
      {"out_mram", MemKind::Mram, n * out_stride_},
      {"in_buf", MemKind::Wram, n * in_stride_},
      {"out_buf", MemKind::Wram, n * out_stride_},
  };
  if (spec_.scratch_bytes_per_tasklet > 0) {
    prog.symbols.push_back(
        {"scratch", MemKind::Wram,
         n * align_up(spec_.scratch_bytes_per_tasklet, kXferAlign)});
  }
  if (!spec_.consts.empty()) {
    prog.symbols.push_back(
        {"consts", MemKind::Wram, align_up(spec_.consts.size(), kXferAlign)});
  }

  // Capture what the kernel closure needs by value.
  const WorkloadSpec spec = spec_;
  const MemSize in_stride = in_stride_;
  const MemSize out_stride = out_stride_;
  const ItemKernel kernel = kernel_;
  prog.entry = [spec, in_stride, out_stride, kernel](TaskletCtx& ctx) {
    require(ctx.n_tasklets() <= spec.items_per_dpu,
            "offload kernel: tasklets exceed item slots");
    auto meta = ctx.wram_span<std::uint64_t>("meta");
    ctx.charge_alu(1);
    const std::uint64_t n_items = meta[0];

    auto in_all = ctx.wram_span<std::uint8_t>("in_buf");
    auto out_all = ctx.wram_span<std::uint8_t>("out_buf");
    std::uint8_t* scratch = nullptr;
    if (spec.scratch_bytes_per_tasklet > 0) {
      auto s = ctx.wram_span<std::uint8_t>("scratch");
      scratch = s.data() +
                ctx.id() * align_up(spec.scratch_bytes_per_tasklet,
                                    kXferAlign);
    }
    const std::uint8_t* consts = nullptr;
    if (!spec.consts.empty()) {
      consts = ctx.wram_span<std::uint8_t>("consts").data();
    }

    std::uint8_t* in_slot = in_all.data() + ctx.id() * in_stride;
    std::uint8_t* out_slot = out_all.data() + ctx.id() * out_stride;
    const MemSize in_base = ctx.mram_addr("in_mram");
    const MemSize out_base = ctx.mram_addr("out_mram");

    for (std::uint64_t item = ctx.id(); item < n_items;
         item += ctx.n_tasklets()) {
      chunked_read(ctx, in_slot, in_base + item * in_stride,
                   spec.item_in_bytes);
      ItemCtx ic{ctx, in_slot, out_slot, scratch, consts, item};
      kernel(ic);
      chunked_write(ctx, out_base + item * out_stride, out_slot,
                    spec.item_out_bytes);
    }
  };
  return prog;
}

runtime::Job Offloader::plan_job(const Items& items, OffloadResult& out,
                                 runtime::DpuPool& pool, bool may_split,
                                 std::uint32_t n_tasklets,
                                 runtime::OptLevel opt) {
  require(!items.empty(), "Offloader::run: empty batch");
  if (n_tasklets != map::kAutoTasklets) {
    require(n_tasklets >= 1 && n_tasklets <= spec_.items_per_dpu,
            "Offloader::run: tasklets must be in [1, items_per_dpu]");
  }

  // Resolve (items_per_dpu, tasklets, split) through map::Mapper:
  // auto-sentinel callers get the cost-model argmin when the spec priced
  // its kernel (the paper capacity-filling mapping otherwise); an explicit
  // tasklet count pins the spec's mapping.
  map::BatchRequest mreq;
  mreq.n_items = items.size();
  mreq.capacity = spec_.items_per_dpu;
  mreq.kernel_cycles = spec_.kernel_cost;
  mreq.item_in_bytes = in_stride_;
  mreq.item_out_bytes = out_stride_;
  mreq.const_bytes_per_dpu = spec_.consts.size();
  mreq.pinned_tasklets = n_tasklets;
  mreq.max_split = may_split ? map::kMaxSplitFactor : 1;
  mreq.limits = map::pool_limits(pool);
  const map::MappingPlan plan = map::Mapper().plan_batch(mreq);
  return {KernelSession::dpus_for(items.size(), plan.items_per_dpu),
          plan.split,
          [this, &items, plan, opt](const runtime::Chunk& c) {
            return start_batch(c, items, plan, opt);
          },
          [this, &items, plan, opt, &out](const runtime::Chunk& c,
                                          runtime::Started& started) {
            finish_batch(c, started, items, plan, opt, out);
          }};
}

runtime::Started Offloader::start_batch(const runtime::Chunk& c,
                                        const Items& items,
                                        const map::MappingPlan& plan,
                                        runtime::OptLevel opt) {
  for (const auto& it : items) {
    require(it.size() == spec_.item_in_bytes,
            "Offloader::run: item size mismatch");
  }
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const runtime::Chunk::Window w = c.window(items.size(), per_dpu);

  const sim::HostXferStats before = c.pool.host_stats();
  // One cached program per engine: the first batch loads it (and any later
  // batch that outgrows the pool reloads it); otherwise activation is a
  // no-op and the broadcast constants are still in WRAM from last time.
  runtime::Started started;
  started.session = std::make_unique<KernelSession>(
      c.pool, "offload/" + spec_.name,
      KernelSession::dpus_for(w.count, per_dpu),
      [this] { return build_program(); });
  KernelSession& session = *started.session;
  session.annotate(plan.obs_suffix());
  // A chunk is predicted to carry its share of the plan's transfer volume.
  session.set_predicted(plan.predicted.kernel_cycles,
                        (plan.predicted.to_dpu_seconds +
                         plan.predicted.from_dpu_seconds) *
                            (static_cast<double>(w.count) /
                             static_cast<double>(items.size())));
  if (!spec_.consts.empty()) {
    session.broadcast_const("consts", spec_.consts.data(),
                            spec_.consts.size());
  }

  // Scatter inputs + per-DPU true counts, then launch asynchronously so
  // the next chunk or batch stages on the other bank meanwhile.
  session.scatter_items("in_mram", "meta", w.count, per_dpu, in_stride_,
                        spec_.item_in_bytes, [&](std::size_t i) {
                          return items[w.first + i].data();
                        });

  const sim::HostXferStats d =
      sim::host_xfer_delta(c.pool.host_stats(), before);
  c.xfer(d.to_dpu_seconds + d.load_seconds);
  started.handle = session.launch_async(plan.n_tasklets, opt);
  return started;
}

void Offloader::finish_batch(const runtime::Chunk& c,
                             runtime::Started& started, const Items& items,
                             const map::MappingPlan& plan,
                             runtime::OptLevel opt, OffloadResult& out) {
  KernelSession& session = *started.session;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const runtime::Chunk::Window w = c.window(items.size(), per_dpu);

  out.split = static_cast<std::uint32_t>(c.count);
  out.dpus_used += session.n_dpus();
  out.outputs.reserve(items.size());

  // A degraded session routes the chunk through one spare private DPU —
  // the same kernel closure, per_dpu items at a time, so results stay
  // bit-identical.
  if (!started.handle.wait()) {
    runtime::HostTimer ht;
    ht.start();
    run_host_fallback(items, w.first, w.count, per_dpu, plan.n_tasklets, opt,
                      out.outputs);
    const Seconds fallback = ht.elapsed();
    c.fold(out.launch, session.finish());
    c.host(fallback);
    return;
  }

  const sim::HostXferStats before = c.pool.host_stats();
  session.gather_items("out_mram", w.count, per_dpu, out_stride_,
                       [&](std::size_t, const std::uint8_t* slot) {
                         out.outputs.emplace_back(
                             slot, slot + spec_.item_out_bytes);
                       });
  const sim::HostXferStats gathered =
      sim::host_xfer_delta(c.pool.host_stats(), before);

  const runtime::LaunchStats stats = session.finish();
  c.fold(out.launch, stats);
  // Reported after the fact but in per-lane chronological order: kernel
  // on the bank, then the gather transfer.
  c.kernel(stats.wall_seconds);
  c.xfer(gathered.from_dpu_seconds);
}

OffloadResult Offloader::run(const Items& items, std::uint32_t n_tasklets,
                             runtime::OptLevel opt) {
  OffloadResult out;
  banks_.run(1, [&](std::size_t, runtime::DpuPool& pool, bool may_split) {
    return plan_job(items, out, pool, may_split, n_tasklets, opt);
  });
  return out;
}

OffloadPipelineResult Offloader::run_pipelined(
    const std::vector<Items>& batches, std::uint32_t n_tasklets,
    runtime::OptLevel opt) {
  OffloadPipelineResult out;
  out.batches.resize(batches.size());
  if (batches.empty()) {
    return out;
  }
  runtime::PipelineRun run("offload", "n_batches", batches.size());
  banks_.run(
      batches.size(),
      [&](std::size_t i, runtime::DpuPool& pool, bool may_split) {
        return plan_job(batches[i], out.batches[i], pool, may_split,
                          n_tasklets, opt);
      },
      &run.model());
  out.pipeline = run.close(out.timeline, "offload.batch", [&](std::size_t i) {
    const OffloadResult& b = out.batches[i];
    return (b.launch.host.host_seconds() + b.launch.wall_seconds) * 1e3;
  });
  return out;
}

void Offloader::run_host_fallback(const Items& items, std::size_t first,
                                  std::size_t count, std::uint32_t per_dpu,
                                  std::uint32_t n_tasklets,
                                  runtime::OptLevel opt,
                                  Items& outputs) const {
  sim::Dpu spare(sys_);
  spare.load(build_program());
  if (!spec_.consts.empty()) {
    const auto padded = pad_to_xfer(spec_.consts.data(), spec_.consts.size());
    spare.host_write("consts", 0, padded.data(), padded.size());
  }
  std::vector<std::uint8_t> slot(in_stride_);
  std::vector<std::uint8_t> result(out_stride_);
  for (std::size_t base = 0; base < count; base += per_dpu) {
    const std::uint64_t chunk =
        std::min<std::size_t>(per_dpu, count - base);
    for (std::uint64_t s = 0; s < chunk; ++s) {
      std::fill(slot.begin(), slot.end(), 0);
      std::memcpy(slot.data(), items[first + base + s].data(),
                  spec_.item_in_bytes);
      spare.host_write("in_mram", s * in_stride_, slot.data(), in_stride_);
    }
    spare.host_write("meta", 0, &chunk, sizeof(chunk));
    spare.launch(n_tasklets, opt);
    for (std::uint64_t s = 0; s < chunk; ++s) {
      spare.host_read("out_mram", s * out_stride_, result.data(),
                      out_stride_);
      outputs.emplace_back(result.begin(),
                           result.begin() + spec_.item_out_bytes);
    }
  }
}

} // namespace pimdnn::core
