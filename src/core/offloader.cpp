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

/// The item kernel's DPU program: per-item input/output slots in MRAM,
/// staged through per-tasklet WRAM slots, "consts" and "scratch" in WRAM.
sim::DpuProgram item_program(const WorkloadSpec& spec,
                             const ItemKernel& kernel) {
  const MemSize in_stride = align_up(spec.item_in_bytes, kXferAlign);
  const MemSize out_stride = align_up(spec.item_out_bytes, kXferAlign);
  sim::DpuProgram prog;
  prog.name = spec.name;
  prog.iram_bytes = spec.iram_bytes;
  const MemSize n = spec.items_per_dpu;
  prog.symbols = {
      {"meta", MemKind::Wram, 8},
      {"in_mram", MemKind::Mram, n * in_stride},
      {"out_mram", MemKind::Mram, n * out_stride},
      {"in_buf", MemKind::Wram, n * in_stride},
      {"out_buf", MemKind::Wram, n * out_stride},
  };
  if (spec.scratch_bytes_per_tasklet > 0) {
    prog.symbols.push_back(
        {"scratch", MemKind::Wram,
         n * align_up(spec.scratch_bytes_per_tasklet, kXferAlign)});
  }
  if (!spec.consts.empty()) {
    prog.symbols.push_back(
        {"consts", MemKind::Wram, align_up(spec.consts.size(), kXferAlign)});
  }

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

/// Validates the spec and describes the item kernel's batch program.
BatchProgram item_batch_program(const WorkloadSpec& spec, ItemKernel kernel,
                                const runtime::UpmemConfig& sys) {
  require(static_cast<bool>(kernel), "Offloader needs a kernel");
  if (spec.item_in_bytes == 0 || spec.item_out_bytes == 0) {
    throw ConfigError("WorkloadSpec: item sizes must be positive");
  }
  if (spec.items_per_dpu == 0 || spec.items_per_dpu > sys.max_tasklets) {
    throw ConfigError("WorkloadSpec: items_per_dpu must be in [1, 24]");
  }
  BatchProgram p;
  p.signature = "offload/" + spec.name;
  p.pipeline = "offload";
  p.capacity = spec.items_per_dpu;
  p.item_bytes = spec.item_in_bytes;
  p.in_stride = align_up(spec.item_in_bytes, kXferAlign);
  p.out_stride = align_up(spec.item_out_bytes, kXferAlign);
  p.in_symbol = "in_mram";
  p.out_symbol = "out_mram";
  if (!spec.consts.empty()) {
    p.consts.push_back({"consts", spec.consts});
  }
  if (spec.kernel_cost) {
    p.kernel_cost = [cost = spec.kernel_cost](std::uint32_t items,
                                              std::uint32_t t,
                                              runtime::OptLevel) {
      return cost(items, t);
    };
  }
  p.build = [spec, kernel = std::move(kernel)] {
    return item_program(spec, kernel);
  };
  return p;
}

} // namespace

Offloader::Offloader(BatchProgram program, const runtime::UpmemConfig& sys)
    : program_(std::move(program)), sys_(sys), banks_(sys) {}

Offloader::Offloader(WorkloadSpec spec, ItemKernel kernel,
                     const runtime::UpmemConfig& sys)
    : Offloader(item_batch_program(spec, std::move(kernel), sys), sys) {
  item_out_bytes_ = spec.item_out_bytes;
  // Fail fast on impossible WRAM mappings: a throwaway DPU performs the
  // placement checks the real toolchain's linker would.
  sim::Dpu probe(sys_);
  probe.load(program_.build());
}

runtime::Job Offloader::plan_job(const Batch& b, runtime::DpuPool& pool,
                                 bool may_split, std::uint32_t n_tasklets,
                                 runtime::OptLevel opt) {
  const Items& items = *b.items;
  require(!items.empty(), program_.pipeline + ": empty batch");
  require(std::all_of(items.begin(), items.end(),
                      [&](const auto& it) {
                        return it.size() == program_.item_bytes;
                      }),
          program_.pipeline + ": item size mismatch");
  require(n_tasklets == map::kAutoTasklets ||
              (n_tasklets >= 1 && n_tasklets <= program_.capacity),
          program_.pipeline + ": tasklets must be in [1, items per DPU]");

  // Resolve (items_per_dpu, tasklets, split) through map::Mapper:
  // auto-sentinel callers get the cost-model argmin when the program
  // prices its kernel (the paper capacity-filling mapping otherwise) or
  // PIMDNN_MAPPING; an explicit tasklet count pins the paper mapping.
  map::BatchRequest mreq;
  mreq.n_items = items.size();
  mreq.capacity = program_.capacity;
  if (program_.kernel_cost) {
    mreq.kernel_cycles = [this, opt](std::uint32_t n, std::uint32_t t) {
      return program_.kernel_cost(n, t, opt);
    };
  }
  mreq.item_in_bytes = program_.in_stride;
  mreq.item_out_bytes = program_.out_stride;
  for (const auto& [symbol, bytes] : program_.consts) {
    mreq.const_bytes_per_dpu += bytes.size();
  }
  mreq.pinned_tasklets = n_tasklets;
  mreq.max_split = may_split ? map::kMaxSplitFactor : 1;
  mreq.limits = map::pool_limits(pool);
  const map::MappingPlan plan = map::Mapper().plan_batch(mreq);
  return {KernelSession::dpus_for(items.size(), plan.items_per_dpu),
          plan.split,
          [this, &items, plan, opt](const runtime::Chunk& c) {
            return start_batch(c, items, plan, opt);
          },
          [this, &b, plan](const runtime::Chunk& c,
                           runtime::Started& started) {
            finish_batch(c, started, b, plan);
          }};
}

runtime::Started Offloader::start_batch(const runtime::Chunk& c,
                                        const Items& items,
                                        const map::MappingPlan& plan,
                                        runtime::OptLevel opt) {
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const runtime::Chunk::Window w = c.window(items.size(), per_dpu);

  const sim::HostXferStats before = c.pool.host_stats();
  // One cached program per engine: the first batch loads it (and any later
  // batch that outgrows the pool reloads it).
  runtime::Started started;
  started.session = std::make_unique<KernelSession>(
      c.pool, program_.signature, KernelSession::dpus_for(w.count, per_dpu),
      program_.build);
  KernelSession& session = *started.session;
  session.annotate(plan.obs_suffix());
  // A chunk is predicted to carry its share of the plan's transfer volume.
  session.set_predicted(plan.predicted.kernel_cycles,
                        (plan.predicted.to_dpu_seconds +
                         plan.predicted.from_dpu_seconds) *
                            (static_cast<double>(w.count) /
                             static_cast<double>(items.size())));
  // Warm batches skip these while every session DPU still holds them.
  for (const auto& [symbol, bytes] : program_.consts) {
    session.broadcast_const(symbol, bytes.data(), bytes.size());
  }

  // Scatter inputs + per-DPU true counts (§3.2), then launch
  // asynchronously so the next chunk or batch stages on the other bank
  // meanwhile.
  session.scatter_items(program_.in_symbol, "meta", w.count, per_dpu,
                        program_.in_stride, program_.item_bytes,
                        [&](std::size_t i) {
                          return items[w.first + i].data();
                        });

  const sim::HostXferStats d =
      sim::host_xfer_delta(c.pool.host_stats(), before);
  c.xfer(d.to_dpu_seconds + d.load_seconds);
  started.handle = session.launch_async(plan.n_tasklets, opt);
  return started;
}

void Offloader::finish_batch(const runtime::Chunk& c,
                             runtime::Started& started, const Batch& b,
                             const map::MappingPlan& plan) {
  KernelSession& session = *started.session;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const runtime::Chunk::Window w = c.window(b.items->size(), per_dpu);
  BatchStats& out = *b.out;
  out.split = static_cast<std::uint32_t>(c.count);
  out.dpus_used += session.n_dpus();

  runtime::HostTimer ht;
  // A degraded session routes the chunk through the client's CPU path,
  // which is bit-identical to the kernel.
  if (!started.handle.wait()) {
    ht.start();
    b.hooks.fallback(plan, w.first, w.count);
    const Seconds tail = ht.elapsed();
    out.host_tail_seconds += tail;
    c.fold(out.launch, session.finish());
    c.host(tail);
    return;
  }

  // Batched gather of the output slots, then the client's host tail —
  // separated so the transfer wall and the tail compute land in their own
  // pipeline stages.
  const MemSize stride = program_.out_stride;
  const sim::HostXferStats before = c.pool.host_stats();
  std::vector<std::uint8_t> slots(w.count * stride);
  session.gather_items(program_.out_symbol, w.count, per_dpu, stride,
                       [&](std::size_t i, const std::uint8_t* slot) {
                         std::memcpy(slots.data() + i * stride, slot, stride);
                       });
  const sim::HostXferStats gathered =
      sim::host_xfer_delta(c.pool.host_stats(), before);

  ht.start();
  for (std::size_t i = 0; i < w.count; ++i) {
    b.hooks.tail(plan, w.first + i, slots.data() + i * stride);
  }
  const Seconds tail = ht.elapsed();
  out.host_tail_seconds += tail;
  const runtime::LaunchStats stats = session.finish();
  c.fold(out.launch, stats);
  // Reported after the fact but in per-lane chronological order: kernel
  // on the bank, gather on host+bank, tail on the host.
  c.kernel(stats.wall_seconds);
  c.xfer(gathered.from_dpu_seconds);
  c.host(tail);
}

runtime::PipelineStats Offloader::run_batches(
    const std::vector<Batch>& batches, std::uint32_t n_tasklets,
    runtime::OptLevel opt, bool pipelined) {
  const runtime::Planner plan = [&](std::size_t i, runtime::DpuPool& pool,
                                    bool may_split) {
    return plan_job(batches[i], pool, may_split, n_tasklets, opt);
  };
  const std::string series = program_.pipeline + ".batch";
  if (!pipelined) {
    obs::Span batch_sp(series.c_str(), "pipeline");
    if (batch_sp.active()) {
      batch_sp.u64("n_items", batches[0].items->size());
    }
    banks_.run(1, plan);
    return {};
  }
  if (batches.empty()) {
    return {};
  }
  runtime::PipelineRun run(program_.pipeline.c_str(), "n_batches",
                           batches.size());
  banks_.run(batches.size(), plan, &run.model());
  return run.close(series.c_str(), [&](std::size_t i) {
    const BatchStats& s = *batches[i].out;
    return (s.launch.host.host_seconds() + s.launch.wall_seconds +
            s.host_tail_seconds) *
           1e3;
  });
}

Offloader::Bind<OffloadResult> Offloader::item_hooks(
    runtime::OptLevel opt) const {
  return [this, opt](const Items& items, OffloadResult& out) -> BatchHooks {
    out.outputs.reserve(items.size());
    const auto tail = [this, &out](const map::MappingPlan&, std::size_t,
                                   const std::uint8_t* slot) {
      out.outputs.emplace_back(slot, slot + item_out_bytes_);
    };
    // The same program on one spare private DPU, `per_dpu` items at a
    // time, and the same tail over each output slot.
    const auto on_spare = [this, &items, tail, opt](
                              const map::MappingPlan& plan, std::size_t first,
                              std::size_t count) {
      sim::Dpu spare(sys_);
      spare.load(program_.build());
      for (const auto& [symbol, bytes] : program_.consts) {
        const auto padded = pad_to_xfer(bytes.data(), bytes.size());
        spare.host_write(symbol, 0, padded.data(), padded.size());
      }
      std::vector<std::uint8_t> slot(program_.in_stride);
      std::vector<std::uint8_t> result(program_.out_stride);
      const std::uint32_t per_dpu = plan.items_per_dpu;
      for (std::size_t base = 0; base < count; base += per_dpu) {
        const std::uint64_t chunk =
            std::min<std::size_t>(per_dpu, count - base);
        for (std::uint64_t s = 0; s < chunk; ++s) {
          std::fill(slot.begin(), slot.end(), 0);
          std::memcpy(slot.data(), items[first + base + s].data(),
                      program_.item_bytes);
          spare.host_write(program_.in_symbol, s * program_.in_stride,
                           slot.data(), program_.in_stride);
        }
        spare.host_write("meta", 0, &chunk, sizeof(chunk));
        spare.launch(plan.n_tasklets, opt);
        for (std::uint64_t s = 0; s < chunk; ++s) {
          spare.host_read(program_.out_symbol, s * program_.out_stride,
                          result.data(), program_.out_stride);
          tail(plan, first + base + s, result.data());
        }
      }
    };
    return {tail, on_spare};
  };
}

} // namespace pimdnn::core
