#include "sim/dpu.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"

namespace pimdnn::sim {

Cycles tasklet_cycles(const TaskletStats& t, const UpmemConfig& cfg) {
  return static_cast<Cycles>(t.slots) * cfg.pipeline_stages + t.dma_cycles;
}

Cycles wall_cycles(std::span<const TaskletStats> tasklets,
                   const UpmemConfig& cfg) {
  std::uint64_t slots = 0;
  Cycles dma = 0;
  Cycles latency = 0;
  for (const TaskletStats& t : tasklets) {
    slots += t.slots;
    dma += t.dma_cycles;
    latency = std::max(latency, tasklet_cycles(t, cfg));
  }
  return std::max({static_cast<Cycles>(slots), dma, latency});
}

Dpu::Dpu(const UpmemConfig& cfg)
    : cfg_(cfg),
      mram_(cfg.mram_bytes),
      wram_(cfg.wram_bytes),
      iram_(cfg.iram_bytes) {}

void Dpu::load(const DpuProgram& program) {
  require(static_cast<bool>(program.entry),
          "DpuProgram '" + program.name + "' has no entry point");
  require(program.phases >= 1,
          "DpuProgram '" + program.name + "' declares zero phases");

  // Validate everything before mutating anything: a failed load (symbol
  // placement or IRAM overflow) must leave the previous program — IRAM,
  // symbol table and entry point consistent with each other — launchable.
  std::map<std::string, SymbolInfo> placed;
  MemSize mram_top = 0;
  MemSize wram_top = 0;
  for (const SymbolDecl& d : program.symbols) {
    if (placed.count(d.name) != 0) {
      throw SymbolError("duplicate symbol '" + d.name + "' in program '" +
                        program.name + "'");
    }
    MemSize& top = d.kind == MemKind::Mram ? mram_top : wram_top;
    const MemSize cap =
        d.kind == MemKind::Mram ? cfg_.mram_bytes : cfg_.wram_bytes;
    const MemSize offset = align_up(top, kXferAlign);
    if (d.size > cap || offset > cap - d.size) {
      throw CapacityError("symbol '" + d.name + "' (" +
                          std::to_string(d.size) + " B) overflows " +
                          std::string(mem_kind_name(d.kind)) + " (used " +
                          std::to_string(offset) + " of " +
                          std::to_string(cap) + " B)");
    }
    placed[d.name] = SymbolInfo{d.kind, offset, d.size};
    top = offset + d.size;
  }
  iram_.load_program(program.iram_bytes, program.name);

  program_ = program;
  symbols_ = std::move(placed);
  mram_top_ = mram_top;
  wram_top_ = wram_top;
}

const SymbolInfo& Dpu::symbol(const std::string& name) const {
  const auto it = symbols_.find(name);
  if (it == symbols_.end()) {
    throw SymbolError("no symbol '" + name + "' in program '" +
                      program_.name + "'");
  }
  return it->second;
}

bool Dpu::has_symbol(const std::string& name) const {
  return symbols_.count(name) != 0;
}

void Dpu::host_write(const std::string& name, MemSize offset, const void* src,
                     MemSize size) {
  const SymbolInfo& s = symbol(name);
  // Guard the sum against wrap-around like Wram::check/Mram::check do: a
  // huge `offset` must throw, not wrap and land inside another symbol.
  if (size > s.size || offset > s.size - size) {
    throw OutOfBoundsError("host_write past end of symbol '" + name + "'");
  }
  if (s.kind == MemKind::Mram) {
    mram_.write(s.offset + offset, src, size);
  } else {
    wram_.write(s.offset + offset, src, size);
  }
}

void Dpu::host_read(const std::string& name, MemSize offset, void* dst,
                    MemSize size) const {
  const SymbolInfo& s = symbol(name);
  if (size > s.size || offset > s.size - size) {
    throw OutOfBoundsError("host_read past end of symbol '" + name + "'");
  }
  if (s.kind == MemKind::Mram) {
    mram_.read(dst, s.offset + offset, size);
  } else {
    wram_.read(dst, s.offset + offset, size);
  }
}

DpuRunStats Dpu::launch(std::uint32_t n_tasklets, OptLevel opt,
                        SimMode mode) {
  require(static_cast<bool>(program_.entry),
          "launch without a loaded program");
  require(n_tasklets >= 1 && n_tasklets <= cfg_.max_tasklets,
          "tasklet count must be in [1, " +
              std::to_string(cfg_.max_tasklets) + "]");

  obs::Span sp("dpu.launch", "sim");
  if (sp.active()) {
    sp.str("program", program_.name);
    sp.u64("n_tasklets", n_tasklets);
  }

  const CostModel cost(opt);
  DpuRunStats out;
  out.tasklets.resize(n_tasklets);
  out.fast_path =
      mode == SimMode::Fast && static_cast<bool>(program_.fast_entry);
  const std::function<void(TaskletCtx&)>& body =
      out.fast_path ? program_.fast_entry : program_.entry;
  std::vector<TaskletCtx> ctxs;
  ctxs.reserve(n_tasklets);
  for (TaskletId t = 0; t < n_tasklets; ++t) {
    ctxs.emplace_back(*this, t, n_tasklets, cost, out.tasklets[t],
                      out.profile);
  }
  for (std::uint32_t p = 0; p < program_.phases; ++p) {
    if (p > 0) {
      // The barrier between phases p-1 and p: every tasklet pays one
      // barrier wait statement.
      for (TaskletStats& ts : out.tasklets) {
        ts.slots += cost.barrier_stmt();
      }
    }
    // Interp runs the highest tasklet id first, fast runs tasklet 0 first
    // (see common/sim_mode.hpp).
    for (std::uint32_t i = 0; i < n_tasklets; ++i) {
      TaskletCtx& ctx = ctxs[mode == SimMode::Fast ? i : n_tasklets - 1 - i];
      ctx.phase_ = p;
      body(ctx);
    }
  }
  if (out.fast_path) {
    obs::Metrics::instance().add("sim.fast_launches");
  }

  for (const TaskletStats& ts : out.tasklets) {
    out.total_slots += ts.slots;
    out.total_dma_cycles += ts.dma_cycles;
    out.total_dma_bytes += ts.dma_bytes;
  }
  out.cycles = wall_cycles(out.tasklets, cfg_);
  if (sp.active()) {
    sp.u64("cycles", out.cycles);
    sp.u64("slots", out.total_slots);
    sp.u64("dma_cycles", out.total_dma_cycles);
    sp.u64("dma_bytes", out.total_dma_bytes);
    sp.str("bound", cycle_bound_name(dominant_bound(out, cfg_)));
    sp.f64("imbalance", tasklet_imbalance(out, cfg_));
    sp.str("mode", out.fast_path ? "fast" : "interp");
  }
  return out;
}

} // namespace pimdnn::sim
