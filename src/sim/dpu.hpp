// One simulated DPU: memories + loaded program + launch machinery.
//
// Programs are declared as a set of named MRAM/WRAM symbols plus an entry
// point invoked once per tasklet (the SPMD model of the real SDK, §3.1).
// A kernel that synchronizes on the SDK barrier is split into barrier
// phases: `launch` runs phase p of every tasklet before phase p+1, all on
// the calling thread, so the simulator owns no threads or locks. It then
// derives the cycle count from three hardware bounds of the
// fine-grained-multithreaded pipeline (see `DpuRunStats::cycles` docs),
// which reproduces the tasklet saturation behaviour of Figure 4.7(a).
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/sim_mode.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/memory.hpp"
#include "sim/profile.hpp"
#include "sim/tasklet.hpp"

namespace pimdnn::sim {

/// Declaration of one named buffer in DPU memory.
struct SymbolDecl {
  std::string name;  ///< symbol name visible to the host API
  MemKind kind;      ///< MRAM or WRAM
  MemSize size;      ///< bytes (will be placed 8-byte aligned)
};

/// A DPU-side program: entry point, symbols and IRAM footprint.
struct DpuProgram {
  std::string name;                     ///< program name (diagnostics)
  std::vector<SymbolDecl> symbols;      ///< buffers to place in memory
  MemSize iram_bytes = 4096;            ///< code footprint checked vs 24 KB
  std::function<void(TaskletCtx&)> entry; ///< run once per tasklet per phase
  /// Optional batched twin of `entry` used when a launch runs in
  /// SimMode::Fast: it must produce the identical memory effects
  /// (bit-exact, soft-float results included) and apply the identical
  /// charges (cycle-exact stats and subroutine profile), computing with
  /// native host arithmetic and bulk `charge_*` calls instead of per-op
  /// interpretation. Programs without one always interpret; the dual-run
  /// cross-check tests enforce the equivalence contract. Like `entry`, it
  /// runs once per tasklet per phase.
  std::function<void(TaskletCtx&)> fast_entry;
  /// Barrier phases (>= 1): a kernel with B barriers declares B + 1 and
  /// branches on TaskletCtx::phase(). Each phase boundary charges every
  /// tasklet CostModel::barrier_stmt(), the cost of one SDK barrier wait.
  std::uint32_t phases = 1;
};

/// Placed symbol: where a declaration landed.
struct SymbolInfo {
  MemKind kind;
  MemSize offset;
  MemSize size;
};

/// Result of one kernel launch on one DPU.
struct DpuRunStats {
  /// Modeled execution cycles (`wall_cycles`), with S =
  /// UpmemConfig::pipeline_stages (11 by default):
  ///   max( Σ_t slots_t,                -- pipeline issues 1 instr/cycle
  ///        Σ_t dma_t,                  -- single shared DMA engine
  ///        max_t (S·slots_t + dma_t) ) -- per-tasklet in-order latency
  Cycles cycles = 0;
  /// Sum of issue slots over all tasklets.
  std::uint64_t total_slots = 0;
  /// Sum of DMA cycles over all tasklets.
  Cycles total_dma_cycles = 0;
  /// Bytes moved by DMA.
  std::uint64_t total_dma_bytes = 0;
  /// Per-tasklet breakdown.
  std::vector<TaskletStats> tasklets;
  /// Runtime-subroutine occurrence profile (Figure 3.2).
  SubroutineProfile profile;
  /// Executor metadata (not part of the modeled machine state, hence not
  /// part of the fast/interp equivalence contract): true when this launch
  /// ran the program's `fast_entry` instead of interpreting `entry`.
  bool fast_path = false;
};

/// One tasklet's in-order latency: S·slots + dma, with S =
/// `cfg.pipeline_stages` (a lone tasklet issues one instruction every S
/// cycles and stalls on its own DMAs).
Cycles tasklet_cycles(const TaskletStats& t, const UpmemConfig& cfg);

/// The wall rule of `DpuRunStats::cycles`: max(Σ slots, Σ DMA, max over
/// tasklets of tasklet_cycles). Dpu::launch and every analytic kernel
/// estimator price a launch through this one function.
Cycles wall_cycles(std::span<const TaskletStats> tasklets,
                   const UpmemConfig& cfg);

/// One simulated DPU.
class Dpu {
public:
  /// Creates a DPU with the given architecture configuration.
  explicit Dpu(const UpmemConfig& cfg = default_config());

  /// Loads a program: places symbols (8-byte aligned) in MRAM/WRAM with
  /// bump allocation and checks IRAM capacity. Replaces any prior program;
  /// memory contents are preserved (as on hardware). Throws UsageError for
  /// a program without an entry or with zero phases.
  void load(const DpuProgram& program);

  /// Looks up a placed symbol; throws SymbolError if absent.
  const SymbolInfo& symbol(const std::string& name) const;

  /// True if a symbol with this name is placed.
  bool has_symbol(const std::string& name) const;

  /// Host-side write into a symbol at byte offset `offset`.
  void host_write(const std::string& symbol, MemSize offset, const void* src,
                  MemSize size);

  /// Host-side read out of a symbol at byte offset `offset`.
  void host_read(const std::string& symbol, MemSize offset, void* dst,
                 MemSize size) const;

  /// Runs the loaded program on `n_tasklets` tasklets under the given
  /// optimization level and returns the cycle accounting. Every phase runs
  /// for all tasklets before the next, on the calling thread. `mode`
  /// selects the executor (`fast_entry` when the program has one) and the
  /// tasklet order inside a phase (see common/sim_mode.hpp).
  DpuRunStats launch(std::uint32_t n_tasklets,
                     OptLevel opt = OptLevel::O3,
                     SimMode mode = default_sim_mode());

  /// Architecture configuration.
  const UpmemConfig& config() const { return cfg_; }

  /// Direct memory handles (used by TaskletCtx and tests).
  Mram& mram() { return mram_; }
  Wram& wram() { return wram_; }

  /// MRAM bytes occupied by the loaded program's symbols (the region a
  /// program-switch disturbance can plausibly corrupt).
  MemSize mram_used() const { return mram_top_; }

private:
  friend class TaskletCtx;

  UpmemConfig cfg_;
  Mram mram_;
  Wram wram_;
  Iram iram_;
  DpuProgram program_;
  std::map<std::string, SymbolInfo> symbols_;
  MemSize mram_top_ = 0;
  MemSize wram_top_ = 0;
};

} // namespace pimdnn::sim
