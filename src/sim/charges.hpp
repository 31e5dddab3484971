// The charge record every kernel's cost is written in.
//
// Each kernel has one recipe: a function that fills this record with what
// its interpreted kernel charges one tasklet over a launch. The kernel's
// fast twin applies the record's counts once per tasklet (its real DMAs
// charge themselves) and the kernel's estimator prices the whole record
// through sim::wall_cycles, so each kernel's closed form is written once
// and the twin, the interpreter and the estimator cannot drift apart.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/dpu.hpp"
#include "sim/tasklet.hpp"

namespace pimdnn::sim {

/// What one tasklet (or one item) charges.
struct KernelCharges {
  std::uint64_t alu = 0;   ///< plain ALU statements
  std::uint64_t loops = 0; ///< loop iterations
  std::uint64_t slots = 0; ///< raw issue slots (popcount shift/mask trees)
  std::uint64_t mul16 = 0; ///< 16-bit multiplies
  std::uint64_t mul32 = 0; ///< 32-bit multiplies
  /// Soft-float subroutine calls, by kind.
  std::array<std::uint64_t, static_cast<std::size_t>(Subroutine::kCount)>
      calls{};
  std::uint64_t barriers = 0; ///< barrier waits (phase boundaries)
  Cycles dma = 0;             ///< cycles of every DMA transfer

  /// Adds `n` calls of subroutine `s`.
  void call(Subroutine s, std::uint64_t n) {
    calls[static_cast<std::size_t>(s)] += n;
  }
};

/// Applies every count of `c` but its DMA cycles and barriers to the
/// running tasklet: the twin issues the kernel's real transfers, which
/// charge themselves, and Dpu::launch charges every phase boundary.
inline void apply_counts(TaskletCtx& ctx, const KernelCharges& c) {
  ctx.charge_alu(c.alu);
  ctx.charge_loop(c.loops);
  ctx.charge_slots(c.slots);
  ctx.charge_mul(16, c.mul16);
  ctx.charge_mul(32, c.mul32);
  for (std::size_t s = 0; s < c.calls.size(); ++s) {
    if (c.calls[s] != 0) {
      ctx.charge_subroutine(static_cast<Subroutine>(s), c.calls[s]);
    }
  }
}

/// The kernel wall of one DPU running `n_tasklets` tasklets, where
/// `recipe(t)` returns tasklet t's charges: each record priced on `opt`'s
/// cost model, then sim::wall_cycles on `sys`.
template <class Recipe>
Cycles priced_wall(std::uint32_t n_tasklets, OptLevel opt,
                   const UpmemConfig& sys, const Recipe& recipe) {
  // The mapper prices thousands of candidates per plan: look each price
  // up once, not once per tasklet.
  const CostModel cost(opt);
  const std::uint64_t alu = cost.alu_stmt();
  const std::uint64_t loop = cost.loop_iter();
  const std::uint64_t mul16 = cost.mul_stmt(16);
  const std::uint64_t mul32 = cost.mul_stmt(32);
  const std::uint64_t barrier = cost.barrier_stmt();
  decltype(KernelCharges::calls) call;
  for (std::size_t s = 0; s < call.size(); ++s) {
    call[s] = CostModel::subroutine_slots(static_cast<Subroutine>(s));
  }
  std::vector<TaskletStats> tasklets(n_tasklets);
  for (std::uint32_t t = 0; t < n_tasklets; ++t) {
    const KernelCharges c = recipe(t);
    std::uint64_t slots = c.alu * alu + c.loops * loop + c.slots +
                          c.mul16 * mul16 + c.mul32 * mul32 +
                          c.barriers * barrier;
    for (std::size_t s = 0; s < call.size(); ++s) {
      slots += c.calls[s] * call[s];
    }
    tasklets[t].slots = slots;
    tasklets[t].dma_cycles = c.dma;
  }
  return wall_cycles(tasklets, sys);
}

} // namespace pimdnn::sim
