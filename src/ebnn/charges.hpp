// The charge record the eBNN kernels' costs are written in (private to
// pim_ebnn).
//
// Each eBNN kernel has one recipe: a function that fills this record with
// what its interpreted kernel charges one tasklet over a launch. The fast
// twin applies the record's counts once per tasklet (its real DMAs charge
// themselves) and the kernel's estimator prices the whole record through
// sim::wall_cycles, so each kernel's closed form is written once.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/dpu.hpp"
#include "sim/tasklet.hpp"

namespace pimdnn::ebnn {

/// What one tasklet (or one image) charges.
struct KernelCharges {
  std::uint64_t alu = 0;   ///< plain ALU statements
  std::uint64_t loops = 0; ///< loop iterations
  std::uint64_t slots = 0; ///< raw issue slots (the popcount shift/mask trees)
  std::uint64_t mul32 = 0; ///< 32-bit multiplies (the LUT index __mulsi3)
  /// Soft-float subroutine calls, by kind.
  std::array<std::uint64_t, static_cast<std::size_t>(sim::Subroutine::kCount)>
      calls{};
  Cycles dma = 0; ///< cycles of every DMA transfer

  /// Adds `n` calls of subroutine `s`.
  void call(sim::Subroutine s, std::uint64_t n) {
    calls[static_cast<std::size_t>(s)] += n;
  }
};

/// Charges of tasklet `t` of `n_tasklets` over a launch of `n_images`
/// images that each charge `per_image`. Both eBNN kernels run images t,
/// t + T, ... on tasklet t, and every tasklet first loads the image count
/// (one ALU statement).
inline KernelCharges strided_charges(const KernelCharges& per_image,
                                     std::uint64_t n_images, std::uint32_t t,
                                     std::uint32_t n_tasklets) {
  const std::uint64_t images =
      n_images > t ? (n_images - 1 - t) / n_tasklets + 1 : 0;
  KernelCharges c;
  c.alu = 1 + images * per_image.alu;
  c.loops = images * per_image.loops;
  c.slots = images * per_image.slots;
  c.mul32 = images * per_image.mul32;
  for (std::size_t s = 0; s < c.calls.size(); ++s) {
    c.calls[s] = images * per_image.calls[s];
  }
  c.dma = images * per_image.dma;
  return c;
}

/// Applies every count of `c` but its DMA cycles to the running tasklet:
/// the twin issues the kernel's real transfers, which charge themselves.
inline void apply_counts(sim::TaskletCtx& ctx, const KernelCharges& c) {
  ctx.charge_alu(c.alu);
  ctx.charge_loop(c.loops);
  ctx.charge_slots(c.slots);
  ctx.charge_mul(32, c.mul32);
  for (std::size_t s = 0; s < c.calls.size(); ++s) {
    if (c.calls[s] != 0) {
      ctx.charge_subroutine(static_cast<sim::Subroutine>(s), c.calls[s]);
    }
  }
}

/// The kernel wall of one DPU running `n_tasklets` tasklets, where
/// `recipe(t)` returns tasklet t's charges: each record priced on `opt`'s
/// cost model, then sim::wall_cycles on `sys`.
template <class Recipe>
Cycles priced_wall(std::uint32_t n_tasklets, sim::OptLevel opt,
                   const sim::UpmemConfig& sys, const Recipe& recipe) {
  const sim::CostModel cost(opt);
  std::vector<sim::TaskletStats> tasklets(n_tasklets);
  for (std::uint32_t t = 0; t < n_tasklets; ++t) {
    const KernelCharges c = recipe(t);
    std::uint64_t slots = c.alu * cost.alu_stmt() +
                          c.loops * cost.loop_iter() + c.slots +
                          c.mul32 * cost.mul_stmt(32);
    for (std::size_t s = 0; s < c.calls.size(); ++s) {
      slots += c.calls[s] * sim::CostModel::subroutine_slots(
                                static_cast<sim::Subroutine>(s));
    }
    tasklets[t].slots = slots;
    tasklets[t].dma_cycles = c.dma;
  }
  return sim::wall_cycles(tasklets, sys);
}

} // namespace pimdnn::ebnn
