// Tasklet execution context — the API simulated DPU kernels program against.
//
// A kernel is a C++ callable invoked once per tasklet. Every arithmetic or
// memory operation goes through this context, which (a) computes the real
// value — float operations route through the bit-exact soft-float library,
// exactly as `dpu-clang` lowers them — and (b) charges pipeline issue slots
// and DMA cycles into the tasklet's statistics. For large kernels the bulk
// `charge_*` calls account whole loops in closed form; a property test
// proves closed-form charging equals per-operation charging.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/profile.hpp"
#include "sim/softfloat.hpp"
#include "sim/softfloat64.hpp"

namespace pimdnn::sim {

class Dpu;

/// Cycle/issue accounting for one tasklet of one kernel launch.
struct TaskletStats {
  /// Instructions issued into the pipeline by this tasklet.
  std::uint64_t slots = 0;
  /// Cycles spent in MRAM DMA transfers issued by this tasklet (Eq. 3.4).
  Cycles dma_cycles = 0;
  /// Number of DMA transfers issued.
  std::uint64_t dma_transfers = 0;
  /// Bytes moved over DMA.
  std::uint64_t dma_bytes = 0;
};

/// Execution context handed to a kernel, one per tasklet.
class TaskletCtx {
public:
  /// Constructed by Dpu::launch; kernels never create contexts.
  TaskletCtx(Dpu& dpu, TaskletId id, std::uint32_t n_tasklets,
             const CostModel& cost, TaskletStats& stats,
             SubroutineProfile& profile);

  /// This tasklet's id in [0, n_tasklets).
  TaskletId id() const { return id_; }

  /// Number of tasklets running this kernel.
  std::uint32_t n_tasklets() const { return n_tasklets_; }

  /// The barrier phase being run, in [0, DpuProgram::phases). Every
  /// tasklet finishes phase p before any tasklet starts phase p + 1.
  std::uint32_t phase() const { return phase_; }

  /// The active cost model (reflects the compile-time -O level).
  const CostModel& cost() const { return cost_; }

  // ---- symbols -----------------------------------------------------------

  /// Base MRAM offset of a declared MRAM symbol.
  MemSize mram_addr(const std::string& symbol) const;

  /// Typed span over a declared WRAM symbol (whole symbol).
  template <typename T>
  std::span<T> wram_span(const std::string& symbol) {
    void* p = nullptr;
    MemSize bytes = 0;
    wram_raw(symbol, p, bytes);
    return {static_cast<T*>(p), static_cast<std::size_t>(bytes / sizeof(T))};
  }

  // ---- MRAM DMA ----------------------------------------------------------

  /// DMA `bytes` from MRAM offset `src` into a WRAM destination.
  void mram_read(void* wram_dst, MemSize src, MemSize bytes);

  /// DMA `bytes` from a WRAM source to MRAM offset `dst`.
  void mram_write(MemSize dst, const void* wram_src, MemSize bytes);

  // ---- charged integer arithmetic ----------------------------------------

  /// 32-bit add (1 ALU statement).
  std::int32_t add(std::int32_t a, std::int32_t b);

  /// 32-bit subtract.
  std::int32_t sub(std::int32_t a, std::int32_t b);

  /// Bitwise and/or/xor/shift — all plain ALU statements.
  std::uint32_t and_(std::uint32_t a, std::uint32_t b);
  std::uint32_t or_(std::uint32_t a, std::uint32_t b);
  std::uint32_t xor_(std::uint32_t a, std::uint32_t b);
  std::uint32_t shl(std::uint32_t a, unsigned n);
  std::uint32_t shr(std::uint32_t a, unsigned n);

  /// Integer multiply with operands of the stated width. 8-bit products use
  /// the hardware multiplier; 16-bit uses __mulsi3 at O0; 32-bit always
  /// calls __mulsi3 (thesis §3.3).
  std::int32_t mul(std::int32_t a, std::int32_t b, unsigned bits);

  /// 64-bit multiply via __muldi3.
  std::int64_t mul64(std::int64_t a, std::int64_t b);

  /// 32-bit signed division (hardware div_step sequence).
  std::int32_t divi(std::int32_t a, std::int32_t b);

  /// Population count, lowered to a shift/mask tree (no popcount
  /// instruction on the DPU): charged as 12 ALU statements.
  std::int32_t popcount(std::uint32_t v);

  // ---- charged float arithmetic (soft-float subroutines) ------------------

  /// Float add via __addsf3.
  float fadd(float a, float b);

  /// Float subtract via __subsf3.
  float fsub(float a, float b);

  /// Float multiply via __mulsf3.
  float fmul(float a, float b);

  /// Float divide via __divsf3.
  float fdiv(float a, float b);

  /// Float compare a < b via __ltsf2.
  bool flt(float a, float b);

  /// int32 -> float via __floatsisf.
  float i2f(std::int32_t v);

  /// float -> int32 (truncating) via __fixsfsi.
  std::int32_t f2i(float v);

  /// Double add via __adddf3 (thesis §3.3 lists the df3 family among the
  /// "routines frequently called in applications").
  double dadd(double a, double b);

  /// Double subtract via __subdf3.
  double dsub(double a, double b);

  /// Double multiply via __muldf3.
  double dmul(double a, double b);

  /// Double divide via __divdf3.
  double ddiv(double a, double b);

  // ---- bulk (closed-form) charging ----------------------------------------

  /// Charges `n` plain ALU statements.
  void charge_alu(std::uint64_t n);

  /// Charges `n` raw issue slots — the bulk form for charges that are not
  /// plain ALU statements (e.g. the flat 12-slot popcount shift/mask tree),
  /// used by fast-path kernel twins to replicate per-op charging exactly.
  void charge_slots(std::uint64_t n) { stats_.slots += n; }

  /// Charges `iters` loop-iteration overheads.
  void charge_loop(std::uint64_t iters);

  /// Charges `n` integer multiplies of the given width, recording
  /// subroutine occurrences when the width requires them.
  void charge_mul(unsigned bits, std::uint64_t n);

  /// Charges `n` executions of subroutine `s` (cycles + #occ profile).
  void charge_subroutine(Subroutine s, std::uint64_t n);

  // ---- perfcounter ---------------------------------------------------------

  /// Resets the cycle counter (thesis Figure 3.1: perfcounter_config()).
  void perfcounter_config();

  /// Cycles elapsed since perfcounter_config(), as seen by this tasklet:
  /// 11 cycles per issued instruction plus DMA stalls. Matches hardware for
  /// the single-tasklet profiling programs of Chapter 3.
  Cycles perfcounter_get() const;

  /// Stats accumulated so far (primarily for tests).
  const TaskletStats& stats() const { return stats_; }

private:
  friend class Dpu; ///< Dpu::launch advances phase_

  void wram_raw(const std::string& symbol, void*& p, MemSize& bytes) const;
  Cycles elapsed() const;

  Dpu& dpu_;
  TaskletId id_;
  std::uint32_t n_tasklets_;
  std::uint32_t phase_ = 0;
  const CostModel& cost_;
  TaskletStats& stats_;
  SubroutineProfile& profile_;
  Cycles perf_base_ = 0;
};

} // namespace pimdnn::sim
