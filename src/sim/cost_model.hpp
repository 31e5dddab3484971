// Instruction-cost model of the DPU pipeline, calibrated against the cycle
// measurements the thesis reports for real hardware.
//
// The simulator is a *functional simulator with cycle accounting*: kernels
// compute real values while every operation charges "issue slots"
// (instructions dispatched into the 11-stage pipeline) and every MRAM DMA
// charges raw cycles (Eq. 3.4). The per-operation slot counts below are
// calibrated so that the thesis' single-DPU profiling program reproduces
// Table 3.1 within a few cycles — see `bench_table3_1_op_cycles`.
//
// Calibration sketch (single tasklet => 1 instruction retires per 11 cycles):
//   measured = 11 * (profiling_overhead_slots + statement_slots)
//   Table 3.1 add = 272  => 21 + 4    slots
//   Table 3.1 mul16(O0) = 608 => 21 + 4+30 slots (__mulsi3 16-bit path)
//   Table 3.1 mul32 = 800 => 21 + 4+48 slots (__mulsi3 32-bit path)
//   Table 3.1 fdiv = 12064 => 21 + 4+1072 slots (__divsf3)
// The same slot counts reproduce Table 5.2's Cop values (44/370/570 cycles
// for 8/16/32-bit multiplication) through Eq. 5.8's Cop = f(x)*1*11.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/config.hpp"

namespace pimdnn::sim {

/// Names of the compiler-runtime subroutines the DPU toolchain emits for
/// operations with no hardware support (thesis §3.3 and Figure 3.2).
enum class Subroutine : std::uint8_t {
  MulSI3,     ///< __mulsi3: 32-bit (or unoptimized 16-bit) integer multiply
  MulDI3,     ///< __muldi3: 64-bit integer multiply
  DivSI3,     ///< __divsi3: 32-bit integer division helper
  AddSF3,     ///< __addsf3: float addition
  AddDF3,     ///< __adddf3: double addition
  SubDF3,     ///< __subdf3: double subtraction
  MulDF3,     ///< __muldf3: double multiplication (thesis §3.3)
  DivDF3,     ///< __divdf3: double division
  SubSF3,     ///< __subsf3: float subtraction
  MulSF3,     ///< __mulsf3: float multiplication
  DivSF3,     ///< __divsf3: float division
  LtSF2,      ///< __ltsf2: float comparison
  FloatSISF,  ///< __floatsisf: int32 -> float conversion
  FixSFSI,    ///< __fixsfsi: float -> int32 conversion
  kCount,
};

/// Printable libgcc-style name ("__mulsi3", ...).
const char* subroutine_name(Subroutine s);

/// Per-operation issue-slot costs at a given optimization level.
class CostModel {
public:
  explicit CostModel(OptLevel opt = OptLevel::O0) : opt_(opt) {}

  /// Optimization level this model represents.
  OptLevel opt() const { return opt_; }

  /// Slots for a plain ALU statement (add/sub/logic/shift/compare/move).
  /// At O0 this includes the stack loads/stores `dpu-clang -O0` emits.
  unsigned alu_stmt() const;

  /// Slots for an integer multiply statement of the given operand width.
  /// Widths < 16 use the hardware 8x8 multiplier steps (4 instructions,
  /// matching the thesis' g(4)=g(8)=4); 16-bit collapses to hardware only
  /// under optimization (§3.3, §5.2.2); 32-bit always calls __mulsi3.
  unsigned mul_stmt(unsigned bits) const;

  /// Slots for an integer divide statement (hardware div_step sequence;
  /// Table 3.1 shows the same 368-cycle cost for 8/16/32-bit).
  unsigned div_stmt() const;

  /// Slots for one loop iteration's bookkeeping (index update, bound
  /// compare, branch). O0 spills the induction variable every iteration.
  unsigned loop_iter() const;

  /// Slots for one SDK barrier wait statement: the SDK's barrier is an
  /// acquire/release pair around a counter update plus the wait loop's
  /// fixed bookkeeping. Cycles spent *waiting* for other tasklets are not
  /// issue slots (a blocked tasklet issues nothing), so they are not
  /// charged here. Dpu::launch charges it to every tasklet at each phase
  /// boundary.
  unsigned barrier_stmt() const { return 2 * alu_stmt() + 8; }

  /// True if a multiply of this width is lowered to a __mulsi3 call at this
  /// optimization level.
  bool mul_uses_subroutine(unsigned bits) const;

  /// Body slot cost of a runtime subroutine (excludes the statement that
  /// invokes it). Independent of OptLevel: libgcc bodies are precompiled.
  static unsigned subroutine_slots(Subroutine s);

  /// Cycles for one MRAM<->WRAM DMA transfer of `bytes` bytes (Eq. 3.4):
  /// 25 setup cycles + 1 cycle per 2 bytes.
  static Cycles dma_cycles(MemSize bytes) { return 25 + bytes / 2; }

private:
  OptLevel opt_;
};

} // namespace pimdnn::sim
