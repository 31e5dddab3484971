// Simulator execution-mode selection (PIMDNN_SIM_MODE).
//
// The simulator has two ways to execute a kernel body:
//
//  * `interp` (default) — the per-operation interpreted path: every add,
//    xor, popcount and soft-float call goes through TaskletCtx, which
//    computes the value and charges the cost model as it goes.
//  * `fast` — a batched functional evaluator: programs that provide a
//    `DpuProgram::fast_entry` compute the same memory effects with native
//    host arithmetic (soft-float results still route through the bit-exact
//    soft-float library) and apply the identical charges in closed form.
//    The contract — bit-exact memory, cycle-exact DpuRunStats — is enforced
//    by the dual-run cross-check tests (tests/test_fast_mode.cpp).
//
// Programs without a fast twin always interpret, whatever the mode. The
// process default comes from the PIMDNN_SIM_MODE environment variable and
// can be overridden programmatically (benches run both modes in one
// process); DpuSet/DpuPool snapshot the default at construction and expose
// per-instance setters.
//
// A phased (barrier) program's twin runs once per phase, like its entry.
// The mode also fixes the tasklet order inside a phase: interp runs the
// highest tasklet id first, fast runs tasklet 0 first. Both are legal
// schedules of the barrier, so a kernel that reads another tasklet's
// same-phase writes gives different bytes in the two modes, and the
// dual-run tests catch it.
#pragma once

#include <cstdint>
#include <string>

namespace pimdnn {

/// How a Dpu::launch executes kernel bodies.
enum class SimMode : std::uint8_t {
  Interp, ///< per-operation interpreted execution (default)
  Fast,   ///< batched functional evaluation with closed-form charging
};

/// Printable name ("interp"/"fast").
const char* sim_mode_name(SimMode m);

/// Parses "interp" or "fast"; throws ConfigError on anything else.
SimMode parse_sim_mode(const std::string& text);

/// The process-wide default mode: PIMDNN_SIM_MODE on first call (empty or
/// unset means Interp), or whatever set_default_sim_mode installed.
SimMode default_sim_mode();

/// Overrides the process default (tests and benches that compare modes).
void set_default_sim_mode(SimMode m);

} // namespace pimdnn
