// Deterministic fault injection for the simulated UPMEM substrate.
//
// Real UPMEM systems are not fault-free: Gómez-Luna et al.
// (arXiv:2105.03814) run on 2,556 of a nominal 2,560 DPUs because ranks
// ship with disabled DPUs, and production host code must survive failed
// allocations, transfers and launches. The simulator reproduces those
// failure modes on demand so the runtime's recovery policy (quarantine,
// retry, CPU fallback — see runtime/dpu_pool.hpp, runtime/kernel_session.hpp)
// can be exercised and tested.
//
// The plan is configured once per process from the PIMDNN_FAULTS
// environment variable (or programmatically via set_fault_config) and is
// *deterministic*: every fault decision is a pure hash of
// (seed, fault kind, bank, DPU index, per-(bank, DPU, kind) draw ordinal),
// so a fixed seed reproduces the exact same fault sequence regardless of
// how the launch loop's worker threads interleave — each DPU's draws
// advance its own atomic ordinal. The two banks of a pipeline number their
// DPUs from 0 and launch concurrently, so each bank keeps its own ordinals;
// bank 0 hashes exactly as a plan without banks would.
//
// PIMDNN_FAULTS grammar (comma-separated key=value; unknown keys throw
// ConfigError):
//   seed=N            hash seed (default 0x5eed)
//   bad=R             probability a DPU is permanently faulty at allocation
//   bad_mask=0xM      bitmask of permanently faulty DPU indices (bits 0..63)
//   alloc=R           probability a DpuSet allocation fails outright
//   launch=R          per-DPU-launch probability of a launch failure
//   hang=R            per-DPU-launch probability of a hang past the deadline
//   hang_cycles=N     cycles a hung DPU burns before the deadline trips
//   xfer=R            per-transfer probability of a to-DPU bit flip
//   mram=R            per-program-load probability of an MRAM bit flip
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pimdnn::sim {

/// The failure modes the substrate can inject.
enum class FaultKind : std::uint8_t {
  AllocFail,       ///< DpuSet allocation fails (rank unavailable)
  BadDpu,          ///< DPU permanently faulty from allocation onward
  LaunchFail,      ///< one launch on one DPU fails
  LaunchHang,      ///< one launch hangs past the cycle deadline
  TransferCorrupt, ///< a to-DPU transfer flips one bit
  MramCorrupt,     ///< a program (re)load flips one MRAM bit
};

/// Number of FaultKind values (draw-counter table width).
constexpr std::size_t kFaultKinds = 6;

/// Stable lower-case name of a fault kind (metrics suffixes, messages).
const char* fault_kind_name(FaultKind kind);

/// Typed error for an injected (or detected) DPU fault: carries which
/// physical DPU failed and how, so the runtime can strike/quarantine it.
class DpuFault : public Error {
public:
  DpuFault(std::uint32_t dpu_index, FaultKind kind, const std::string& what)
      : Error(what), dpu_index_(dpu_index), kind_(kind) {}

  /// Physical index of the failing DPU within its DpuSet.
  std::uint32_t dpu_index() const { return dpu_index_; }

  /// What went wrong.
  FaultKind kind() const { return kind_; }

private:
  std::uint32_t dpu_index_;
  FaultKind kind_;
};

/// Fault rates/masks; all-zero (the default) disables injection entirely.
struct FaultConfig {
  std::uint64_t seed = 0x5eed;
  double alloc_fail_rate = 0.0;
  double bad_dpu_rate = 0.0;
  std::uint64_t bad_dpu_mask = 0; ///< bit i => DPU i permanently faulty
  double launch_fail_rate = 0.0;
  double launch_hang_rate = 0.0;
  Cycles hang_deadline_cycles = 10'000'000; ///< burned by a hung launch
  double transfer_corrupt_rate = 0.0;
  double mram_corrupt_rate = 0.0;

  /// True if any fault can ever fire under this config.
  bool any() const;

  /// Round-trippable key=value rendering (diagnostics).
  std::string describe() const;
};

/// Parses the PIMDNN_FAULTS grammar; throws ConfigError on unknown keys,
/// malformed values or rates outside [0, 1].
FaultConfig parse_fault_config(const std::string& spec);

/// Process-wide deterministic fault source. All decisions are stateless
/// hashes except for the per-(bank, DPU, kind) draw ordinals, which make
/// successive draws on one DPU distinct while staying independent of
/// cross-DPU and cross-bank thread interleaving.
class FaultPlan {
public:
  /// False when every rate/mask is zero: every hook is then a single
  /// branch, so a fault-free run pays nothing.
  bool enabled() const { return enabled_; }

  /// The active configuration.
  const FaultConfig& config() const { return cfg_; }

  /// True if physical DPU `dpu_index` is permanently faulty (mask bit or
  /// stateless per-index hash against bad_dpu_rate). Stable per process.
  bool bad_dpu(std::uint32_t dpu_index) const;

  /// Draws one fault decision for `kind` on DPU `dpu_index` of pipeline
  /// bank `bank` (0 or 1), advancing that (bank, DPU, kind) ordinal. On a
  /// hit returns true and sets `salt` to a deterministic value the caller
  /// uses to pick the corrupted byte/bit; also bumps the obs
  /// `faults.injected` counters.
  bool draw(FaultKind kind, unsigned bank, std::uint32_t dpu_index,
            std::uint64_t& salt);

  /// Replaces the configuration and resets every draw ordinal (tests,
  /// benches). Prefer sim::set_fault_config().
  void configure(const FaultConfig& cfg);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

private:
  friend FaultPlan& fault_plan();
  FaultPlan();

  double rate_for(FaultKind kind) const;

  FaultConfig cfg_;
  bool enabled_ = false;
  /// Draw ordinals, indexed
  /// ((bank % kBanks) * kTrackedDpus + dpu % kTrackedDpus) * kFaultKinds
  /// + kind.
  std::vector<std::atomic<std::uint64_t>> ordinals_;
};

/// The process-wide plan. First access parses PIMDNN_FAULTS (empty/unset
/// leaves injection disabled).
FaultPlan& fault_plan();

/// Installs `cfg` on the process-wide plan and resets its draw ordinals.
void set_fault_config(const FaultConfig& cfg);

/// FNV-1a 64-bit checksum — the runtime's transfer/residency verifier.
std::uint64_t checksum64(const void* data, std::size_t size);

} // namespace pimdnn::sim
