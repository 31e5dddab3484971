// Host-side runtime mirroring the UPMEM SDK's `dpu_set` API (thesis §3.2).
//
// The host allocates a set of DPUs, loads one program onto all of them
// (SIMD across DPUs, §3.1), moves data with either broadcast transfers
// (`dpu_copy_to`, Eq. 3.1) or per-DPU scatter/gather transfers
// (`dpu_prepare_xfer` + `dpu_push_xfer`, Eqs. 3.2/3.3), and launches all
// DPUs in parallel. Every transfer enforces UPMEM's 8-byte alignment and
// divisibility rule; payloads that violate it must be padded with
// `pad_to_xfer` and their true size communicated separately — exactly the
// discipline the thesis describes.
//
// Transfers, loads and launches optionally address only the first
// `n_active` DPUs (the SDK's sub-set/rank addressing), which lets a
// persistent pool (dpu_pool.hpp) keep one large set allocated while a
// small layer runs on a prefix of it. Every host-side operation is also
// wall-clock timed into a cumulative sim::HostXferStats so the host-path
// overhead the thesis' §4.3 numbers hide (allocate + load + scatter +
// gather per layer) is observable.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_mode.hpp"
#include "common/types.hpp"
#include "sim/dpu.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"

namespace pimdnn::runtime {

using sim::Dpu;
using sim::DpuProgram;
using sim::DpuRunStats;
using sim::OptLevel;
using sim::SubroutineProfile;
using sim::UpmemConfig;

/// Direction of a prepared scatter/gather transfer.
enum class XferDir : std::uint8_t {
  ToDpu,   ///< DPU_XFER_TO_DPU
  FromDpu, ///< DPU_XFER_FROM_DPU
};

/// Aggregate result of launching a kernel across a DpuSet.
struct LaunchStats {
  /// Wall-clock cycles: all DPUs run in parallel, so the set finishes when
  /// the slowest DPU finishes (§4.1.3: "run in parallel to finish their
  /// batch of images at the max time for one DPU").
  Cycles wall_cycles = 0;
  /// Wall-clock seconds at the DPU frequency.
  Seconds wall_seconds = 0.0;
  /// Sum of cycles over all DPUs (device-time, for energy accounting).
  Cycles total_cycles = 0;
  /// Per-DPU results.
  std::vector<DpuRunStats> per_dpu;
  /// Merged subroutine profile across all DPUs.
  SubroutineProfile profile;
  /// Host-side (non-DPU-cycle) overhead attributable to this launch:
  /// transfer walls, bytes moved and program loads. Filled by the pooled
  /// paths (DpuPool / dpu_gemm / Offloader); zero when the caller drove
  /// the DpuSet by hand without snapshotting.
  sim::HostXferStats host;
  /// Launch attempts the session repeated after an injected fault.
  std::uint32_t retries = 0;
  /// Faults the session absorbed (retried launches + repaired transfers).
  std::uint32_t faults_absorbed = 0;
  /// DPUs the pool quarantined during this offload.
  std::uint32_t quarantined = 0;
  /// Modeled cycles lost to failed attempts (backoff + hang deadlines) —
  /// kept out of wall_cycles so fault runs stay comparable to clean ones.
  Cycles retry_cycles = 0;
  /// True when the offload degraded to the host/baseline CPU path.
  bool cpu_fallback = false;

  /// Running per-bank wall sums of one split launch's chunks (see merge).
  struct BankWalls {
    Cycles cycles[2] = {0, 0};
    Seconds seconds[2] = {0.0, 0.0};
  };

  /// Folds chunk `o` of a split launch, which ran on `bank` (0 or 1), into
  /// this total — how one workload run as K chunks reports a single
  /// result. The two banks run at the same time and each bank's chunks run
  /// back to back, so the merged wall (cycles and seconds, sim clock) is
  /// the larger of the two banks' summed chunk walls; `walls` carries those
  /// sums from chunk to chunk. Everything else adds, and per-DPU stats
  /// append in chunk order. A single chunk folds to its own stats.
  LaunchStats& merge(const LaunchStats& o, unsigned bank, BankWalls& walls) {
    walls.cycles[bank] += o.wall_cycles;
    walls.seconds[bank] += o.wall_seconds;
    wall_cycles = std::max(walls.cycles[0], walls.cycles[1]);
    wall_seconds = std::max(walls.seconds[0], walls.seconds[1]);
    total_cycles += o.total_cycles;
    per_dpu.insert(per_dpu.end(), o.per_dpu.begin(), o.per_dpu.end());
    profile.merge(o.profile);
    host += o.host;
    retries += o.retries;
    faults_absorbed += o.faults_absorbed;
    quarantined += o.quarantined;
    retry_cycles += o.retry_cycles;
    cpu_fallback = cpu_fallback || o.cpu_fallback;
    return *this;
  }
};

/// A set of simulated DPUs plus the host orchestration state.
class DpuSet {
public:
  /// Allocates `n_dpus` DPUs; throws CapacityError if the system does not
  /// have that many (Table 2.1: 2,560). `bank` (0 or 1) keys this set's
  /// fault draws, so the two banks of a pipeline draw independent streams.
  static DpuSet allocate(std::uint32_t n_dpus,
                         const UpmemConfig& cfg = sim::default_config(),
                         unsigned bank = 0);

  /// Number of DPUs in the set.
  std::uint32_t size() const { return static_cast<std::uint32_t>(dpus_.size()); }

  /// Access to one DPU (tests and advanced orchestration).
  Dpu& dpu(DpuId id);

  /// Const access to one DPU.
  const Dpu& dpu(DpuId id) const;

  /// Loads the same program on every DPU in the set.
  void load(const DpuProgram& program);

  /// Broadcast copy (dpu_copy_to): same bytes to the named symbol on the
  /// first `n_active` DPUs (0 = every DPU in the set). `size` must satisfy
  /// the 8-byte rule; `symbol_offset` likewise.
  void copy_to(const std::string& symbol, MemSize symbol_offset,
               const void* src, MemSize size, std::uint32_t n_active = 0);

  /// Writes to exactly one (logical) DPU — the runtime's targeted repair
  /// path after a detected transfer corruption.
  void copy_to_one(DpuId id, const std::string& symbol, MemSize symbol_offset,
                   const void* src, MemSize size);

  /// Reads back from one DPU (dpu_copy_from).
  void copy_from(DpuId id, const std::string& symbol, MemSize symbol_offset,
                 void* dst, MemSize size) const;

  /// Registers a distinct host buffer for one DPU (dpu_prepare_xfer). The
  /// pointer must stay valid until the matching push_xfer.
  void prepare_xfer(DpuId id, void* buffer);

  /// Executes the prepared transfers (dpu_push_xfer): moves `length` bytes
  /// between each prepared buffer and the named symbol at `symbol_offset`,
  /// in the given direction. The first `n_active` DPUs (0 = all) must have
  /// a prepared buffer. Length/offset must satisfy the 8-byte rule.
  void push_xfer(XferDir dir, const std::string& symbol,
                 MemSize symbol_offset, MemSize length,
                 std::uint32_t n_active = 0);

  /// Launches the loaded program on the first `n_active` DPUs (0 = all)
  /// with `n_tasklets` tasklets at optimization level `opt`; active DPUs
  /// execute in parallel (host threads).
  LaunchStats launch(std::uint32_t n_tasklets, OptLevel opt = OptLevel::O3,
                     std::uint32_t n_active = 0);

  /// Total bytes the host has pushed to DPUs (telemetry).
  std::uint64_t bytes_to_dpus() const { return host_.bytes_to_dpu; }

  /// Total bytes the host has pulled from DPUs (telemetry).
  std::uint64_t bytes_from_dpus() const { return host_.bytes_from_dpu; }

  /// Cumulative host-side transfer/load accounting since allocation.
  /// Snapshot before/after a phase and diff with sim::host_xfer_delta.
  const sim::HostXferStats& host_stats() const { return host_; }

  /// Records one program build/load avoided by a cache (called by DpuPool
  /// when an activation is served from its program cache).
  void note_cached_activation() { host_.cached_activations += 1; }

  /// Architecture configuration shared by all DPUs in the set.
  const UpmemConfig& config() const { return cfg_; }

  /// Execution mode every launch on this set passes to Dpu::launch
  /// (fast-path vs interpreted; see common/sim_mode.hpp). Snapshot of
  /// default_sim_mode() at allocation; fault injection, quarantine and
  /// logical remapping behave identically in both modes.
  SimMode sim_mode() const { return sim_mode_; }

  /// Overrides the launch mode for this set.
  void set_sim_mode(SimMode mode) { sim_mode_ = mode; }

  /// Installs a logical->physical DPU remap: logical DPU i of every
  /// subsequent transfer/launch addresses physical DPU `map[i]`. An empty
  /// map restores the identity. The pool uses this to slide the active
  /// prefix off quarantined DPUs without the sessions noticing.
  void set_logical_map(std::vector<std::uint32_t> map);

  /// Physical index behind logical DPU `id` (identity without a map).
  std::uint32_t physical(DpuId id) const;

  /// DPUs addressable through the current logical map (== size() when no
  /// map is installed).
  std::uint32_t logical_size() const {
    return map_.empty() ? size() : static_cast<std::uint32_t>(map_.size());
  }

  /// True if the fault plan marked physical DPU `id` permanently faulty at
  /// allocation time.
  bool allocated_bad(DpuId id) const;

  /// Self-checking canary on *physical* DPU `phys` (quarantine probation,
  /// see runtime/health.hpp): draws the launch-fault verdicts the fault
  /// plan would apply to a real launch, then exercises the DPU's MRAM with
  /// a write/read-back/restore pattern. Returns true when the DPU looks
  /// healthy. Deterministic and independent of the execution mode, so
  /// interp and fast runs make identical reintegration decisions.
  bool probe(std::uint32_t phys);

private:
  DpuSet(std::uint32_t n_dpus, const UpmemConfig& cfg, unsigned bank);
  static void check_aligned(MemSize offset, MemSize size);
  std::uint32_t resolve_active(std::uint32_t n_active) const;
  /// Transfer-corruption hook: one deterministic bit flip inside the range
  /// just written to (logical) DPU `id`, when the fault plan says so.
  void maybe_corrupt_write(std::uint32_t phys, const std::string& symbol,
                           MemSize symbol_offset, MemSize size);

  UpmemConfig cfg_;
  unsigned bank_ = 0; ///< fault-draw bank (see allocate)
  std::vector<Dpu> dpus_;
  std::vector<void*> prepared_;
  std::vector<std::uint32_t> map_; ///< logical->physical (empty = identity)
  std::vector<char> bad_;          ///< permanently faulty at allocation
  SimMode sim_mode_ = SimMode::Interp; ///< set from default_sim_mode() in ctor
  mutable sim::HostXferStats host_;
};

} // namespace pimdnn::runtime
