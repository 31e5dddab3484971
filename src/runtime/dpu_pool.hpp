// Persistent DPU pool: one DpuSet reused across kernels, layers and frames.
//
// The thesis' YOLOv3 host path re-allocates a DpuSet, re-loads the GEMM
// program and re-scatters the weight rows for every convolutional layer of
// every frame — exactly the first-order host overheads Gómez-Luna et al.
// (arXiv:2105.03814) measure on real UPMEM systems. The pool amortizes all
// three:
//
//  * **Allocation** happens once: the pool keeps a single DpuSet sized for
//    the largest kernel seen (`reserve`); small kernels run on a prefix of
//    it via the set's `n_active` addressing.
//  * **Program loads** are cached by a caller-chosen signature string
//    (`activate`): the program is built once per signature, and re-activating
//    the signature that is already loaded is a no-op.
//  * **MRAM residency**: each cached program gets a *disjoint* MRAM region
//    (a bump allocator prepends a reservation symbol, so symbol placement
//    lands past every earlier program's region). Because `Dpu::load`
//    preserves memory contents — as real hardware does — data uploaded under
//    one signature survives activations of other signatures. Callers tag
//    uploads with the two-phase `begin_resident`/`commit_resident` record
//    and skip the transfer when `resident_matches` on later frames; this is
//    how the YOLOv3 path keeps its A-row weights on the DPUs between frames
//    and re-sends only the im2col input. The record commits only after the
//    upload succeeded, so a throwing transfer can never leave a poisoned
//    "already resident" claim behind.
//
// When the cumulative MRAM footprint of cached programs would exceed the
// per-DPU capacity, the cache is reset wholesale (counted in `resets()`)
// and signatures re-populate on demand — a simple policy that is exact for
// the workloads here, whose per-layer footprints sum well below 64 MB.
//
// The pool is also the substrate's health authority, delegating policy to
// runtime::HealthManager (see runtime/health.hpp): KernelSession reports
// per-DPU faults through `note_fault`; when the decaying strike window
// trips (immediately for a permanently-bad DPU) the DPU is quarantined,
// the set's logical prefix is remapped onto the remaining in-service DPUs
// and every resident record and the constant count (`const_dpus`) are
// dropped — the remapped DPUs never saw those uploads. Unlike a one-way
// quarantine, capacity comes *back*: `maintain()` (called by every
// KernelSession::finish) ticks the health clock, canary-probes one due
// quarantined DPU per step and, after `probation_passes` clean probes,
// reintegrates it — remapping again, raising `plan_capacity()` so
// mapping-plan caches keyed on it re-plan, and clearing
// the active program so the next session re-uploads WRAM constants the
// returning DPU never saw. `scrub_step()` (called by fault-tolerant
// sessions between activation and their resident-hit check) re-verifies a
// budgeted slice of the active program's checksummed MRAM-resident slots
// and repairs silent corruption from the payload copy retained at commit
// — before it can poison a launch or evict a warm resident record.
// `healthy_capacity` tells sessions whether a kernel still fits; when it
// does not, they degrade to the CPU baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/dpu_set.hpp"
#include "runtime/health.hpp"

namespace pimdnn::runtime {

/// Recycled staging buffers for the scatter/broadcast/gather path.
///
/// Warm frames repeat the same sequence of per-DPU staging and gather
/// buffer sizes every frame; allocating them afresh per layer was pure
/// churn. The arena keeps a bounded LIFO free list: `acquire` hands back a
/// zeroed buffer (reusing a freed one whose capacity already suffices —
/// counted in the obs counters `pool.arena.hit` / `pool.arena.miss`), and
/// `release` returns it. Because the acquire/release sequence of a warm
/// frame is deterministic and capacities only grow, the free list reaches
/// a fixed point after at most two warm frames and steady-state frames do
/// zero allocations on this path. Thread-safe: pipelined frame drivers on
/// different banks share one pool object per bank but an arena may also be
/// shared across sessions in flight.
class StagingArena {
public:
  /// A zero-filled buffer of exactly `bytes` bytes.
  std::vector<std::uint8_t> acquire(std::size_t bytes);

  /// Returns a buffer to the free list (bounded; excess is freed).
  void release(std::vector<std::uint8_t>&& buf);

private:
  /// Free-list bound: past this, released buffers are simply freed.
  static constexpr std::size_t kMaxFree = 256;

  std::mutex mu_;
  std::vector<std::vector<std::uint8_t>> free_;
};

/// Persistent, program-caching owner of one DpuSet (see file comment).
class DpuPool {
public:
  explicit DpuPool(const UpmemConfig& cfg = sim::default_config());

  /// What `activate` had to do for the requested signature.
  enum class Activation : std::uint8_t {
    /// Program built and loaded for the first time (or re-built after a
    /// pool reset/grow): the caller must upload metadata *and* resident
    /// data.
    Fresh,
    /// A cached program was re-loaded: its MRAM region is intact (resident
    /// data survives) but WRAM metadata was clobbered by other programs
    /// and must be re-broadcast.
    Switched,
    /// The signature is already the active program: nothing was re-loaded.
    Active,
  };

  /// Launch faults a DPU survives before quarantine (BadDpu quarantines
  /// immediately). Strikes decay — see StrikeWindow in runtime/health.hpp.
  static constexpr std::uint32_t kStrikeLimit = 3;

  /// Consecutive clean canary probes before a quarantined DPU rejoins.
  static constexpr std::uint32_t kProbationPasses = 3;

  /// MRAM bytes one scrub_step re-verifies (the per-frame patrol budget).
  static constexpr MemSize kScrubBudgetBytes = 64 * 1024;

  /// Ensures the pool's set holds at least `n_dpus` *healthy* DPUs —
  /// over-allocating past known-quarantined capacity when needed (capped
  /// at the system size). Growing re-allocates the set and resets the
  /// program cache and health map (resident data is lost); callers that
  /// know their peak width should reserve it up front. A failed allocation
  /// leaves the pool exactly as it was.
  void reserve(std::uint32_t n_dpus);

  /// DPUs currently allocated (0 before the first reserve/activate).
  std::uint32_t size() const;

  /// Activates the program registered under `key` for `n_dpus` DPUs,
  /// building it with `builder` on first use. Returns what the caller must
  /// re-upload (see Activation). Re-activating a signature with a larger
  /// `n_dpus` than before re-runs the builder and drops that signature's
  /// residents (the extra DPUs never saw them).
  Activation activate(const std::string& key, std::uint32_t n_dpus,
                      const std::function<sim::DpuProgram()>& builder);

  /// True if resident datum `tag` at `version` is committed for the
  /// *active* program — the caller may skip its transfer. Each cached
  /// program tracks exactly ONE resident datum: beginning a different
  /// (tag, version) replaces the record, because the program's MRAM region
  /// holds only the most recent upload (callers that want per-dataset
  /// residency should fold the tag into the activation key so each dataset
  /// gets its own region).
  bool resident_matches(const std::string& tag, std::uint64_t version) const;

  /// Starts an upload of resident datum (tag, version) for the active
  /// program: the record is written *invalid*, so a throwing upload leaves
  /// "nothing resident" rather than a poisoned claim. Pair with
  /// commit_resident after the transfer succeeds.
  void begin_resident(const std::string& tag, std::uint64_t version);

  /// Marks the begun (tag, version) upload as complete, optionally storing
  /// one checksum per logical DPU so later hits can verify the payload
  /// still matches (fault runs). When `symbol`/`slot_bytes`/`payload` are
  /// provided (fault runs), the scrub patrol can re-verify — and repair —
  /// the record between launches; see scrub_step. Throws UsageError
  /// without a matching begin_resident.
  void commit_resident(const std::string& tag, std::uint64_t version,
                       std::vector<std::uint64_t> checksums = {},
                       const std::string& symbol = "", MemSize slot_bytes = 0,
                       std::vector<std::vector<std::uint8_t>> payload = {});

  /// Per-DPU checksums stored by the active program's last commit (empty
  /// when none were provided).
  const std::vector<std::uint64_t>& resident_checksums() const;

  /// Records a fault on *physical* DPU `phys`. Returns true when this
  /// strike quarantined the DPU: the set's logical prefix was remapped
  /// onto the healthy remainder and every resident record was dropped —
  /// the caller must re-upload (or re-route) before launching again.
  bool note_fault(std::uint32_t phys, sim::FaultKind kind);

  /// DPUs not quarantined (0 before the first reserve/activate).
  std::uint32_t healthy_capacity() const;

  /// DPUs currently out of service (quarantined or on probation).
  std::uint32_t quarantined() const { return health_.out_of_service(); }

  /// Capacity the mapper should plan against: the full system before the
  /// first allocation, otherwise what the current health picture suggests
  /// will actually be available (healthy DPUs, or the system size minus
  /// the out-of-service count when the pool could still grow past them).
  std::uint32_t plan_capacity() const;

  /// Monotone counter bumped on every capacity change — quarantine *and*
  /// reintegration — and on every (re)allocation, which changes no
  /// capacity the mapper sees; plan caches key on `plan_capacity()`.
  std::uint64_t health_epoch() const { return health_epoch_; }

  /// One maintenance step, piggybacked on warm frames: ticks the health
  /// clock and canary-probes at most one due quarantined DPU (see
  /// runtime/health.hpp). A passing probe streak reintegrates the DPU:
  /// the logical prefix is remapped back over it, residents drop, the
  /// health epoch bumps and the active program is cleared so the next
  /// activation re-loads and re-broadcasts onto the returning DPU.
  /// KernelSession::finish calls this once per offload.
  void maintain();

  /// One budgeted scrub-patrol step over the *active* program's
  /// checksummed resident record (kScrubBudgetBytes per call, cursor
  /// round-robin across DPU slots): re-reads each slot, and on a checksum
  /// mismatch repairs it from the payload copy retained at commit
  /// (obs: scrub.scanned / scrub.repaired). An unrepairable slot
  /// invalidates the record so the session's miss path re-uploads.
  /// Fault-tolerant sessions call this right after activation — before
  /// their resident-hit check, so a repaired record still counts as warm.
  void scrub_step();

  /// The health authority (state machine, strike window, breaker).
  HealthManager& health() { return health_; }
  const HealthManager& health() const { return health_; }

  /// Circuit-breaker gate for launch ladders: false while the breaker is
  /// open (sessions then short-circuit to the CPU path). See
  /// runtime/health.hpp.
  bool breaker_allow();

  /// Reports a launch-ladder outcome to the breaker (true = the ladder
  /// completed on the DPUs, false = it exhausted/cancelled into fallback).
  void breaker_result(bool ok);

  /// Re-loads the cached program under `key` (onto the possibly remapped
  /// set) and makes it active — the recovery step after a quarantine
  /// remap. Returns false when `key` is not cached.
  bool reactivate(const std::string& key);

  /// DPU span of the active program (what launches/transfers should use).
  std::uint32_t active_dpus() const;

  /// Logical DPUs [0, n) known to hold every WRAM constant of the active
  /// program; every program load, logical-map change and cache reset
  /// zeroes it (see KernelSession::broadcast_const).
  std::uint32_t const_dpus() const { return const_dpus_; }

  /// Records that logical DPUs [0, n) hold the active program's constants.
  void set_const_dpus(std::uint32_t n) { const_dpus_ = n; }

  /// The pooled set. Valid after the first reserve/activate. Transfers and
  /// launches should pass `active_dpus()` as `n_active`.
  DpuSet& set();

  /// Cumulative host-side accounting across the pool's whole lifetime
  /// (survives set re-allocation). Snapshot/diff with sim::host_xfer_delta.
  sim::HostXferStats host_stats() const;

  /// Number of wholesale cache resets (MRAM budget overflow or growth).
  std::uint64_t resets() const { return resets_; }

  /// Number of program signatures currently cached.
  std::size_t cached_programs() const { return entries_.size(); }

  /// Architecture configuration.
  const UpmemConfig& config() const { return cfg_; }

  /// Execution mode applied to the pooled set (see common/sim_mode.hpp).
  /// Snapshot of default_sim_mode() at pool construction; persists across
  /// reserve() re-allocation of the underlying set.
  SimMode sim_mode() const { return sim_mode_; }

  /// Overrides the launch mode for this pool (applied to the current set
  /// and every future re-allocation).
  void set_sim_mode(SimMode mode);

  /// Recycled staging buffers shared by every session on this pool.
  StagingArena& arena() { return arena_; }

  /// Pipeline bank this pool plays (0 or 1): the double-buffered executors
  /// tag their two pools so sessions stamp the bank id into their spans,
  /// and every set the pool allocates keys its fault draws by it, so the
  /// two banks draw independent streams. Set it before the first reserve().
  void set_obs_bank(unsigned bank) { obs_bank_ = bank; }
  unsigned obs_bank() const { return obs_bank_; }

private:
  struct Entry {
    sim::DpuProgram prog;      ///< builder's program + MRAM base reservation
    MemSize mram_base = 0;     ///< start of this program's MRAM region
    MemSize mram_bytes = 0;    ///< MRAM footprint past the base
    std::uint32_t n_dpus = 0;  ///< widest DPU span activated so far
    std::string resident_tag;  ///< identity of the last begun upload
    std::uint64_t resident_version = 0;
    bool resident_valid = false; ///< true only after commit_resident
    std::vector<std::uint64_t> resident_sums; ///< per-DPU payload checksums
    std::string resident_symbol; ///< scrub target symbol ("" = no patrol)
    MemSize resident_slot_bytes = 0;
    /// Per-logical-DPU payload copy for scrub repair (fault runs only).
    std::vector<std::vector<std::uint8_t>> resident_payload;
    std::uint32_t scrub_cursor = 0; ///< next logical slot the patrol reads
  };

  void reset_cache();
  void drop_residents();
  Entry build_entry(const std::function<sim::DpuProgram()>& builder,
                    std::uint32_t n_dpus);
  void load_program(const sim::DpuProgram& prog);
  /// Rebuilds the logical prefix over the in-service DPUs after any
  /// capacity change, drops residents and bumps the health epoch.
  void remap_in_service();
  void update_health_gauges() const;

  UpmemConfig cfg_;
  SimMode sim_mode_ = SimMode::Interp; ///< set from default_sim_mode() in ctor
  std::optional<DpuSet> set_;
  std::map<std::string, Entry> entries_;
  std::string active_;           ///< empty = no active program
  std::uint32_t const_dpus_ = 0; ///< see const_dpus()
  MemSize mram_cursor_ = 0;      ///< bump allocator over cached regions
  std::uint64_t resets_ = 0;
  sim::HostXferStats carried_;   ///< host stats of replaced sets
  HealthManager health_;         ///< per-DPU lifecycle + strikes + breaker
  std::uint64_t health_epoch_ = 0;
  StagingArena arena_;
  unsigned obs_bank_ = 0;
};

} // namespace pimdnn::runtime
