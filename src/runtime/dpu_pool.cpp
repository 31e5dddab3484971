#include "runtime/dpu_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pimdnn::runtime {

using pimdnn::UsageError;
using sim::MemKind;

std::vector<std::uint8_t> StagingArena::acquire(std::size_t bytes) {
  std::vector<std::uint8_t> buf;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
    }
  }
  obs::Metrics::instance().add(
      buf.capacity() >= bytes ? "pool.arena.hit" : "pool.arena.miss");
  buf.assign(bytes, 0); // reallocates only when capacity is short (a miss)
  return buf;
}

void StagingArena::release(std::vector<std::uint8_t>&& buf) {
  if (buf.capacity() == 0) {
    return;
  }
  buf.clear();
  std::lock_guard<std::mutex> lk(mu_);
  if (free_.size() < kMaxFree) {
    free_.push_back(std::move(buf));
  }
}

namespace {

/// Name of the reservation symbol prepended to every cached program so its
/// real MRAM symbols are bump-placed past the regions of earlier programs.
constexpr const char* kPoolBaseSymbol = "__pool_base";

/// MRAM bytes the program's symbols occupy when placed starting at `base`
/// (mirrors the bump placement in Dpu::load).
MemSize mram_footprint(const sim::DpuProgram& prog, MemSize base) {
  MemSize top = base;
  for (const sim::SymbolDecl& d : prog.symbols) {
    if (d.kind != MemKind::Mram) continue;
    top = align_up(top, kXferAlign) + d.size;
  }
  return top - base;
}

} // namespace

DpuPool::DpuPool(const UpmemConfig& cfg)
    : cfg_(cfg), sim_mode_(default_sim_mode()) {}

void DpuPool::set_sim_mode(SimMode mode) {
  sim_mode_ = mode;
  if (set_.has_value()) {
    set_->set_sim_mode(mode);
  }
}

std::uint32_t DpuPool::size() const {
  return set_.has_value() ? set_->size() : 0;
}

void DpuPool::reserve(std::uint32_t n_dpus) {
  if (set_.has_value() && n_dpus <= set_->size() &&
      healthy_capacity() >= n_dpus) {
    return;
  }
  // Over-allocate past the quarantined capacity so the healthy prefix
  // still covers the request (the known-bad DPUs will be re-discovered
  // and re-quarantined on the fresh set).
  std::uint64_t target = n_dpus;
  if (set_.has_value()) {
    target = std::max<std::uint64_t>(
        target, static_cast<std::uint64_t>(n_dpus) + quarantined());
    target = std::max<std::uint64_t>(target, set_->size());
  }
  // Clamp only the quarantine over-allocation to the system size: a request
  // that is itself too large must still fail with CapacityError below.
  if (target > cfg_.total_dpus && n_dpus <= cfg_.total_dpus) {
    target = cfg_.total_dpus;
  }
  // Allocate before touching any cache state: a failed (or fault-injected)
  // allocation must leave the pool exactly as it was — no half-built
  // entries, no phantom reset.
  DpuSet fresh =
      DpuSet::allocate(static_cast<std::uint32_t>(target), cfg_, obs_bank_);
  if (set_.has_value()) {
    // Re-allocating discards every DPU's memory, so cached programs and
    // their residents are gone; keep the lifetime host accounting.
    carried_ += set_->host_stats();
    ++resets_;
  }
  reset_cache();
  set_.emplace(std::move(fresh));
  set_->set_sim_mode(sim_mode_);
  health_.resize(set_->size());
  ++health_epoch_;
  update_health_gauges();
}

void DpuPool::reset_cache() {
  entries_.clear();
  active_.clear();
  mram_cursor_ = 0;
  const_dpus_ = 0;
}

void DpuPool::drop_residents() {
  for (auto& [key, e] : entries_) {
    e.resident_valid = false;
    e.resident_tag.clear();
    e.resident_version = 0;
    e.resident_sums.clear();
    e.resident_symbol.clear();
    e.resident_slot_bytes = 0;
    e.resident_payload.clear();
    e.scrub_cursor = 0;
  }
}

DpuPool::Entry DpuPool::build_entry(
    const std::function<sim::DpuProgram()>& builder, std::uint32_t n_dpus) {
  obs::Span sp("program.build", "pool");
  Entry e;
  e.prog = builder();
  if (sp.active()) {
    sp.str("program", e.prog.name);
  }
  e.mram_base = mram_cursor_;
  e.mram_bytes = mram_footprint(e.prog, e.mram_base);
  e.n_dpus = n_dpus;
  if (e.mram_base > 0) {
    e.prog.symbols.insert(
        e.prog.symbols.begin(),
        sim::SymbolDecl{kPoolBaseSymbol, MemKind::Mram, e.mram_base});
  }
  return e;
}

DpuPool::Activation DpuPool::activate(
    const std::string& key, std::uint32_t n_dpus,
    const std::function<sim::DpuProgram()>& builder) {
  require(n_dpus > 0, "DpuPool::activate with zero DPUs");
  obs::Span sp("activate", "pool");
  if (sp.active()) {
    sp.str("signature", key);
    sp.u64("n_dpus", n_dpus);
  }
  const auto done = [&sp](Activation a, const char* name) {
    obs::Metrics::instance().add(std::string("pool.activate.") + name);
    sp.str("result", name);
    return a;
  };
  reserve(n_dpus);

  auto it = entries_.find(key);
  if (it != entries_.end() && n_dpus > it->second.n_dpus) {
    // The extra DPUs never saw this program or its residents: rebuild the
    // entry over the wider span, reusing its MRAM region (same footprint —
    // the signature pins the symbol sizes).
    Entry wider = build_entry(builder, n_dpus);
    require(wider.mram_bytes == it->second.mram_bytes,
            "DpuPool: builder for '" + key +
                "' changed its MRAM footprint between activations");
    wider.mram_base = it->second.mram_base;
    it->second = std::move(wider);
    load_program(it->second.prog);
    active_ = key;
    return done(Activation::Fresh, "fresh");
  }
  if (it != entries_.end()) {
    if (active_ == key) {
      set_->note_cached_activation();
      return done(Activation::Active, "active");
    }
    load_program(it->second.prog);
    set_->note_cached_activation();
    active_ = key;
    return done(Activation::Switched, "switched");
  }

  Entry e = build_entry(builder, n_dpus);
  if (e.mram_base + e.mram_bytes > cfg_.mram_bytes) {
    // Cached regions no longer fit alongside a new one: drop the cache and
    // start the bump allocator over (the new program may still fit alone;
    // if not, Dpu::load reports the overflow precisely).
    reset_cache();
    ++resets_;
    e = build_entry(builder, n_dpus);
  }
  mram_cursor_ = align_up(e.mram_base + e.mram_bytes, kXferAlign);
  load_program(e.prog);
  entries_.emplace(key, std::move(e));
  active_ = key;
  return done(Activation::Fresh, "fresh");
}

void DpuPool::load_program(const sim::DpuProgram& prog) {
  obs::Span sp("program.load", "pool");
  if (sp.active()) {
    sp.str("program", prog.name);
    sp.u64("n_dpus", set_->size());
  }
  set_->load(prog);
  const_dpus_ = 0; // the new program's WRAM constants are not sent yet
}

bool DpuPool::resident_matches(const std::string& tag,
                               std::uint64_t version) const {
  require(!active_.empty(),
          "DpuPool::resident_matches with no active program");
  const Entry& e = entries_.at(active_);
  return e.resident_valid && e.resident_tag == tag &&
         e.resident_version == version;
}

void DpuPool::begin_resident(const std::string& tag, std::uint64_t version) {
  require(!active_.empty(), "DpuPool::begin_resident with no active program");
  Entry& e = entries_.at(active_);
  // Invalid until commit: a throwing upload leaves "nothing resident"
  // rather than a poisoned claim for data that never arrived.
  e.resident_valid = false;
  e.resident_tag = tag;
  e.resident_version = version;
  e.resident_sums.clear();
}

void DpuPool::commit_resident(const std::string& tag, std::uint64_t version,
                              std::vector<std::uint64_t> checksums,
                              const std::string& symbol, MemSize slot_bytes,
                              std::vector<std::vector<std::uint8_t>> payload) {
  require(!active_.empty(),
          "DpuPool::commit_resident with no active program");
  Entry& e = entries_.at(active_);
  require(e.resident_tag == tag && e.resident_version == version,
          "DpuPool::commit_resident without a matching begin_resident");
  e.resident_sums = std::move(checksums);
  e.resident_symbol = symbol;
  e.resident_slot_bytes = slot_bytes;
  e.resident_payload = std::move(payload);
  e.scrub_cursor = 0;
  e.resident_valid = true;
}

const std::vector<std::uint64_t>& DpuPool::resident_checksums() const {
  require(!active_.empty(),
          "DpuPool::resident_checksums with no active program");
  return entries_.at(active_).resident_sums;
}

bool DpuPool::note_fault(std::uint32_t phys, sim::FaultKind kind) {
  require(set_.has_value(), "DpuPool::note_fault before any reserve");
  require(phys < set_->size(), "DpuPool::note_fault: DPU out of range");
  if (!health_.in_service(phys)) {
    return false;
  }
  obs::Metrics::instance().add("pool.fault.strike");
  if (!health_.note_fault(phys, kind)) {
    update_health_gauges();
    return false;
  }
  obs::Metrics::instance().add("pool.quarantined");
  remap_in_service();
  return true;
}

void DpuPool::remap_in_service() {
  // Slide the logical prefix onto the in-service DPUs. The remapped DPUs
  // hold none of the previous payloads or constants, so every resident
  // record and the constant count drop — the next session re-uploads
  // through the normal miss path. Bump the epoch so plan caches re-fit.
  std::vector<std::uint32_t> map;
  map.reserve(set_->size());
  for (std::uint32_t i = 0; i < set_->size(); ++i) {
    if (health_.in_service(i)) {
      map.push_back(i);
    }
  }
  set_->set_logical_map(std::move(map));
  drop_residents();
  const_dpus_ = 0;
  ++health_epoch_;
  update_health_gauges();
}

void DpuPool::update_health_gauges() const {
  auto& m = obs::Metrics::instance();
  m.set_gauge("health.healthy",
              static_cast<double>(health_.count(DpuHealth::Healthy)));
  m.set_gauge("health.suspect",
              static_cast<double>(health_.count(DpuHealth::Suspect)));
  m.set_gauge("health.quarantined",
              static_cast<double>(health_.count(DpuHealth::Quarantined)));
  m.set_gauge("health.probation",
              static_cast<double>(health_.count(DpuHealth::Probation)));
}

void DpuPool::maintain() {
  if (!set_.has_value()) {
    return;
  }
  health_.tick();
  const std::uint32_t phys = health_.next_probe_due();
  if (phys != HealthManager::kNone) {
    obs::Span sp("health.probe", "pool");
    if (sp.active()) {
      sp.u64("dpu", phys);
    }
    const bool ok = set_->probe(phys);
    if (sp.active()) {
      sp.str("result", ok ? "pass" : "fail");
    }
    if (health_.on_probe(phys, ok)) {
      obs::Metrics::instance().add("health.reintegrated");
      remap_in_service();
      // The returning DPU missed every WRAM broadcast since it left; force
      // the next activation through the Switched path so metadata is
      // re-sent to the whole (remapped) prefix.
      active_.clear();
      return; // remap_in_service already refreshed the gauges
    }
  }
  update_health_gauges();
}

void DpuPool::scrub_step() {
  if (!set_.has_value() || active_.empty()) {
    return;
  }
  Entry& e = entries_.at(active_);
  if (!e.resident_valid || e.resident_symbol.empty() ||
      e.resident_slot_bytes == 0 || e.resident_sums.empty()) {
    return;
  }
  const std::uint32_t n_slots =
      std::min(static_cast<std::uint32_t>(e.resident_sums.size()),
               set_->logical_size());
  if (n_slots == 0) {
    return;
  }
  obs::Span sp("scrub", "pool");
  auto& m = obs::Metrics::instance();
  std::vector<std::uint8_t> buf = arena_.acquire(e.resident_slot_bytes);
  MemSize budget = kScrubBudgetBytes;
  std::uint32_t scanned = 0;
  while (budget >= e.resident_slot_bytes && scanned < n_slots) {
    const std::uint32_t d = e.scrub_cursor % n_slots;
    e.scrub_cursor = (d + 1) % n_slots;
    budget -= e.resident_slot_bytes;
    ++scanned;
    set_->copy_from(d, e.resident_symbol, 0, buf.data(),
                    e.resident_slot_bytes);
    m.add("scrub.scanned");
    if (sim::checksum64(buf.data(), e.resident_slot_bytes) ==
        e.resident_sums[d]) {
      continue;
    }
    // Silent corruption: repair from the payload copy retained at commit,
    // re-verifying (the repair write itself can be corrupted by the fault
    // plan, so retry a bounded number of times).
    bool repaired = false;
    if (d < e.resident_payload.size() &&
        e.resident_payload[d].size() >= e.resident_slot_bytes) {
      for (int attempt = 0; attempt < 4 && !repaired; ++attempt) {
        set_->copy_to_one(d, e.resident_symbol, 0,
                          e.resident_payload[d].data(), e.resident_slot_bytes);
        set_->copy_from(d, e.resident_symbol, 0, buf.data(),
                        e.resident_slot_bytes);
        repaired = sim::checksum64(buf.data(), e.resident_slot_bytes) ==
                   e.resident_sums[d];
      }
    }
    if (repaired) {
      m.add("scrub.repaired");
    } else {
      m.add("scrub.unrepairable");
      e.resident_valid = false;
      break;
    }
  }
  arena_.release(std::move(buf));
  if (sp.active()) {
    sp.u64("scanned", scanned);
  }
}

std::uint32_t DpuPool::plan_capacity() const {
  if (!set_.has_value()) {
    return cfg_.total_dpus;
  }
  // The pool can still grow a fresh set past the out-of-service DPUs (they
  // are re-discovered there), so plan against the better of the current
  // healthy prefix and the system's room beyond the known-bad count.
  const std::uint32_t oos = health_.out_of_service();
  const std::uint32_t grow_room =
      cfg_.total_dpus > oos ? cfg_.total_dpus - oos : 0;
  return std::max(healthy_capacity(), grow_room);
}

bool DpuPool::breaker_allow() {
  return health_.breaker().allow(health_.now());
}

void DpuPool::breaker_result(bool ok) {
  if (ok) {
    health_.breaker().on_success(health_.now());
  } else {
    health_.breaker().on_failure(health_.now());
  }
}

std::uint32_t DpuPool::healthy_capacity() const {
  if (!set_.has_value()) {
    return 0;
  }
  return set_->size() - health_.out_of_service();
}

bool DpuPool::reactivate(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  load_program(it->second.prog);
  active_ = key;
  return true;
}

std::uint32_t DpuPool::active_dpus() const {
  require(!active_.empty(), "DpuPool::active_dpus with no active program");
  return entries_.at(active_).n_dpus;
}

DpuSet& DpuPool::set() {
  require(set_.has_value(), "DpuPool::set before any reserve/activate");
  return *set_;
}

sim::HostXferStats DpuPool::host_stats() const {
  sim::HostXferStats out = carried_;
  if (set_.has_value()) {
    out += set_->host_stats();
  }
  return out;
}

} // namespace pimdnn::runtime
