#include "runtime/kernel_session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"

namespace pimdnn::runtime {

namespace {

/// Targeted rewrites of one DPU's payload before the corruption is deemed
/// unrepairable (each rewrite can itself be corrupted again).
constexpr std::uint32_t kRepairAttempts = 4;
/// Base of the exponential backoff charged per failed launch attempt.
constexpr Cycles kBackoffBaseCycles = 1024;

} // namespace

KernelSession::KernelSession(DpuPool& pool, const std::string& signature,
                             std::uint32_t n_dpus,
                             const std::function<sim::DpuProgram()>& builder)
    : pool_(pool),
      n_dpus_(n_dpus),
      signature_(signature),
      host_before_(pool.host_stats()),
      span_("offload", "session"),
      fault_tolerant_(sim::fault_plan().enabled()) {
  try {
    activation_ = pool_.activate(signature, n_dpus, builder);
  } catch (const sim::DpuFault&) {
    // Allocation itself faulted: the pool is untouched, the session routes
    // this offload to the CPU path instead of dying.
    ++absorbed_;
    degrade("allocation fault");
  }
  if (!degraded_ && fault_tolerant_ && pool_.healthy_capacity() < n_dpus_) {
    degrade("healthy capacity below kernel need");
  }
  consts_resident_ = !degraded_ && activation_ == DpuPool::Activation::Active &&
                     pool_.const_dpus() >= n_dpus_;
  if (!degraded_ && fault_tolerant_) {
    // Scrub patrol between launches, piggybacked on session setup: runs
    // right after activation (a program switch re-load is where silent
    // MRAM corruption lands) and *before* any resident-hit check, so a
    // repaired record still counts as warm.
    pool_.scrub_step();
  }
  if (span_.active()) {
    span_.str("signature", signature_);
    span_.u64("n_dpus", n_dpus_);
    span_.u64("bank", pool_.obs_bank());
  }
}

std::uint32_t KernelSession::dpus_for(std::size_t n_items,
                                      std::uint32_t items_per_dpu) {
  require(items_per_dpu >= 1, "KernelSession: items_per_dpu must be >= 1");
  require(n_items >= 1, "KernelSession: need at least one item");
  return static_cast<std::uint32_t>((n_items + items_per_dpu - 1) /
                                    items_per_dpu);
}

void KernelSession::degrade(const char* reason) {
  if (degraded_) {
    return;
  }
  degraded_ = true;
  launched_ = false;
  obs::Metrics::instance().add("offload.fallback");
  obs::Span sp("offload.fallback", "session");
  if (sp.active()) {
    sp.str("signature", signature_);
    sp.str("reason", reason);
  }
}

void KernelSession::transfer(const Upload& u) {
  if (u.scattered) {
    // Fill-all-then-prepare-all: a throwing fill never leaves a dangling
    // prepared pointer behind in the set.
    for (std::uint32_t d = 0; d < n_dpus_; ++d) {
      set().prepare_xfer(d, const_cast<std::uint8_t*>(u.staged[d].data()));
    }
    set().push_xfer(XferDir::ToDpu, u.symbol, 0, u.bytes, n_dpus_);
  } else {
    set().copy_to(u.symbol, 0, u.payload.data(), u.bytes, n_dpus_);
  }
  if (fault_tolerant_) {
    verify_upload(u);
  }
}

void KernelSession::verify_upload(const Upload& u) {
  std::vector<std::uint8_t> back(u.bytes);
  for (std::uint32_t d = 0; d < n_dpus_ && !degraded_; ++d) {
    const std::uint8_t* want =
        u.scattered ? u.staged[d].data() : u.payload.data();
    bool ok = false;
    for (std::uint32_t attempt = 0; attempt < kRepairAttempts; ++attempt) {
      set().copy_from(d, u.symbol, 0, back.data(), u.bytes);
      if (std::memcmp(back.data(), want, u.bytes) == 0) {
        ok = true;
        break;
      }
      // Corrupted in flight: absorb it with a targeted rewrite of just
      // this DPU's slot (the rewrite may be corrupted again — bounded).
      ++absorbed_;
      obs::Metrics::instance().add("offload.xfer.repair");
      set().copy_to_one(d, u.symbol, 0, want, u.bytes);
    }
    if (!ok) {
      if (pool_.note_fault(set().physical(d),
                           sim::FaultKind::TransferCorrupt)) {
        ++quarantines_;
      }
      degrade("unrepairable transfer corruption");
    }
  }
}

void KernelSession::push_upload(Upload&& u) {
  if (fault_tolerant_ && !degraded_) {
    uploads_.push_back(std::move(u));
  }
}

void KernelSession::replay_uploads() {
  for (const Upload& u : uploads_) {
    if (degraded_) {
      break;
    }
    transfer(u);
  }
}

void KernelSession::broadcast(const std::string& symbol, const void* data,
                              MemSize bytes) {
  obs::Span sp("broadcast", "session");
  if (sp.active()) {
    sp.str("symbol", symbol);
    sp.u64("bytes", static_cast<std::uint64_t>(bytes) * n_dpus_);
    sp.str("lane", "xfer");
    sp.u64("bank", pool_.obs_bank());
  }
  if (degraded_) {
    sp.flag("skipped", true);
    return;
  }
  if (!fault_tolerant_) {
    if (is_xfer_aligned(bytes)) {
      set().copy_to(symbol, 0, data, bytes, n_dpus_);
      return;
    }
    // Pad through a recycled arena buffer: warm frames allocate nothing.
    std::vector<std::uint8_t> padded =
        pool_.arena().acquire(align_up(bytes, kXferAlign));
    std::memcpy(padded.data(), data, bytes);
    set().copy_to(symbol, 0, padded.data(), padded.size(), n_dpus_);
    pool_.arena().release(std::move(padded));
    return;
  }
  Upload u;
  u.symbol = symbol;
  if (is_xfer_aligned(bytes)) {
    u.payload.assign(static_cast<const std::uint8_t*>(data),
                     static_cast<const std::uint8_t*>(data) + bytes);
  } else {
    u.payload = pad_to_xfer(data, bytes);
  }
  u.bytes = static_cast<MemSize>(u.payload.size());
  transfer(u);
  push_upload(std::move(u));
}

bool KernelSession::broadcast_const(const std::string& symbol,
                                    const void* data, MemSize bytes) {
  obs::Span sp("broadcast_const", "session");
  if (sp.active()) {
    sp.str("symbol", symbol);
  }
  if (!degraded_ && consts_resident_) {
    ++const_hits_;
    sp.flag("skipped", true);
    return false; // every session DPU still holds the program's constants
  }
  ++const_misses_;
  sp.flag("skipped", false);
  if (!degraded_) {
    pool_.set_const_dpus(0); // held again only once this session launches
  }
  broadcast(symbol, data, bytes);
  return true;
}

void KernelSession::scatter(const std::string& symbol, MemSize slot_bytes,
                            const Fill& fill) {
  obs::Span sp("scatter", "session");
  if (sp.active()) {
    sp.str("symbol", symbol);
    sp.u64("bytes", static_cast<std::uint64_t>(slot_bytes) * n_dpus_);
    sp.str("lane", "xfer");
    sp.u64("bank", pool_.obs_bank());
  }
  require(is_xfer_aligned(slot_bytes),
          "KernelSession::scatter: slot stride must obey the 8-byte rule");
  if (degraded_) {
    sp.flag("skipped", true);
    return;
  }
  Upload u;
  u.symbol = symbol;
  u.bytes = slot_bytes;
  u.scattered = true;
  u.staged.resize(n_dpus_);
  for (std::uint32_t d = 0; d < n_dpus_; ++d) {
    u.staged[d] = pool_.arena().acquire(slot_bytes);
    fill(d, u.staged[d].data());
  }
  if (fault_tolerant_) {
    last_scatter_sums_.assign(n_dpus_, 0);
    for (std::uint32_t d = 0; d < n_dpus_; ++d) {
      last_scatter_sums_[d] = sim::checksum64(u.staged[d].data(), slot_bytes);
    }
  }
  transfer(u);
  if (fault_tolerant_ && !degraded_) {
    push_upload(std::move(u)); // the replay log owns the buffers now
  } else {
    for (std::vector<std::uint8_t>& s : u.staged) {
      pool_.arena().release(std::move(s));
    }
  }
}

bool KernelSession::resident_still_valid(const std::string& symbol,
                                         MemSize slot_bytes) {
  if (!fault_tolerant_) {
    return true;
  }
  const std::vector<std::uint64_t>& sums = pool_.resident_checksums();
  if (sums.empty()) {
    return true; // committed without checksums: nothing to verify against
  }
  if (sums.size() < n_dpus_) {
    return false; // committed over a narrower span: re-upload
  }
  std::vector<std::uint8_t> back(slot_bytes);
  for (std::uint32_t d = 0; d < n_dpus_; ++d) {
    set().copy_from(d, symbol, 0, back.data(), slot_bytes);
    if (sim::checksum64(back.data(), slot_bytes) != sums[d]) {
      obs::Metrics::instance().add("offload.resident.reverify_miss");
      return false; // e.g. MRAM disturbance on a program switch
    }
  }
  return true;
}

bool KernelSession::scatter_resident(const std::string& tag,
                                     std::uint64_t version,
                                     const std::string& symbol,
                                     MemSize slot_bytes, const Fill& fill) {
  obs::Span sp("scatter_resident", "session");
  if (sp.active()) {
    sp.str("tag", tag);
    sp.u64("version", version);
  }
  if (degraded_) {
    sp.flag("skipped", true);
    return false;
  }
  if (pool_.resident_matches(tag, version) &&
      resident_still_valid(symbol, slot_bytes)) {
    obs::Metrics::instance().add("pool.resident.hit");
    ++resident_hits_;
    sp.flag("skipped", true);
    return false; // still in the active program's MRAM region
  }
  obs::Metrics::instance().add("pool.resident.miss");
  ++resident_misses_;
  sp.flag("skipped", false);
  pool_.begin_resident(tag, version);
  scatter(symbol, slot_bytes, fill);
  if (!degraded_) {
    if (fault_tolerant_) {
      // Retain a payload copy alongside the checksums so the pool's scrub
      // patrol can repair silent corruption of this record between
      // launches (the replay log's staged buffers hold exactly the slots
      // just sent).
      std::vector<std::vector<std::uint8_t>> payload;
      if (!uploads_.empty() && uploads_.back().scattered &&
          uploads_.back().symbol == symbol) {
        payload = uploads_.back().staged;
      }
      pool_.commit_resident(tag, version, last_scatter_sums_, symbol,
                            slot_bytes, std::move(payload));
    } else {
      pool_.commit_resident(tag, version);
    }
  }
  return true;
}

void KernelSession::scatter_items(
    const std::string& data_symbol, const std::string& meta_symbol,
    std::size_t n_items, std::uint32_t items_per_dpu, MemSize item_stride,
    MemSize item_bytes,
    const std::function<const void*(std::size_t)>& item) {
  obs::Span sp("scatter_items", "session");
  if (sp.active()) {
    sp.str("symbol", data_symbol);
    sp.u64("n_items", n_items);
  }
  require(item_bytes <= item_stride,
          "KernelSession::scatter_items: item overflows its slot");
  require(dpus_for(n_items, items_per_dpu) == n_dpus_,
          "KernelSession::scatter_items: item count does not match the "
          "session's DPU span");
  std::vector<std::uint64_t> counts(n_dpus_, 0);
  for (std::uint32_t d = 0; d < n_dpus_; ++d) {
    const std::size_t first = static_cast<std::size_t>(d) * items_per_dpu;
    const std::size_t past = std::min<std::size_t>(first + items_per_dpu,
                                                   n_items);
    counts[d] = past > first ? past - first : 0;
  }
  scatter(data_symbol, items_per_dpu * item_stride,
          [&](std::uint32_t d, std::uint8_t* slot) {
            for (std::uint32_t s = 0; s < items_per_dpu; ++s) {
              const std::size_t global =
                  static_cast<std::size_t>(d) * items_per_dpu + s;
              if (global >= n_items) break;
              std::memcpy(slot + s * item_stride, item(global), item_bytes);
            }
          });
  // True (unpadded) item count per DPU, §3.2.
  scatter(meta_symbol, sizeof(std::uint64_t),
          [&](std::uint32_t d, std::uint8_t* slot) {
            std::memcpy(slot, &counts[d], sizeof(std::uint64_t));
          });
}

Cycles KernelSession::default_deadline_cycles() {
  static const Cycles cached = [] {
    const char* env = std::getenv("PIMDNN_DEADLINE");
    if (env == nullptr || env[0] == '\0') {
      return static_cast<Cycles>(0);
    }
    return static_cast<Cycles>(
        parse_u64(env, "PIMDNN_DEADLINE", "the cycle count"));
  }();
  return cached;
}

bool KernelSession::launch(const LaunchOptions& opts) {
  const Cycles deadline = opts.deadline_cycles != 0 ? opts.deadline_cycles
                                                    : default_deadline_cycles();
  obs::Span sp("launch", "session");
  if (sp.active()) {
    sp.str("signature", signature_);
    sp.u64("n_tasklets", opts.n_tasklets);
    sp.str("lane", "dpu");
    sp.u64("bank", pool_.obs_bank());
    if (pred_kernel_cycles_ > 0) {
      sp.u64("pred_cycles", pred_kernel_cycles_);
    }
  }
  if (degraded_) {
    sp.flag("fallback", true);
    return false;
  }
  if (!pool_.breaker_allow()) {
    // The breaker tripped on earlier ladders: don't even try the DPUs
    // until the cool-down half-opens it. This short-circuit is not itself
    // reported as a failure — only real ladder outcomes move the breaker.
    obs::Metrics::instance().add("offload.breaker.short_circuit");
    degrade("circuit breaker open");
    sp.flag("fallback", true);
    return false;
  }
  // Degrades below this point are launch-ladder outcomes: report them to
  // the breaker so repeated full ladders trip it.
  const auto fail = [&](const char* reason) {
    pool_.breaker_result(false);
    degrade(reason);
    sp.flag("fallback", true);
    return false;
  };
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      stats_ = set().launch(opts.n_tasklets, opts.opt, n_dpus_);
      launched_ = true;
      pool_.breaker_result(true);
      if (const_misses_ > 0) {
        pool_.set_const_dpus(n_dpus_); // this session's constants all landed
      }
      break;
    } catch (const sim::DpuFault& f) {
      ++absorbed_;
      if (f.kind() == sim::FaultKind::LaunchHang) {
        // The hang was detected at the hang watchdog: that wait is real
        // lost time, charged to the retry-cycle account. With a session
        // deadline the watchdog fires cooperatively at the deadline
        // instead, so only the room left until then is ever waited.
        Cycles wait = sim::fault_plan().config().hang_deadline_cycles;
        if (deadline > 0) {
          const Cycles room =
              deadline > penalty_cycles_ ? deadline - penalty_cycles_ : 0;
          wait = std::min(wait, room);
        }
        penalty_cycles_ += wait;
      }
      if (pool_.note_fault(f.dpu_index(), f.kind())) {
        ++quarantines_;
        // The healthy prefix slid onto different physical DPUs: everything
        // this session uploaded must be replayed onto them. Skipped warm
        // uploads (const/resident hits) cannot be replayed — the session
        // never saw those bytes — so those offloads degrade instead.
        if (pool_.healthy_capacity() < n_dpus_ || const_hits_ > 0 ||
            resident_hits_ > 0 || !pool_.reactivate(signature_)) {
          return fail("quarantine during launch");
        }
        replay_uploads();
        if (degraded_) {
          pool_.breaker_result(false);
          sp.flag("fallback", true);
          return false;
        }
      }
      if (deadline > 0 && penalty_cycles_ >= deadline) {
        obs::Metrics::instance().add("offload.deadline.cancelled");
        return fail("watchdog deadline exceeded");
      }
      if (attempt + 1 >= opts.max_attempts) {
        return fail("launch retries exhausted");
      }
      ++retries_;
      penalty_cycles_ +=
          kBackoffBaseCycles << std::min<std::uint32_t>(attempt, 16);
      obs::Metrics::instance().add("offload.retry");
      obs::Span retry("offload.retry", "session");
      if (retry.active()) {
        retry.str("signature", signature_);
        retry.u64("attempt", attempt + 1);
        retry.str("fault", sim::fault_kind_name(f.kind()));
        retry.u64("dpu", f.dpu_index());
      }
      if (deadline > 0 && penalty_cycles_ >= deadline) {
        obs::Metrics::instance().add("offload.deadline.cancelled");
        return fail("watchdog deadline exceeded");
      }
    }
  }
  if (sp.active()) {
    sp.u64("cycles", stats_.wall_cycles);
    // Bound classification of the slowest DPU — the one that set the wall.
    const sim::DpuRunStats* slowest = nullptr;
    for (const sim::DpuRunStats& d : stats_.per_dpu) {
      if (slowest == nullptr || d.cycles > slowest->cycles) slowest = &d;
    }
    if (slowest != nullptr) {
      sp.str("bound",
             sim::cycle_bound_name(sim::dominant_bound(*slowest, config())));
    }
  }
  return true;
}

bool KernelSession::LaunchHandle::wait() {
  task_.wait();
  return ok_ != nullptr && *ok_;
}

KernelSession::LaunchHandle KernelSession::launch_async(
    const LaunchOptions& opts) {
  LaunchHandle h;
  h.ok_ = std::make_shared<bool>(false);
  obs::Metrics::instance().add("offload.launch_async");
  std::shared_ptr<bool> ok = h.ok_;
  h.task_ = HostPool::global().submit(
      [this, opts, ok] { *ok = launch(opts); });
  return h;
}

void KernelSession::gather_items(const std::string& symbol,
                                 std::size_t n_items,
                                 std::uint32_t items_per_dpu,
                                 MemSize slot_stride, const Sink& sink) {
  obs::Span sp("gather", "session");
  if (sp.active()) {
    sp.str("symbol", symbol);
    sp.u64("n_items", n_items);
    sp.u64("bytes", static_cast<std::uint64_t>(items_per_dpu) * slot_stride *
                        n_dpus_);
    sp.str("lane", "xfer");
    sp.u64("bank", pool_.obs_bank());
  }
  require(is_xfer_aligned(slot_stride),
          "KernelSession::gather_items: slot stride must obey the 8-byte "
          "rule");
  require(dpus_for(n_items, items_per_dpu) == n_dpus_,
          "KernelSession::gather_items: item count does not match the "
          "session's DPU span");
  if (degraded_) {
    sp.flag("skipped", true);
    return; // the caller computes these results on the CPU path instead
  }
  const MemSize block = items_per_dpu * slot_stride;
  std::vector<std::vector<std::uint8_t>> gathered(n_dpus_);
  for (std::uint32_t d = 0; d < n_dpus_; ++d) {
    gathered[d] = pool_.arena().acquire(block);
    set().prepare_xfer(d, gathered[d].data());
  }
  set().push_xfer(XferDir::FromDpu, symbol, 0, block, n_dpus_);
  for (std::size_t i = 0; i < n_items; ++i) {
    sink(i, gathered[i / items_per_dpu].data() +
                (i % items_per_dpu) * slot_stride);
  }
  for (std::vector<std::uint8_t>& g : gathered) {
    pool_.arena().release(std::move(g));
  }
}

LaunchStats KernelSession::finish() {
  require(!finished_, "KernelSession::finish called twice");
  require(launched_ || degraded_, "KernelSession::finish before launch");
  finished_ = true;
  stats_.host = sim::host_xfer_delta(pool_.host_stats(), host_before_);
  launched_ = false;
  stats_.retries = retries_;
  stats_.faults_absorbed = absorbed_;
  stats_.quarantined = quarantines_;
  stats_.retry_cycles = penalty_cycles_;
  stats_.cpu_fallback = degraded_;

  obs::OffloadSample sample;
  sample.wall_cycles = stats_.wall_cycles;
  sample.host_seconds = stats_.host.host_seconds();
  sample.bytes_to_dpu = stats_.host.bytes_to_dpu;
  sample.bytes_from_dpu = stats_.host.bytes_from_dpu;
  sample.program_loads = stats_.host.program_loads;
  sample.cached_activations = stats_.host.cached_activations;
  sample.resident_hits = resident_hits_;
  sample.resident_misses = resident_misses_;
  sample.const_hits = const_hits_;
  sample.const_misses = const_misses_;
  sample.retries = retries_;
  sample.faults_absorbed = absorbed_;
  sample.cpu_fallbacks = degraded_ ? 1 : 0;
  obs::Metrics::instance().record_offload(signature_ + annotation_, sample);

  // Cost-model drift gauge: how far the mapper's prediction was from what
  // actually ran. Only meaningful when the pipeline declared a prediction
  // and the offload really went to the DPUs.
  if (pred_kernel_cycles_ > 0 && !degraded_) {
    obs::Metrics::instance().record(
        "obs.drift.kernel_pct",
        std::abs(static_cast<double>(stats_.wall_cycles) -
                 static_cast<double>(pred_kernel_cycles_)) /
            static_cast<double>(pred_kernel_cycles_) * 100.0);
    if (pred_xfer_seconds_ > 0) {
      obs::Metrics::instance().record(
          "obs.drift.xfer_pct",
          std::abs(stats_.host.host_seconds() - pred_xfer_seconds_) /
              pred_xfer_seconds_ * 100.0);
    }
  }
  if (obs::SloTracker::enabled()) {
    const double latency_ms =
        (stats_.host.host_seconds() +
         config().cycles_to_seconds(stats_.wall_cycles)) *
        1e3;
    obs::SloTracker::instance().record("offload", latency_ms);
  }

  if (span_.active()) {
    span_.u64("cycles", stats_.wall_cycles);
    span_.f64("host_ms", stats_.host.host_seconds() * 1e3);
    span_.u64("bytes_to_dpu", stats_.host.bytes_to_dpu);
    span_.u64("bytes_from_dpu", stats_.host.bytes_from_dpu);
    span_.flag("fallback", degraded_);
  }
  span_.end();
  // Health maintenance piggybacks on session teardown: tick the health
  // clock and run at most one quarantine probe (after the host stats were
  // delta'd, so probes never pollute this offload's accounting).
  pool_.maintain();
  return std::move(stats_);
}

} // namespace pimdnn::runtime
