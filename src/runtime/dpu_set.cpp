#include "runtime/dpu_set.hpp"

#include <algorithm>
#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/host_timer.hpp"

namespace pimdnn::runtime {

using pimdnn::AlignmentError;
using pimdnn::CapacityError;
using pimdnn::UsageError;
using sim::DpuFault;
using sim::FaultKind;

DpuSet::DpuSet(std::uint32_t n_dpus, const UpmemConfig& cfg, unsigned bank)
    : cfg_(cfg), bank_(bank), sim_mode_(default_sim_mode()) {
  dpus_.reserve(n_dpus);
  for (std::uint32_t i = 0; i < n_dpus; ++i) {
    dpus_.emplace_back(cfg);
  }
  prepared_.assign(n_dpus, nullptr);
  bad_.assign(n_dpus, 0);
}

DpuSet DpuSet::allocate(std::uint32_t n_dpus, const UpmemConfig& cfg,
                        unsigned bank) {
  if (n_dpus == 0) {
    throw UsageError("cannot allocate an empty DpuSet");
  }
  if (n_dpus > cfg.total_dpus) {
    throw CapacityError("requested " + std::to_string(n_dpus) +
                        " DPUs but the system has " +
                        std::to_string(cfg.total_dpus));
  }
  auto& plan = sim::fault_plan();
  if (plan.enabled()) {
    std::uint64_t salt = 0;
    if (plan.draw(FaultKind::AllocFail, bank, 0, salt)) {
      throw DpuFault(0, FaultKind::AllocFail,
                     "simulated allocation failure for a " +
                         std::to_string(n_dpus) + "-DPU set");
    }
  }
  DpuSet set(n_dpus, cfg, bank);
  if (plan.enabled()) {
    auto& m = obs::Metrics::instance();
    for (std::uint32_t i = 0; i < n_dpus; ++i) {
      if (plan.bad_dpu(i)) {
        set.bad_[i] = 1;
        m.add("faults.injected");
        m.add("faults.injected.bad_dpu");
      }
    }
  }
  return set;
}

Dpu& DpuSet::dpu(DpuId id) {
  require(id < dpus_.size(), "DPU id out of range");
  return dpus_[id];
}

const Dpu& DpuSet::dpu(DpuId id) const {
  require(id < dpus_.size(), "DPU id out of range");
  return dpus_[id];
}

void DpuSet::set_logical_map(std::vector<std::uint32_t> map) {
  require(map.size() <= dpus_.size(),
          "logical map is larger than the DpuSet");
  for (const std::uint32_t phys : map) {
    require(phys < dpus_.size(), "logical map entry out of range");
  }
  map_ = std::move(map);
}

std::uint32_t DpuSet::physical(DpuId id) const {
  if (map_.empty()) {
    require(id < dpus_.size(), "DPU id out of range");
    return static_cast<std::uint32_t>(id);
  }
  require(id < map_.size(), "logical DPU id outside the installed map");
  return map_[id];
}

bool DpuSet::allocated_bad(DpuId id) const {
  require(id < bad_.size(), "DPU id out of range");
  return bad_[id] != 0;
}

bool DpuSet::probe(std::uint32_t phys) {
  require(phys < dpus_.size(), "DPU id out of range");
  obs::Metrics::instance().add("health.probe");
  if (bad_[phys] != 0) {
    return false;
  }
  auto& plan = sim::fault_plan();
  if (plan.enabled()) {
    // The canary launch is subject to the same fault draws a real launch
    // would be: a DPU that still fails or hangs fails its probe.
    std::uint64_t salt = 0;
    if (plan.draw(FaultKind::LaunchFail, bank_, phys, salt)) return false;
    if (plan.draw(FaultKind::LaunchHang, bank_, phys, salt)) return false;
  }
  // Memory canary: save, write a DPU-salted walking pattern, read it back,
  // restore. Raw MRAM access — the probe must not depend on whatever
  // program happens to be loaded, and nothing is launching while the pool
  // runs maintenance, so the save/restore window is race-free.
  constexpr MemSize kCanaryBytes = 64;
  std::uint8_t save[kCanaryBytes];
  std::uint8_t pattern[kCanaryBytes];
  std::uint8_t back[kCanaryBytes];
  for (MemSize i = 0; i < kCanaryBytes; ++i) {
    pattern[i] = static_cast<std::uint8_t>(0xA5u ^ (i * 31u) ^ phys);
  }
  sim::Dpu& d = dpus_[phys];
  d.mram().read(save, 0, kCanaryBytes);
  d.mram().write(0, pattern, kCanaryBytes);
  d.mram().read(back, 0, kCanaryBytes);
  const bool ok = std::memcmp(pattern, back, kCanaryBytes) == 0;
  d.mram().write(0, save, kCanaryBytes);
  return ok;
}

std::uint32_t DpuSet::resolve_active(std::uint32_t n_active) const {
  if (n_active == 0) {
    return logical_size();
  }
  require(n_active <= logical_size(),
          "active DPU count exceeds the set size");
  return n_active;
}

void DpuSet::load(const DpuProgram& program) {
  HostTimer t;
  t.start();
  for (Dpu& d : dpus_) {
    d.load(program);
  }
  host_.load_seconds += t.elapsed();
  host_.program_loads += 1;
  auto& plan = sim::fault_plan();
  if (plan.enabled()) {
    // A program switch re-drives the memory interface: model it as a
    // chance of one flipped bit somewhere in each DPU's occupied MRAM.
    for (std::uint32_t i = 0; i < dpus_.size(); ++i) {
      std::uint64_t salt = 0;
      if (!plan.draw(FaultKind::MramCorrupt, bank_, i, salt)) continue;
      const MemSize used = dpus_[i].mram_used();
      if (used == 0) continue;
      const MemSize byte = static_cast<MemSize>(salt % used);
      std::uint8_t v = 0;
      dpus_[i].mram().read(&v, byte, 1);
      v ^= static_cast<std::uint8_t>(1u << ((salt >> 32) % 8));
      dpus_[i].mram().write(byte, &v, 1);
    }
  }
}

void DpuSet::check_aligned(MemSize offset, MemSize size) {
  if (!is_xfer_aligned(size)) {
    throw AlignmentError("transfer length " + std::to_string(size) +
                         " is not divisible by 8 (pad with pad_to_xfer and "
                         "send the real size separately)");
  }
  if (!is_xfer_aligned(offset)) {
    throw AlignmentError("transfer offset " + std::to_string(offset) +
                         " is not 8-byte aligned");
  }
}

void DpuSet::maybe_corrupt_write(std::uint32_t phys, const std::string& symbol,
                                 MemSize symbol_offset, MemSize size) {
  auto& plan = sim::fault_plan();
  if (!plan.enabled() || size == 0) return;
  std::uint64_t salt = 0;
  if (!plan.draw(FaultKind::TransferCorrupt, bank_, phys, salt)) return;
  // One deterministic bit flip inside the bytes just written; repaired (or
  // not) by the runtime's read-back verification, never silently fatal to
  // the simulator itself.
  const MemSize byte = symbol_offset + static_cast<MemSize>(salt % size);
  std::uint8_t v = 0;
  dpus_[phys].host_read(symbol, byte, &v, 1);
  v ^= static_cast<std::uint8_t>(1u << ((salt >> 32) % 8));
  dpus_[phys].host_write(symbol, byte, &v, 1);
}

void DpuSet::copy_to(const std::string& symbol, MemSize symbol_offset,
                     const void* src, MemSize size, std::uint32_t n_active) {
  check_aligned(symbol_offset, size);
  const std::uint32_t n = resolve_active(n_active);
  HostTimer t;
  t.start();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t phys = physical(i);
    dpus_[phys].host_write(symbol, symbol_offset, src, size);
    maybe_corrupt_write(phys, symbol, symbol_offset, size);
  }
  host_.to_dpu_seconds += t.elapsed();
  host_.bytes_to_dpu += size * n;
}

void DpuSet::copy_to_one(DpuId id, const std::string& symbol,
                         MemSize symbol_offset, const void* src,
                         MemSize size) {
  check_aligned(symbol_offset, size);
  const std::uint32_t phys = physical(id);
  HostTimer t;
  t.start();
  dpus_[phys].host_write(symbol, symbol_offset, src, size);
  maybe_corrupt_write(phys, symbol, symbol_offset, size);
  host_.to_dpu_seconds += t.elapsed();
  host_.bytes_to_dpu += size;
}

void DpuSet::copy_from(DpuId id, const std::string& symbol,
                       MemSize symbol_offset, void* dst, MemSize size) const {
  check_aligned(symbol_offset, size);
  const std::uint32_t phys = physical(id);
  HostTimer t;
  t.start();
  dpus_[phys].host_read(symbol, symbol_offset, dst, size);
  host_.from_dpu_seconds += t.elapsed();
  host_.bytes_from_dpu += size;
}

void DpuSet::prepare_xfer(DpuId id, void* buffer) {
  require(id < prepared_.size(), "DPU id out of range");
  require(buffer != nullptr, "prepare_xfer with null buffer");
  prepared_[id] = buffer;
}

void DpuSet::push_xfer(XferDir dir, const std::string& symbol,
                       MemSize symbol_offset, MemSize length,
                       std::uint32_t n_active) {
  check_aligned(symbol_offset, length);
  const std::uint32_t n = resolve_active(n_active);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (prepared_[i] == nullptr) {
      throw UsageError("push_xfer: DPU " + std::to_string(i) +
                       " has no prepared buffer");
    }
  }
  HostTimer t;
  t.start();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t phys = physical(i);
    if (dir == XferDir::ToDpu) {
      dpus_[phys].host_write(symbol, symbol_offset, prepared_[i], length);
      maybe_corrupt_write(phys, symbol, symbol_offset, length);
    } else {
      dpus_[phys].host_read(symbol, symbol_offset, prepared_[i], length);
    }
    prepared_[i] = nullptr;
  }
  if (dir == XferDir::ToDpu) {
    host_.to_dpu_seconds += t.elapsed();
    host_.bytes_to_dpu += length * n;
  } else {
    host_.from_dpu_seconds += t.elapsed();
    host_.bytes_from_dpu += length * n;
  }
}

LaunchStats DpuSet::launch(std::uint32_t n_tasklets, OptLevel opt,
                           std::uint32_t n_active) {
  const std::uint32_t n = resolve_active(n_active);
  LaunchStats out;
  out.per_dpu.resize(n);

  auto& plan = sim::fault_plan();
  // FaultKind::AllocFail doubles as "no fault" in the per-DPU verdicts
  // (a real AllocFail can only happen in allocate()).
  std::vector<FaultKind> verdicts(n, FaultKind::AllocFail);
  std::vector<char> faulted(n, 0);
  const auto run_one = [&](std::uint32_t i) {
    const std::uint32_t phys = physical(i);
    if (plan.enabled()) {
      std::uint64_t salt = 0;
      if (bad_[phys] != 0) {
        faulted[i] = 1;
        verdicts[i] = FaultKind::BadDpu;
        return;
      }
      if (plan.draw(FaultKind::LaunchFail, bank_, phys, salt)) {
        faulted[i] = 1;
        verdicts[i] = FaultKind::LaunchFail;
        return;
      }
      if (plan.draw(FaultKind::LaunchHang, bank_, phys, salt)) {
        faulted[i] = 1;
        verdicts[i] = FaultKind::LaunchHang;
        return;
      }
    }
    out.per_dpu[i] = dpus_[phys].launch(n_tasklets, opt, sim_mode_);
  };

  // Persistent worker pool instead of a per-launch thread crop: the same
  // dynamic claim schedule, zero thread creations on warm launches (the
  // serial single-core fallback lives inside parallel_for).
  HostPool::global().parallel_for(n, run_one);

  // Report the lowest faulted DPU (deterministic regardless of worker
  // interleaving); the others' draws already advanced their ordinals.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (faulted[i] == 0) continue;
    const std::uint32_t phys = physical(i);
    throw DpuFault(phys, verdicts[i],
                   std::string("simulated ") + fault_kind_name(verdicts[i]) +
                       " on DPU " + std::to_string(phys));
  }

  for (const DpuRunStats& s : out.per_dpu) {
    out.wall_cycles = std::max(out.wall_cycles, s.cycles);
    out.total_cycles += s.cycles;
    out.profile.merge(s.profile);
  }
  out.wall_seconds = cfg_.cycles_to_seconds(out.wall_cycles);
  return out;
}

} // namespace pimdnn::runtime
