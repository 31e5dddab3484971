#include "sim/fault.hpp"

#include <cstdlib>
#include <cstring>

#include "common/parse.hpp"
#include "obs/metrics.hpp"

namespace pimdnn::sim {

namespace {

/// DPU indices with distinct draw ordinals; higher indices share slots
/// (irrelevant in practice: the largest system has 2,560 DPUs).
constexpr std::uint32_t kTrackedDpus = 4096;

/// Pipeline banks with distinct draw ordinals (the executors run two).
constexpr unsigned kBanks = 2;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of its input.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash (53 mantissa bits).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double parse_rate(const std::string& key, const std::string& value) {
  if (value.empty()) {
    throw ConfigError("PIMDNN_FAULTS: empty value for " + key);
  }
  char* end = nullptr;
  const double r = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || !(r >= 0.0 && r <= 1.0)) {
    throw ConfigError("PIMDNN_FAULTS: bad rate '" + value + "' for " + key +
                      " (need a number in [0, 1])");
  }
  return r;
}

std::uint64_t parse_number(const std::string& key,
                           const std::string& value) {
  if (value.empty()) {
    throw ConfigError("PIMDNN_FAULTS: empty value for " + key);
  }
  return parse_u64(value, "PIMDNN_FAULTS", key);
}

void append_kv(std::string& out, const char* key, const std::string& value) {
  if (!out.empty()) out += ",";
  out += key;
  out += "=";
  out += value;
}

std::string rate_str(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", r);
  return buf;
}

} // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
  case FaultKind::AllocFail: return "alloc_fail";
  case FaultKind::BadDpu: return "bad_dpu";
  case FaultKind::LaunchFail: return "launch_fail";
  case FaultKind::LaunchHang: return "launch_hang";
  case FaultKind::TransferCorrupt: return "transfer_corrupt";
  case FaultKind::MramCorrupt: return "mram_corrupt";
  }
  return "unknown";
}

bool FaultConfig::any() const {
  return alloc_fail_rate > 0.0 || bad_dpu_rate > 0.0 || bad_dpu_mask != 0 ||
         launch_fail_rate > 0.0 || launch_hang_rate > 0.0 ||
         transfer_corrupt_rate > 0.0 || mram_corrupt_rate > 0.0;
}

std::string FaultConfig::describe() const {
  std::string out;
  append_kv(out, "seed", std::to_string(seed));
  if (bad_dpu_rate > 0) append_kv(out, "bad", rate_str(bad_dpu_rate));
  if (bad_dpu_mask != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(bad_dpu_mask));
    append_kv(out, "bad_mask", buf);
  }
  if (alloc_fail_rate > 0) append_kv(out, "alloc", rate_str(alloc_fail_rate));
  if (launch_fail_rate > 0) {
    append_kv(out, "launch", rate_str(launch_fail_rate));
  }
  if (launch_hang_rate > 0) {
    append_kv(out, "hang", rate_str(launch_hang_rate));
    append_kv(out, "hang_cycles", std::to_string(hang_deadline_cycles));
  }
  if (transfer_corrupt_rate > 0) {
    append_kv(out, "xfer", rate_str(transfer_corrupt_rate));
  }
  if (mram_corrupt_rate > 0) {
    append_kv(out, "mram", rate_str(mram_corrupt_rate));
  }
  return out;
}

FaultConfig parse_fault_config(const std::string& spec) {
  FaultConfig cfg;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) {
      throw ConfigError("PIMDNN_FAULTS: empty term in '" + spec + "'");
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("PIMDNN_FAULTS: expected key=value, got '" + item +
                        "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      cfg.seed = parse_number(key, value);
    } else if (key == "bad") {
      cfg.bad_dpu_rate = parse_rate(key, value);
    } else if (key == "bad_mask") {
      cfg.bad_dpu_mask = parse_number(key, value);
    } else if (key == "alloc") {
      cfg.alloc_fail_rate = parse_rate(key, value);
    } else if (key == "launch") {
      cfg.launch_fail_rate = parse_rate(key, value);
    } else if (key == "hang") {
      cfg.launch_hang_rate = parse_rate(key, value);
    } else if (key == "hang_cycles") {
      cfg.hang_deadline_cycles = parse_number(key, value);
    } else if (key == "xfer") {
      cfg.transfer_corrupt_rate = parse_rate(key, value);
    } else if (key == "mram") {
      cfg.mram_corrupt_rate = parse_rate(key, value);
    } else {
      throw ConfigError("PIMDNN_FAULTS: unknown key '" + key + "'");
    }
  }
  return cfg;
}

FaultPlan::FaultPlan()
    : ordinals_(static_cast<std::size_t>(kBanks) * kTrackedDpus *
                kFaultKinds) {}

void FaultPlan::configure(const FaultConfig& cfg) {
  cfg_ = cfg;
  enabled_ = cfg.any();
  for (auto& o : ordinals_) {
    o.store(0, std::memory_order_relaxed);
  }
}

double FaultPlan::rate_for(FaultKind kind) const {
  switch (kind) {
  case FaultKind::AllocFail: return cfg_.alloc_fail_rate;
  case FaultKind::BadDpu: return cfg_.bad_dpu_rate;
  case FaultKind::LaunchFail: return cfg_.launch_fail_rate;
  case FaultKind::LaunchHang: return cfg_.launch_hang_rate;
  case FaultKind::TransferCorrupt: return cfg_.transfer_corrupt_rate;
  case FaultKind::MramCorrupt: return cfg_.mram_corrupt_rate;
  }
  return 0.0;
}

bool FaultPlan::bad_dpu(std::uint32_t dpu_index) const {
  if (!enabled_) return false;
  if (dpu_index < 64 && ((cfg_.bad_dpu_mask >> dpu_index) & 1u) != 0) {
    return true;
  }
  if (cfg_.bad_dpu_rate <= 0.0) return false;
  const std::uint64_t h = mix64(
      cfg_.seed ^ 0xBADDll ^ (static_cast<std::uint64_t>(dpu_index) << 16));
  return to_unit(h) < cfg_.bad_dpu_rate;
}

bool FaultPlan::draw(FaultKind kind, unsigned bank, std::uint32_t dpu_index,
                     std::uint64_t& salt) {
  salt = 0;
  if (!enabled_) return false;
  const double rate = rate_for(kind);
  if (rate <= 0.0) return false;
  const std::size_t slot =
      (static_cast<std::size_t>(bank % kBanks) * kTrackedDpus +
       dpu_index % kTrackedDpus) *
          kFaultKinds +
      static_cast<std::size_t>(kind);
  const std::uint64_t ordinal =
      ordinals_[slot].fetch_add(1, std::memory_order_relaxed);
  // Bank bits sit above the kind bits, so bank 0 hashes as before banks.
  const std::uint64_t h =
      mix64(cfg_.seed ^
            mix64((static_cast<std::uint64_t>(bank) << 60) ^
                  (static_cast<std::uint64_t>(kind) << 56) ^
                  (static_cast<std::uint64_t>(dpu_index) << 24) ^ ordinal));
  if (to_unit(h) >= rate) return false;
  salt = mix64(h ^ 0x5a17ull);
  auto& m = obs::Metrics::instance();
  m.add("faults.injected");
  m.add(std::string("faults.injected.") + fault_kind_name(kind));
  return true;
}

FaultPlan& fault_plan() {
  static FaultPlan* plan = [] {
    auto* p = new FaultPlan();
    const char* env = std::getenv("PIMDNN_FAULTS");
    if (env != nullptr && env[0] != '\0') {
      p->configure(parse_fault_config(env));
    }
    return p;
  }();
  return *plan;
}

void set_fault_config(const FaultConfig& cfg) { fault_plan().configure(cfg); }

std::uint64_t checksum64(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

} // namespace pimdnn::sim
