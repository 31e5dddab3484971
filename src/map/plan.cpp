#include "map/plan.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace pimdnn::map {

namespace {

std::mutex g_override_mutex;
std::optional<MappingOverride> g_override;   // set_default_mapping_override
std::optional<MappingOverride> g_env_cache;  // parsed PIMDNN_MAPPING

MappingOverride resolve_env_locked() {
  if (!g_env_cache.has_value()) {
    const char* env = std::getenv("PIMDNN_MAPPING");
    if (env == nullptr || *env == '\0') {
      g_env_cache = MappingOverride{};
    } else {
      g_env_cache = MappingOverride::parse(env);
    }
  }
  return *g_env_cache;
}

/// Parses the value `text` of token `part` as a number in [1, max of T];
/// every ConfigError names the token (e.g. "bad number 'x' for rows in
/// 'rows=x'").
template <typename T>
T parse_field(const std::string& text, const std::string& what,
              const std::string& part) {
  const std::uint64_t v =
      parse_u64(text, "PIMDNN_MAPPING", what + " in '" + part + "'");
  if (v < 1) {
    throw ConfigError("PIMDNN_MAPPING: " + what + " must be >= 1 in '" +
                      part + "'");
  }
  if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    throw ConfigError("PIMDNN_MAPPING: " + what + " out of range in '" +
                      part + "'");
  }
  return static_cast<T>(v);
}

} // namespace

const char* mapping_source_name(MappingSource s) {
  switch (s) {
  case MappingSource::Auto:
    return "auto";
  case MappingSource::Paper:
    return "paper";
  case MappingSource::Pinned:
    return "pinned";
  }
  return "?";
}

std::string MappingPlan::to_string() const {
  std::ostringstream os;
  os << "map{" << mapping_source_name(source) << " rows=" << rows_per_dpu
     << " items=" << items_per_dpu << " tasklets=" << n_tasklets
     << " dpus=" << n_dpus;
  if (split > 1) {
    os << " split=" << split;
  }
  os << " kernel=" << predicted.kernel_cycles
     << "cy makespan=" << predicted.makespan_seconds * 1e3 << "ms}";
  return os.str();
}

std::string MappingPlan::obs_suffix() const {
  std::ostringstream os;
  os << "/map=" << mapping_source_name(source) << "/r=" << rows_per_dpu
     << "/i=" << items_per_dpu << "/t=" << n_tasklets;
  if (split > 1) {
    os << "/s=" << split;
  }
  return os.str();
}

MappingOverride MappingOverride::parse(const std::string& text) {
  MappingOverride o;
  if (text == "auto") {
    o.kind = Kind::Auto;
    return o;
  }
  if (text == "paper") {
    o.kind = Kind::Paper;
    return o;
  }
  o.kind = Kind::Pinned;
  std::size_t pos = 0;
  bool any = false;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string part = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (part.empty()) {
      throw ConfigError("PIMDNN_MAPPING: empty term in '" + text + "'");
    }
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("PIMDNN_MAPPING: expected key=value, got '" + part +
                        "'");
    }
    const std::string key = part.substr(0, eq);
    const std::string val = part.substr(eq + 1);
    if (key == "rows") {
      o.rows_per_dpu = parse_field<int>(val, key, part);
    } else if (key == "images") {
      o.items_per_dpu = parse_field<std::uint32_t>(val, key, part);
    } else if (key == "tasklets") {
      o.n_tasklets = parse_field<std::uint32_t>(val, key, part);
    } else if (key == "split") {
      const auto v = parse_field<std::uint32_t>(val, key, part);
      if ((v & (v - 1)) != 0) {
        throw ConfigError("PIMDNN_MAPPING: split must be a power of two "
                          ">= 1, got '" +
                          part + "'");
      }
      o.split = v;
    } else {
      throw ConfigError("PIMDNN_MAPPING: unknown key '" + key + "' in '" +
                        part +
                        "' (want rows/images/tasklets/split, or auto/paper)");
    }
    any = true;
  }
  if (!any) {
    throw ConfigError("PIMDNN_MAPPING: empty override");
  }
  return o;
}

std::string MappingOverride::to_string() const {
  if (kind == Kind::Auto) {
    return "auto";
  }
  if (kind == Kind::Paper) {
    return "paper";
  }
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  if (rows_per_dpu.has_value()) {
    sep();
    os << "rows=" << *rows_per_dpu;
  }
  if (items_per_dpu.has_value()) {
    sep();
    os << "images=" << *items_per_dpu;
  }
  if (n_tasklets.has_value()) {
    sep();
    os << "tasklets=" << *n_tasklets;
  }
  if (split.has_value()) {
    sep();
    os << "split=" << *split;
  }
  return os.str();
}

MappingOverride mapping_override() {
  std::lock_guard<std::mutex> lk(g_override_mutex);
  if (g_override.has_value()) {
    return *g_override;
  }
  return resolve_env_locked();
}

void set_default_mapping_override(const MappingOverride& o) {
  std::lock_guard<std::mutex> lk(g_override_mutex);
  g_override = o;
}

void clear_default_mapping_override() {
  std::lock_guard<std::mutex> lk(g_override_mutex);
  g_override.reset();
}

ScopedMappingOverride::ScopedMappingOverride(const MappingOverride& o) {
  std::lock_guard<std::mutex> lk(g_override_mutex);
  prev_ = g_override;
  g_override = o;
}

ScopedMappingOverride::ScopedMappingOverride(const std::string& text)
    : ScopedMappingOverride(MappingOverride::parse(text)) {}

ScopedMappingOverride::~ScopedMappingOverride() {
  std::lock_guard<std::mutex> lk(g_override_mutex);
  g_override = prev_;
}

bool mapping_explain() {
  static const bool on = [] {
    const char* env = std::getenv("PIMDNN_MAPPING_EXPLAIN");
    return env != nullptr && *env != '\0';
  }();
  return on;
}

} // namespace pimdnn::map
