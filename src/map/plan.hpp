// Mapping plans and the PIMDNN_MAPPING override.
//
// A `MappingPlan` is the mapper's answer to "how does this workload land
// on DPUs": rows of A per DPU (GEMM), images/items per DPU (batched
// kernels), tasklets per DPU, and the resulting DPU count, together with
// the cost model's predicted host/transfer/kernel breakdown.
//
// The `PIMDNN_MAPPING` environment variable (and its programmatic
// `set_default_mapping_override`) selects between:
//
//   auto                      — cost-model argmin search (the default),
//   paper                     — the thesis' original hand mappings
//                               (rows_per_dpu=1 + 11 GEMM tasklets,
//                               16 images per eBNN DPU, one tasklet per
//                               image slot),
//   rows=R,images=N,tasklets=T,split=K
//                             — pin individual dimensions (any subset;
//                               unpinned dimensions fall back to the
//                               paper values). split=K (a power of two)
//                               carves the workload into K per-bank
//                               sub-launches double-buffered across the
//                               dual-bank pipeline.
//
// Callers that pass explicit mapping arguments (the historical APIs) pin
// the plan themselves; the environment only governs call sites that use
// the auto sentinels. Set PIMDNN_MAPPING_EXPLAIN=1 to dump every resolved
// plan and its predicted breakdown to stderr.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace pimdnn::map {

/// Sentinel tasklet count meaning "ask the mapper" (never a valid count).
inline constexpr std::uint32_t kAutoTasklets = 0xFFFFFFFFu;

/// Sentinel rows_per_dpu meaning "ask the mapper" (0 is never valid;
/// negative values still throw like they always did).
inline constexpr int kAutoRows = 0;

/// Where a plan's numbers came from.
enum class MappingSource : std::uint8_t {
  Auto,   ///< cost-model argmin search
  Paper,  ///< the thesis' fixed mapping
  Pinned, ///< caller- or environment-pinned values
};

/// Printable name ("auto"/"paper"/"pinned").
const char* mapping_source_name(MappingSource s);

/// The cost model's predicted timeline for one batch under a plan.
struct PredictedBreakdown {
  Cycles kernel_cycles = 0;      ///< slowest DPU's kernel wall
  Seconds to_dpu_seconds = 0.0;  ///< host -> DPU transfer
  Seconds kernel_seconds = 0.0;  ///< kernel_cycles at the DPU clock
  Seconds from_dpu_seconds = 0.0; ///< DPU -> host transfer
  Seconds makespan_seconds = 0.0; ///< PipelineModel-composed total
};

/// One resolved mapping decision.
struct MappingPlan {
  int rows_per_dpu = 1;            ///< GEMM A/C rows per DPU
  std::uint32_t items_per_dpu = 1; ///< images/items per DPU (batched kernels)
  std::uint32_t n_tasklets = 1;    ///< tasklets per DPU
  std::uint32_t n_dpus = 1;        ///< DPUs the workload spreads across
  /// Sub-launches the workload is carved into (1 = unsplit). When >1 the
  /// sub-launch schedule is re-derived from `n_dpus` via runtime::split_ranges
  /// so the pricing and every executor agree on the same cut points;
  /// sub-launch s runs on bank s%2 through the dual-bank pipeline.
  std::uint32_t split = 1;
  MappingSource source = MappingSource::Paper;
  PredictedBreakdown predicted;

  /// Human-readable one-liner (explain mode, error messages).
  std::string to_string() const;

  /// Suffix appended to the obs kernel signature so per-signature offload
  /// summaries never aggregate different mappings into one bucket,
  /// e.g. "/map=auto/r=2/i=16/t=11" ("/s=K" appended when split > 1).
  std::string obs_suffix() const;
};

/// Parsed PIMDNN_MAPPING value.
struct MappingOverride {
  enum class Kind : std::uint8_t { Auto, Paper, Pinned };
  Kind kind = Kind::Auto;
  /// Pinned dimensions (Kind::Pinned only); unset fields use paper values.
  std::optional<int> rows_per_dpu;
  std::optional<std::uint32_t> items_per_dpu;
  std::optional<std::uint32_t> n_tasklets;
  /// Pinned split factor (power of two, >= 1); unset means unsplit.
  std::optional<std::uint32_t> split;

  /// Parses "auto", "paper" or "rows=R,images=N,tasklets=T,split=K" (any
  /// subset, any order); throws ConfigError naming the offending token on
  /// malformed text.
  static MappingOverride parse(const std::string& text);

  /// Round-trips back to the grammar ("auto", "paper" or the pin list).
  std::string to_string() const;
};

/// The process-wide mapping override: PIMDNN_MAPPING on first call (empty
/// or unset means auto), or whatever set_default_mapping_override
/// installed last.
MappingOverride mapping_override();

/// Overrides the process default (tests and benches that compare modes).
void set_default_mapping_override(const MappingOverride& o);

/// Restores environment-variable resolution on next mapping_override().
void clear_default_mapping_override();

/// RAII scope for set/clear; restores the previous override (nest-safe).
class ScopedMappingOverride {
public:
  explicit ScopedMappingOverride(const MappingOverride& o);
  explicit ScopedMappingOverride(const std::string& text);
  ~ScopedMappingOverride();
  ScopedMappingOverride(const ScopedMappingOverride&) = delete;
  ScopedMappingOverride& operator=(const ScopedMappingOverride&) = delete;

private:
  std::optional<MappingOverride> prev_;
};

/// True when PIMDNN_MAPPING_EXPLAIN is set non-empty: resolved plans are
/// dumped to stderr.
bool mapping_explain();

} // namespace pimdnn::map
