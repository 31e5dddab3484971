#include "map/mapper.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/banked_executor.hpp"

namespace pimdnn::map {

namespace {

/// Counts the plan in obs and dumps it in explain mode.
void note_plan(const char* kind, const MappingPlan& plan) {
  auto& m = obs::Metrics::instance();
  m.add(std::string("map.plan.") + kind);
  m.add(std::string("map.plan.source.") +
        mapping_source_name(plan.source));
  if (mapping_explain()) {
    std::fprintf(stderr, "[map] %s %s\n", kind, plan.to_string().c_str());
  }
}

bool cheaper(const MappingPlan& a, const MappingPlan& b) {
  return a.predicted.makespan_seconds < b.predicted.makespan_seconds;
}

/// True when `plan` respects the request's DPU-capacity limit. A split
/// plan keeps at most one sub-launch resident per bank pool, so only its
/// largest sub-launch (the per-bank peak) must fit the limit.
bool fits(const Limits& limits, const MappingPlan& plan) {
  if (limits.max_dpus == 0) {
    return true;
  }
  const std::uint32_t split = std::max(plan.split, 1u);
  return (plan.n_dpus + split - 1) / split <= limits.max_dpus;
}

} // namespace

Mapper::Mapper(CostParams params) : params_(params) {}

std::uint32_t Mapper::saturating_tasklets(const sim::UpmemConfig& sys) {
  return sys.pipeline_stages;
}

MappingPlan Mapper::price_gemm(const GemmRequest& req, int rows,
                               std::uint32_t n_tasklets,
                               MappingSource source) const {
  require_gemm_rows(req.k, rows);
  require_gemm_tasklets(n_tasklets);

  MappingPlan plan;
  plan.rows_per_dpu = rows;
  plan.items_per_dpu = 1;
  plan.n_tasklets = n_tasklets;
  plan.n_dpus = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(req.m) + rows - 1) /
      static_cast<std::uint64_t>(rows));
  plan.source = source;

  CandidateTraffic traffic;
  traffic.bytes_to_dpu =
      static_cast<MemSize>(plan.n_dpus) *
      (req.bcast_bytes_per_dpu +
       static_cast<MemSize>(rows) * req.a_bytes_per_row);
  traffic.bytes_from_dpu = static_cast<MemSize>(plan.n_dpus) *
                           static_cast<MemSize>(rows) * req.c_bytes_per_row;
  traffic.kernel_cycles = req.kernel_cycles(rows, n_tasklets);
  plan.predicted = predict(params_, traffic);
  return plan;
}

MappingPlan Mapper::price_gemm_split(const GemmRequest& req,
                                     const MappingPlan& base,
                                     std::uint32_t split) const {
  if (split <= 1 || base.n_dpus < 2) {
    return base;
  }
  // Cut the DPU set into contiguous chunks; every DPU keeps the same rows
  // it had unsplit, so the per-sub-launch kernel wall is the unsplit wall.
  const auto ranges = runtime::split_ranges(base.n_dpus, split);
  const Cycles sub_kernel =
      req.kernel_cycles(base.rows_per_dpu, base.n_tasklets);
  std::vector<CandidateTraffic> subs;
  subs.reserve(ranges.size());
  for (const runtime::SplitRange& r : ranges) {
    CandidateTraffic t;
    t.bytes_to_dpu =
        static_cast<MemSize>(r.n_units) *
        (req.bcast_bytes_per_dpu +
         static_cast<MemSize>(base.rows_per_dpu) * req.a_bytes_per_row);
    t.bytes_from_dpu = static_cast<MemSize>(r.n_units) *
                       static_cast<MemSize>(base.rows_per_dpu) *
                       req.c_bytes_per_row;
    t.kernel_cycles = sub_kernel;
    subs.push_back(t);
  }
  MappingPlan plan = base;
  plan.split = static_cast<std::uint32_t>(ranges.size());
  plan.predicted = predict_split(params_, subs);
  return plan;
}

MappingPlan Mapper::plan_gemm(const GemmRequest& req) const {
  require_gemm_shape(req.n, req.k);
  require(req.m >= 1, "GEMM needs at least one row");
  require(static_cast<bool>(req.kernel_cycles),
          "GemmRequest needs a kernel_cycles estimator");

  const bool rows_pinned = req.pinned_rows != kAutoRows;
  const bool tasklets_pinned = req.pinned_tasklets != kAutoTasklets;

  MappingPlan plan;
  if (rows_pinned || tasklets_pinned) {
    // A caller pin freezes the whole plan: unpinned dimensions take the
    // paper values so the historical APIs behave exactly as before.
    plan = price_gemm(req, rows_pinned ? req.pinned_rows : req.paper_rows,
                      tasklets_pinned ? req.pinned_tasklets
                                      : req.paper_tasklets,
                      MappingSource::Pinned);
  } else {
    const MappingOverride o = mapping_override();
    if (o.kind == MappingOverride::Kind::Paper) {
      plan = price_gemm(req, req.paper_rows, req.paper_tasklets,
                        MappingSource::Paper);
    } else if (o.kind == MappingOverride::Kind::Pinned) {
      plan = price_gemm(req, o.rows_per_dpu.value_or(req.paper_rows),
                        o.n_tasklets.value_or(req.paper_tasklets),
                        MappingSource::Pinned);
      // An env-pinned split only applies where the call site can execute
      // one (max_split > 1); elsewhere the plan stays unsplit.
      const std::uint32_t pinned_split = o.split.value_or(1);
      if (pinned_split > 1 && req.max_split > 1) {
        plan = price_gemm_split(req, plan,
                                std::min(pinned_split, req.max_split));
      }
    } else {
      // Auto: price the paper mapping first, replace only on a strictly
      // cheaper candidate — the argmin is never worse than the paper's.
      // A capacity limit can leave the paper seed infeasible (more DPUs
      // than max_dpus): any feasible candidate then replaces it outright,
      // cheaper or not. With no feasible candidate at all the seed
      // survives and the session degrades at launch.
      plan = price_gemm(req, req.paper_rows, req.paper_tasklets,
                        MappingSource::Auto);
      bool feasible = fits(req.limits, plan);
      const auto tasklets = tasklet_candidates(
          std::min(req.limits.max_tasklets, kMaxGemmTasklets));
      // Pass 1: the historical unsplit argmin within the true limits.
      for (int rows : gemm_rows_candidates(req.m, req.k, req.limits)) {
        for (std::uint32_t t : tasklets) {
          const MappingPlan cand =
              price_gemm(req, rows, t, MappingSource::Auto);
          if (fits(req.limits, cand) && (!feasible || cheaper(cand, plan))) {
            plan = cand;
            feasible = true;
          }
        }
      }
      // Pass 2 (split-capable call sites only): splits of the unsplit
      // winner are priced first so a tying split candidate elsewhere in
      // the space cannot displace the winner's rows/tasklets — the same
      // paper-seeded tie-break discipline as pass 1. Then the whole space
      // is swept again with splitting; under a DPU cap the enumeration may
      // overshoot the cap by the split factor (a split plan keeps one
      // sub-launch per bank), with per-candidate fits() keeping the final
      // plan honest.
      if (req.max_split > 1) {
        const MappingPlan unsplit = plan;
        for (std::uint32_t s :
             split_candidates(unsplit.n_dpus, req.max_split)) {
          const MappingPlan scand = price_gemm_split(req, unsplit, s);
          if (fits(req.limits, scand) &&
              (!feasible || cheaper(scand, plan))) {
            plan = scand;
            feasible = true;
          }
        }
        Limits search = req.limits;
        if (search.max_dpus > 0) {
          search.max_dpus *= std::min(req.max_split, kMaxSplitFactor);
        }
        for (int rows : gemm_rows_candidates(req.m, req.k, search)) {
          for (std::uint32_t t : tasklets) {
            const MappingPlan cand =
                price_gemm(req, rows, t, MappingSource::Auto);
            for (std::uint32_t s :
                 split_candidates(cand.n_dpus, req.max_split)) {
              const MappingPlan scand = price_gemm_split(req, cand, s);
              if (fits(req.limits, scand) &&
                  (!feasible || cheaper(scand, plan))) {
                plan = scand;
                feasible = true;
              }
            }
          }
        }
      }
    }
  }
  note_plan("gemm", plan);
  return plan;
}

MappingPlan Mapper::price_batch(const BatchRequest& req, std::uint32_t items,
                                std::uint32_t n_tasklets,
                                MappingSource source) const {
  require(items >= 1 && items <= req.capacity,
          "mapping: images per DPU exceed the WRAM capacity");
  require(n_tasklets >= 1 && n_tasklets <= req.capacity,
          "mapping: tasklets exceed the per-DPU item slots");

  MappingPlan plan;
  plan.rows_per_dpu = 1;
  plan.items_per_dpu = items;
  plan.n_tasklets = n_tasklets;
  plan.n_dpus =
      static_cast<std::uint32_t>((req.n_items + items - 1) / items);
  plan.source = source;

  CandidateTraffic traffic;
  traffic.bytes_to_dpu =
      static_cast<MemSize>(plan.n_dpus) * req.const_bytes_per_dpu +
      static_cast<MemSize>(req.n_items) * req.item_in_bytes;
  traffic.bytes_from_dpu =
      static_cast<MemSize>(req.n_items) * req.item_out_bytes;
  if (req.kernel_cycles) {
    // The wall is set by the fullest DPU.
    const auto fullest = static_cast<std::uint32_t>(
        std::min<std::size_t>(items, req.n_items));
    traffic.kernel_cycles = req.kernel_cycles(fullest, n_tasklets);
  }
  plan.predicted = predict(params_, traffic);
  return plan;
}

MappingPlan Mapper::price_batch_split(const BatchRequest& req,
                                      const MappingPlan& base,
                                      std::uint32_t split) const {
  if (split <= 1 || base.n_dpus < 2) {
    return base;
  }
  // Cut at DPU boundaries: every DPU keeps the items it had unsplit, so
  // each sub-launch's fullest DPU — and its kernel wall — is unchanged
  // (the global tail DPU ends up in the last sub-launch, as before).
  const auto ranges = runtime::split_ranges(base.n_dpus, split);
  std::vector<CandidateTraffic> subs;
  subs.reserve(ranges.size());
  for (const runtime::SplitRange& r : ranges) {
    const std::size_t first_item = r.first_unit * base.items_per_dpu;
    const std::size_t sub_items = std::min<std::size_t>(
        req.n_items - first_item, r.n_units * base.items_per_dpu);
    CandidateTraffic t;
    t.bytes_to_dpu =
        static_cast<MemSize>(r.n_units) * req.const_bytes_per_dpu +
        static_cast<MemSize>(sub_items) * req.item_in_bytes;
    t.bytes_from_dpu =
        static_cast<MemSize>(sub_items) * req.item_out_bytes;
    if (req.kernel_cycles) {
      const auto fullest = static_cast<std::uint32_t>(
          std::min<std::size_t>(base.items_per_dpu, sub_items));
      t.kernel_cycles = req.kernel_cycles(fullest, base.n_tasklets);
    }
    subs.push_back(t);
  }
  MappingPlan plan = base;
  plan.split = static_cast<std::uint32_t>(ranges.size());
  plan.predicted = predict_split(params_, subs);
  return plan;
}

MappingPlan Mapper::plan_batch(const BatchRequest& req) const {
  require(req.n_items >= 1, "BatchRequest needs at least one item");
  require(req.capacity >= 1, "BatchRequest needs a per-DPU capacity");

  const std::uint32_t paper_items =
      req.paper_items != 0 ? req.paper_items : req.capacity;
  const std::uint32_t paper_tasklets =
      req.paper_tasklets != 0 ? req.paper_tasklets : paper_items;

  MappingPlan plan;
  if (req.pinned_tasklets != kAutoTasklets) {
    plan = price_batch(req, paper_items, req.pinned_tasklets,
                       MappingSource::Pinned);
  } else {
    const MappingOverride o = mapping_override();
    if (o.kind == MappingOverride::Kind::Paper) {
      plan = price_batch(req, paper_items, paper_tasklets,
                         MappingSource::Paper);
    } else if (o.kind == MappingOverride::Kind::Pinned) {
      plan = price_batch(req, o.items_per_dpu.value_or(paper_items),
                         o.n_tasklets.value_or(paper_tasklets),
                         MappingSource::Pinned);
      const std::uint32_t pinned_split = o.split.value_or(1);
      if (pinned_split > 1 && req.max_split > 1) {
        plan = price_batch_split(req, plan,
                                 std::min(pinned_split, req.max_split));
      }
    } else if (!req.kernel_cycles) {
      // No estimator to search with: keep the paper mapping.
      plan = price_batch(req, paper_items, paper_tasklets,
                         MappingSource::Paper);
    } else {
      plan = price_batch(req, paper_items, paper_tasklets,
                         MappingSource::Auto);
      // Same seed-feasibility rule as plan_gemm: an over-capacity paper
      // seed yields to the first feasible candidate.
      bool feasible = fits(req.limits, plan);
      // Pass 1: the historical unsplit argmin within the true limits.
      for (std::uint32_t items :
           batch_items_candidates(req.capacity, req.n_items, req.limits)) {
        for (std::uint32_t t : tasklet_candidates(
                 std::min(items, req.limits.max_tasklets == 0
                                     ? items
                                     : req.limits.max_tasklets))) {
          const MappingPlan cand =
              price_batch(req, items, t, MappingSource::Auto);
          if (fits(req.limits, cand) && (!feasible || cheaper(cand, plan))) {
            plan = cand;
            feasible = true;
          }
        }
      }
      // Pass 2: splits, seeded with the unsplit winner's own so ties keep
      // its items/tasklets, then the cap-relaxed sweep — see plan_gemm.
      if (req.max_split > 1) {
        const MappingPlan unsplit = plan;
        for (std::uint32_t s :
             split_candidates(unsplit.n_dpus, req.max_split)) {
          const MappingPlan scand = price_batch_split(req, unsplit, s);
          if (fits(req.limits, scand) &&
              (!feasible || cheaper(scand, plan))) {
            plan = scand;
            feasible = true;
          }
        }
        Limits search = req.limits;
        if (search.max_dpus > 0) {
          search.max_dpus *= std::min(req.max_split, kMaxSplitFactor);
        }
        for (std::uint32_t items :
             batch_items_candidates(req.capacity, req.n_items, search)) {
          for (std::uint32_t t : tasklet_candidates(
                   std::min(items, req.limits.max_tasklets == 0
                                       ? items
                                       : req.limits.max_tasklets))) {
            const MappingPlan cand =
                price_batch(req, items, t, MappingSource::Auto);
            for (std::uint32_t s :
                 split_candidates(cand.n_dpus, req.max_split)) {
              const MappingPlan scand = price_batch_split(req, cand, s);
              if (fits(req.limits, scand) &&
                  (!feasible || cheaper(scand, plan))) {
                plan = scand;
                feasible = true;
              }
            }
          }
        }
      }
    }
  }
  note_plan("batch", plan);
  return plan;
}

} // namespace pimdnn::map
