#include "map/space.hpp"

#include <algorithm>

#include "runtime/dpu_pool.hpp"

namespace pimdnn::map {

namespace {

/// Sorts, dedupes and clamps a candidate list to [lo, hi].
template <typename T>
void finalize(std::vector<T>& v, T lo, T hi) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  v.erase(std::remove_if(v.begin(), v.end(),
                         [&](T x) { return x < lo || x > hi; }),
          v.end());
}

} // namespace

Limits pool_limits(const runtime::DpuPool& pool) {
  Limits limits;
  if (pool.plan_capacity() < pool.config().total_dpus) {
    limits.max_dpus = pool.plan_capacity();
  }
  return limits;
}

std::vector<std::uint32_t> split_candidates(std::size_t total_units,
                                            std::uint32_t max_split) {
  std::vector<std::uint32_t> out;
  const std::size_t cap = std::min<std::size_t>(
      std::min<std::size_t>(max_split, kMaxSplitFactor), total_units);
  for (std::uint32_t k = 2; k <= cap; k *= 2) {
    out.push_back(k);
  }
  return out;
}

std::vector<int> gemm_rows_candidates(int m, int k, const Limits& limits) {
  const int fit = max_gemm_rows_per_dpu(k);
  if (fit < 1 || m < 1) {
    return {};
  }
  int lo = 1;
  if (limits.max_dpus > 0) {
    lo = static_cast<int>(
        (static_cast<std::uint64_t>(m) + limits.max_dpus - 1) /
        limits.max_dpus);
  }
  const int hi = std::min(fit, m);
  if (lo > hi) {
    return {};
  }
  std::vector<int> out;
  if (hi - lo <= 16) {
    for (int r = lo; r <= hi; ++r) {
      out.push_back(r);
    }
    return out;
  }
  // Geometric ladder from lo, plus both endpoints (and the paper's 1 when
  // it is feasible — lo == 1 covers it).
  for (int r = lo; r < hi; r *= 2) {
    out.push_back(r);
    out.push_back(r + (r >> 1)); // 1.5x midpoints refine the ladder
  }
  out.push_back(lo);
  out.push_back(hi);
  finalize(out, lo, hi);
  return out;
}

std::vector<std::uint32_t> tasklet_candidates(std::uint32_t max_tasklets) {
  if (max_tasklets == 0) {
    return {};
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t t = 1; t < max_tasklets; t *= 2) {
    out.push_back(t);
  }
  out.push_back(11); // the 11-stage pipeline's saturation point
  out.push_back(max_tasklets);
  finalize(out, std::uint32_t{1}, max_tasklets);
  return out;
}

std::vector<std::uint32_t> batch_items_candidates(std::uint32_t capacity,
                                                  std::size_t n_items,
                                                  const Limits& limits) {
  if (capacity == 0) {
    return {};
  }
  std::uint32_t lo = 1;
  if (limits.max_dpus > 0 && n_items > 0) {
    lo = static_cast<std::uint32_t>(
        (n_items + limits.max_dpus - 1) / limits.max_dpus);
  }
  if (lo > capacity) {
    return {};
  }
  // Capacity is a WRAM-derived count (<= 24 tasklet slots): enumerate all.
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = lo; i <= capacity; ++i) {
    out.push_back(i);
  }
  return out;
}

} // namespace pimdnn::map
