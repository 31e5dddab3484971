// The eBNN kernels' per-launch charges (private to pim_ebnn).
//
// Both eBNN kernels write their cost as one image's sim::KernelCharges;
// strided_charges turns that into one tasklet's record, which the fast
// twin applies (sim::apply_counts) and the estimator prices
// (sim::priced_wall).
#pragma once

#include <cstdint>

#include "sim/charges.hpp"

namespace pimdnn::ebnn {

/// Charges of tasklet `t` of `n_tasklets` over a launch of `n_images`
/// images that each charge `per_image`. Both eBNN kernels run images t,
/// t + T, ... on tasklet t, and every tasklet first loads the image count
/// (one ALU statement).
inline sim::KernelCharges strided_charges(const sim::KernelCharges& per_image,
                                          std::uint64_t n_images,
                                          std::uint32_t t,
                                          std::uint32_t n_tasklets) {
  const std::uint64_t images =
      n_images > t ? (n_images - 1 - t) / n_tasklets + 1 : 0;
  sim::KernelCharges c;
  c.alu = 1 + images * per_image.alu;
  c.loops = images * per_image.loops;
  c.slots = images * per_image.slots;
  c.mul16 = images * per_image.mul16;
  c.mul32 = images * per_image.mul32;
  for (std::size_t s = 0; s < c.calls.size(); ++s) {
    c.calls[s] = images * per_image.calls[s];
  }
  c.dma = images * per_image.dma;
  return c;
}

} // namespace pimdnn::ebnn
