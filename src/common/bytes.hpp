// Byte-level helpers for the host<->DPU transfer rules.
//
// UPMEM requires every host<->MRAM transfer to be 8-byte aligned and its
// length divisible by 8 (thesis §3.2). Buffers of other sizes must be padded
// and the *real* length communicated to the DPU separately. These helpers
// implement that padding discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pimdnn {

/// Transfer granularity imposed by the UPMEM host interface (bytes).
inline constexpr MemSize kXferAlign = 8;

/// Rounds `n` up to the next multiple of `align` (align must be a power of 2).
constexpr MemSize align_up(MemSize n, MemSize align) {
  return (n + align - 1) & ~(align - 1);
}

/// True if `n` is a multiple of the 8-byte transfer granularity.
constexpr bool is_xfer_aligned(MemSize n) { return n % kXferAlign == 0; }

/// Copies `src` into a new buffer padded with zeros to the 8-byte rule.
std::vector<std::uint8_t> pad_to_xfer(const void* src, MemSize size);

/// `v`'s elements as raw bytes (e.g. weights bound for a WRAM broadcast).
template <class T>
std::vector<std::uint8_t> to_bytes(const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  return {p, p + v.size() * sizeof(T)};
}

/// Number of padding bytes the 8-byte rule adds to a payload of `size` bytes.
constexpr MemSize xfer_padding(MemSize size) {
  return align_up(size, kXferAlign) - size;
}

} // namespace pimdnn
