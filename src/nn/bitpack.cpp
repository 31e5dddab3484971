#include "nn/bitpack.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/fixed_point.hpp"

namespace pimdnn::nn {

std::vector<std::uint32_t> bitpack_signs(std::span<const float> values) {
  std::vector<std::uint32_t> out(words_for_bits(values.size()), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= 0.0f) {
      out[i / 32] |= (std::uint32_t{1} << (i % 32));
    }
  }
  return out;
}

std::vector<std::uint32_t> bitpack_bits(std::span<const int> bits) {
  std::vector<std::uint32_t> out(words_for_bits(bits.size()), 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    require(bits[i] == 0 || bits[i] == 1, "bitpack_bits: values must be 0/1");
    if (bits[i] == 1) {
      out[i / 32] |= (std::uint32_t{1} << (i % 32));
    }
  }
  return out;
}

int bit_at(std::span<const std::uint32_t> packed, std::size_t i) {
  require(i / 32 < packed.size(), "bit_at out of range");
  return static_cast<int>((packed[i / 32] >> (i % 32)) & 1u);
}

std::int32_t binary_dot(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b, std::size_t n) {
  require(a.size() >= words_for_bits(n) && b.size() >= words_for_bits(n),
          "binary_dot: packed vectors too small");
  std::int32_t match = 0;
  for (std::size_t w = 0; w * 32 < n; ++w) {
    std::uint32_t x = ~(a[w] ^ b[w]);
    const std::size_t remaining = n - w * 32;
    if (remaining < 32) {
      x &= (std::uint32_t{1} << remaining) - 1;
    }
    match += popcount32(x);
  }
  return 2 * match - static_cast<std::int32_t>(n);
}

void or_bits(std::span<const std::uint32_t> src, std::size_t n,
             std::span<std::uint32_t> dst, std::size_t at) {
  require(src.size() >= words_for_bits(n) &&
              dst.size() * 32 >= at + n,
          "or_bits: packed vectors too small");
  const std::size_t shift = at % 32;
  for (std::size_t w = 0; w * 32 < n; ++w) {
    std::uint32_t x = src[w];
    const std::size_t remaining = n - w * 32;
    if (remaining < 32) {
      x &= (std::uint32_t{1} << remaining) - 1;
    }
    std::uint32_t* d = dst.data() + at / 32 + w;
    d[0] |= x << shift;
    // The high part is nonzero only where it holds bits below at + n.
    if (shift != 0 && (x >> (32 - shift)) != 0) {
      d[1] |= x >> (32 - shift);
    }
  }
}

bool BitMatrix::Row::operator==(const Row& other) const {
  return bits_ == other.bits_ &&
         std::equal(words_.begin(), words_.end(), other.words_.begin());
}

bool BitMatrix::Row::operator==(std::span<const int> bits) const {
  if (bits.size() != bits_) {
    return false;
  }
  for (std::size_t j = 0; j < bits_; ++j) {
    if ((*this)[j] != bits[j]) {
      return false;
    }
  }
  return true;
}

void BitMatrix::set_row(std::size_t i, std::span<const int> bits) {
  require(i < rows_ && bits.size() == bits_,
          "BitMatrix::set_row: row or bit count out of range");
  const std::vector<std::uint32_t> packed = bitpack_bits(bits);
  std::copy(packed.begin(), packed.end(), row_words(i).begin());
}

std::ostream& operator<<(std::ostream& os, const BitMatrix::Row& row) {
  for (std::size_t j = 0; j < row.size(); ++j) {
    os << row[j];
  }
  return os;
}

std::ostream& operator<<(std::ostream& os, const BitMatrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << (i == 0 ? "" : "\n") << m[i];
  }
  return os;
}

} // namespace pimdnn::nn
