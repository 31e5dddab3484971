// Bit packing for binarized tensors.
//
// eBNN's "exclusive utilization of binarized weights ... simplify the
// convolutions to a stream of bitwise computation, followed by
// accumulations" (thesis §4.1.1). Values are the signs of real weights:
// bit 1 encodes +1, bit 0 encodes -1. A binary dot product of `n` packed
// positions is then `2*popcount(xnor(a,b) & mask) - n`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace pimdnn::nn {

/// Packs the signs of `values` (>=0 -> 1, <0 -> 0) into 32-bit words,
/// little-endian within a word (element i lands in bit i%32 of word i/32).
std::vector<std::uint32_t> bitpack_signs(std::span<const float> values);

/// Packs explicit {0,1} bits.
std::vector<std::uint32_t> bitpack_bits(std::span<const int> bits);

/// Extracts bit `i` from a packed vector.
int bit_at(std::span<const std::uint32_t> packed, std::size_t i);

/// Binary dot product of `n` positions of two packed vectors:
/// sum over i of (a_i==b_i ? +1 : -1) = 2*popcount(~(a^b) & mask) - n.
std::int32_t binary_dot(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b, std::size_t n);

/// Number of 32-bit words needed to hold `n` bits.
constexpr std::size_t words_for_bits(std::size_t n) {
  return (n + 31) / 32;
}

/// ORs bits [0, n) of `src` into `dst` from bit `at` on, in the layout of
/// bitpack_bits; bits of `src` past `n` are ignored. Throws UsageError
/// when `src` is short of `n` bits or `dst` of `at + n`.
void or_bits(std::span<const std::uint32_t> src, std::size_t n,
             std::span<std::uint32_t> dst, std::size_t at);

/// `size()` rows of `bits()` bits each, every row packed as bitpack_bits
/// packs it. A row starts on a fresh word and its bits past `bits()` stay
/// zero, so equal rows have equal words and two rows share no word: tasks
/// may write different rows at the same time.
class BitMatrix {
public:
  /// Read view of one row: `size()` bits, bit j as `operator[](j)`.
  class Row {
  public:
    Row(std::span<const std::uint32_t> words, std::size_t bits)
        : words_(words), bits_(bits) {}

    std::size_t size() const { return bits_; }
    /// Bit `j` (0 or 1); unchecked.
    int operator[](std::size_t j) const {
      return static_cast<int>((words_[j / 32] >> (j % 32)) & 1u);
    }
    /// The packed words, padding bits zero.
    std::span<const std::uint32_t> words() const { return words_; }

    bool operator==(const Row& other) const;
    /// Equal to one int per bit: the same count and the same 0/1 values.
    bool operator==(std::span<const int> bits) const;

  private:
    std::span<const std::uint32_t> words_;
    std::size_t bits_;
  };

  BitMatrix() = default;
  /// `rows` all-zero rows of `bits` bits.
  BitMatrix(std::size_t rows, std::size_t bits)
      : rows_(rows),
        bits_(bits),
        stride_(words_for_bits(bits)),
        words_(rows * stride_, 0u) {}

  std::size_t size() const { return rows_; }
  std::size_t bits() const { return bits_; }

  /// Row `i`; unchecked.
  Row operator[](std::size_t i) const {
    return {{words_.data() + i * stride_, stride_}, bits_};
  }
  /// Row `i`'s words, to write; its padding bits must stay zero.
  std::span<std::uint32_t> row_words(std::size_t i) {
    return {words_.data() + i * stride_, stride_};
  }
  /// Packs `bits` (0/1, `bits()` of them) into row `i`, as bitpack_bits.
  void set_row(std::size_t i, std::span<const int> bits);

  bool operator==(const BitMatrix&) const = default;

private:
  std::size_t rows_ = 0;
  std::size_t bits_ = 0;
  std::size_t stride_ = 0; ///< words per row
  std::vector<std::uint32_t> words_;
};

/// Prints a row as its bits, bit 0 first ("0110..."); a matrix as one
/// row per line.
std::ostream& operator<<(std::ostream& os, const BitMatrix::Row& row);
std::ostream& operator<<(std::ostream& os, const BitMatrix& m);

} // namespace pimdnn::nn
