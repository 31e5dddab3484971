// Unit tests for src/common: fixed-point helpers, RNG determinism, stats,
// byte/alignment utilities and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace pimdnn {
namespace {

TEST(FixedPoint, ClampTo) {
  EXPECT_EQ(clamp_to(5, 0, 10), 5);
  EXPECT_EQ(clamp_to(-5, 0, 10), 0);
  EXPECT_EQ(clamp_to(15, 0, 10), 10);
}

TEST(FixedPoint, SaturateCastNarrowsToInt16) {
  EXPECT_EQ((saturate_cast<std::int16_t, std::int64_t>(40000)), 32767);
  EXPECT_EQ((saturate_cast<std::int16_t, std::int64_t>(-40000)), -32768);
  EXPECT_EQ((saturate_cast<std::int16_t, std::int64_t>(123)), 123);
}

TEST(FixedPoint, SatAddI32Saturates) {
  EXPECT_EQ(sat_add_i32(2000000000, 2000000000), 2147483647);
  EXPECT_EQ(sat_add_i32(-2000000000, -2000000000), -2147483648);
  EXPECT_EQ(sat_add_i32(1, 2), 3);
}

TEST(FixedPoint, SatMulI32Saturates) {
  EXPECT_EQ(sat_mul_i32(100000, 100000), 2147483647);
  EXPECT_EQ(sat_mul_i32(-100000, 100000), -2147483648);
  EXPECT_EQ(sat_mul_i32(7, -6), -42);
}

TEST(FixedPoint, SaturateShiftDownMatchesAlgorithm2) {
  // Thesis Algorithm 2 line 9: C = absolutemax(ctmp / 32, 32767).
  EXPECT_EQ(saturate_shift_down(64, 5, 32767), 2);
  EXPECT_EQ(saturate_shift_down(-64, 5, 32767), -2);
  EXPECT_EQ(saturate_shift_down(2000000, 5, 32767), 32767);
  EXPECT_EQ(saturate_shift_down(-2000000, 5, 32767), -32767);
  // C-style truncating division for negatives: -33/32 == -1.
  EXPECT_EQ(saturate_shift_down(-33, 5, 32767), -1);
}

TEST(FixedPoint, QuantizerRoundTripIsCloseToIdentity) {
  QuantizerI16 q{8};
  for (double x : {-12.5, -0.3, 0.0, 0.9921875, 55.125}) {
    const auto qi = q.quantize(x);
    EXPECT_NEAR(q.dequantize(qi), x, 1.0 / 256.0 + 1e-9) << x;
  }
}

TEST(FixedPoint, QuantizerSaturates) {
  QuantizerI8 q{5};
  EXPECT_EQ(q.quantize(1000.0), 127);
  EXPECT_EQ(q.quantize(-1000.0), -128);
}

TEST(FixedPoint, PopcountMatchesBuiltin) {
  EXPECT_EQ(popcount32(0), 0);
  EXPECT_EQ(popcount32(0xffffffffu), 32);
  EXPECT_EQ(popcount32(0x80000001u), 2);
  EXPECT_EQ(popcount64(0xffffffffffffffffULL), 64);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, NormalHasRoughMoments) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(r.normal(5.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, SignIsBalanced) {
  Rng r(13);
  int pos = 0;
  for (int i = 0; i < 10000; ++i) {
    if (r.sign() > 0) ++pos;
  }
  EXPECT_GT(pos, 4500);
  EXPECT_LT(pos, 5500);
}

TEST(Stats, BasicAccumulation) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Stats, MergeEqualsSingleStream) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, EmptyIsNan) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.percentile(0.5)));
}

TEST(Stats, PercentilesWithinSketchError) {
  // 1..1000 uniformly: the sketch (gamma = 1.02) must land within ~2%
  // relative error of the true nearest-rank value.
  RunningStats s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.p50(), 500.0, 500.0 * 0.025);
  EXPECT_NEAR(s.p95(), 950.0, 950.0 * 0.025);
  EXPECT_NEAR(s.p99(), 990.0, 990.0 * 0.025);
  // Extremes clamp to the exact observed min/max.
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 1000.0);
}

TEST(Stats, PercentilesHandleSignsAndZeros) {
  RunningStats s;
  for (double v : {-100.0, -10.0, 0.0, 0.0, 10.0, 100.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), -100.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  // Ranks 3 and 4 of 6 are the zeros.
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  // Rank 2 is -10: negative buckets must come back ascending.
  EXPECT_NEAR(s.percentile(0.3), -10.0, 10.0 * 0.025);
}

TEST(Stats, SingleValueAllPercentiles) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.p50(), 42.0);
  EXPECT_DOUBLE_EQ(s.p95(), 42.0);
  EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(Stats, MergePreservesPercentilesExactly) {
  // The sketch merges by bucket-count addition, so a merged accumulator
  // must report the *identical* percentile estimates as one accumulator
  // fed both streams — not merely close ones.
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 500; ++i) {
    const double v = (i % 7 == 0 ? -1.0 : 1.0) * (i * 1.7 + 1.0);
    (i % 3 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), all.percentile(q)) << "q=" << q;
  }
}

TEST(Stats, MergeIntoEmptyCopiesSketch) {
  RunningStats a;
  RunningStats b;
  for (int i = 1; i <= 100; ++i) b.add(static_cast<double>(i));
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p95(), b.p95());
  // Merging an empty accumulator changes nothing.
  const double before = a.p95();
  a.merge(RunningStats{});
  EXPECT_DOUBLE_EQ(a.p95(), before);
}

TEST(Bytes, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0u);
  EXPECT_EQ(align_up(1, 8), 8u);
  EXPECT_EQ(align_up(8, 8), 8u);
  EXPECT_EQ(align_up(9, 8), 16u);
  EXPECT_EQ(align_up(784, 8), 784u);
}

TEST(Bytes, XferPadding) {
  EXPECT_EQ(xfer_padding(8), 0u);
  EXPECT_EQ(xfer_padding(9), 7u);
  EXPECT_EQ(xfer_padding(0), 0u);
}

TEST(Bytes, PadToXferPreservesPayloadAndZeroPads) {
  const std::uint8_t src[5] = {1, 2, 3, 4, 5};
  const auto out = pad_to_xfer(src, 5);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], src[i]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(out[i], 0);
}

TEST(Table, RejectsMismatchedRow) {
  Table t("x");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), UsageError);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", Table::num(std::uint64_t{42})});
  t.row({"b", Table::num(1.5)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, NumFormatsScientificForExtremes) {
  EXPECT_NE(Table::num(1.23e-7).find("e"), std::string::npos);
  EXPECT_NE(Table::num(4.56e9).find("e"), std::string::npos);
  EXPECT_EQ(Table::num(3.5).find("e"), std::string::npos);
}

TEST(Error, RequireThrowsUsageError) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "nope"), UsageError);
}

TEST(Error, RequireCarriesItsMessageThroughBothOverloads) {
  // A literal takes the const char* overload, a built message the
  // std::string one; either failure reports the message unchanged.
  try {
    require(false, "literal message");
    ADD_FAILURE() << "require(false, literal) returned";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "literal message");
  }
  const std::string built = "layer " + std::to_string(3) + ": bad";
  EXPECT_NO_THROW(require(true, built));
  try {
    require(false, built);
    ADD_FAILURE() << "require(false, string) returned";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), built);
  }
}

} // namespace
} // namespace pimdnn
