#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ldpc/fixed/qformat.hpp"

namespace {

using ldpc::fixed::QFormat;

TEST(QFormat, DefaultIsPaper8Bit) {
  const QFormat q;
  EXPECT_EQ(q.total_bits(), 8);
  EXPECT_EQ(q.frac_bits(), 2);
  EXPECT_EQ(q.raw_max(), 127);
  EXPECT_EQ(q.raw_min(), -127);  // symmetric saturation
  EXPECT_DOUBLE_EQ(q.lsb(), 0.25);
  EXPECT_DOUBLE_EQ(q.value_max(), 31.75);
}

TEST(QFormat, InvalidParamsFallBackToDefault) {
  const QFormat q(40, 39);
  EXPECT_EQ(q.total_bits(), 8);
  EXPECT_EQ(q.frac_bits(), 2);
}

TEST(QFormat, QuantizeRoundsToNearest) {
  const QFormat q;  // lsb 0.25
  EXPECT_EQ(q.quantize(0.0), 0);
  EXPECT_EQ(q.quantize(0.24), 1);
  EXPECT_EQ(q.quantize(0.126), 1);   // rounds to 0.25
  EXPECT_EQ(q.quantize(0.124), 0);
  EXPECT_EQ(q.quantize(-0.126), -1);
  EXPECT_EQ(q.quantize(1.0), 4);
}

TEST(QFormat, QuantizeSaturates) {
  const QFormat q;
  EXPECT_EQ(q.quantize(1000.0), 127);
  EXPECT_EQ(q.quantize(-1000.0), -127);
  EXPECT_EQ(q.quantize(31.75), 127);
  EXPECT_EQ(q.quantize(31.99), 127);
}

TEST(QFormat, QuantizeNanIsZero) {
  const QFormat q;
  EXPECT_EQ(q.quantize(std::nan("")), 0);
}

TEST(QFormat, RoundTripWithinHalfLsb) {
  const QFormat q;
  for (double v = -31.0; v <= 31.0; v += 0.093) {
    const double back = q.to_double(q.quantize(v));
    EXPECT_NEAR(back, v, q.lsb() / 2 + 1e-12) << "v=" << v;
  }
}

TEST(QFormat, SaturatingAddSub) {
  const QFormat q;
  EXPECT_EQ(q.add(100, 100), 127);
  EXPECT_EQ(q.add(-100, -100), -127);
  EXPECT_EQ(q.add(50, -30), 20);
  EXPECT_EQ(q.sub(-100, 100), -127);
  EXPECT_EQ(q.sub(100, -100), 127);
  EXPECT_EQ(q.sub(7, 3), 4);
}

TEST(QFormat, AddIsMonotone) {
  const QFormat q;
  // a + b <= a + b' when b <= b' (saturation preserves monotonicity).
  for (int a = -127; a <= 127; a += 13)
    for (int b = -127; b < 127; b += 11)
      EXPECT_LE(q.add(a, b), q.add(a, b + 1));
}

TEST(QFormat, AbsNeverOverflows) {
  const QFormat q;
  EXPECT_EQ(q.abs(q.raw_min()), q.raw_max());
  EXPECT_EQ(q.abs(-5), 5);
  EXPECT_EQ(q.abs(5), 5);
}

TEST(QFormat, NarrowFormats) {
  const QFormat q4(4, 1);  // range [-3.5, 3.5]
  EXPECT_EQ(q4.raw_max(), 7);
  EXPECT_DOUBLE_EQ(q4.value_max(), 3.5);
  EXPECT_EQ(q4.quantize(10.0), 7);
  EXPECT_EQ(q4.add(7, 7), 7);
}

TEST(QFormat, IntegerOnlyFormat) {
  const QFormat q(6, 0);
  EXPECT_DOUBLE_EQ(q.lsb(), 1.0);
  EXPECT_EQ(q.quantize(2.4), 2);
  EXPECT_EQ(q.quantize(2.5), 3);
}

TEST(QFormat, ToStringDescribesFormat) {
  EXPECT_EQ(QFormat(8, 2).to_string(), "Q5.2 (8b)");
  EXPECT_EQ(QFormat(6, 0).to_string(), "Q5.0 (6b)");
}

TEST(QFormat, Equality) {
  EXPECT_EQ(QFormat(8, 2), QFormat(8, 2));
  EXPECT_FALSE(QFormat(8, 2) == QFormat(8, 3));
}

// ---- format edge cases ------------------------------------------------------

TEST(QFormat, SaturationAtBothRails) {
  const QFormat q;
  // One-below, at, and past each rail, for quantize and for arithmetic.
  EXPECT_EQ(q.quantize(q.value_max() - q.lsb()), q.raw_max() - 1);
  EXPECT_EQ(q.quantize(q.value_max()), q.raw_max());
  EXPECT_EQ(q.quantize(std::nextafter(q.value_max(), 1e9)), q.raw_max());
  EXPECT_EQ(q.quantize(-q.value_max()), q.raw_min());
  EXPECT_EQ(q.quantize(std::nextafter(-q.value_max(), -1e9)), q.raw_min());
  EXPECT_EQ(q.quantize(std::numeric_limits<double>::infinity()),
            q.raw_max());
  EXPECT_EQ(q.quantize(-std::numeric_limits<double>::infinity()),
            q.raw_min());
  EXPECT_EQ(q.add(q.raw_max(), 1), q.raw_max());
  EXPECT_EQ(q.sub(q.raw_min(), 1), q.raw_min());
  EXPECT_EQ(q.add(q.raw_min(), -1), q.raw_min());
  // Saturation is symmetric: the two's-complement -2^(b-1) code is unused.
  EXPECT_EQ(q.raw_min(), -q.raw_max());
  EXPECT_EQ(q.saturate(std::int64_t{q.raw_min()} - 1), q.raw_min());
}

TEST(QFormat, QuantizeDequantizeRoundTripIsExactOnGrid) {
  // Every representable level must survive quantize(to_double(raw)) == raw
  // exactly (to_double is a power-of-two scale, so it is lossless).
  for (const QFormat q : {QFormat(8, 2), QFormat(6, 0), QFormat(4, 1),
                          QFormat(12, 3), QFormat(16, 4)}) {
    for (std::int32_t raw = q.raw_min(); raw <= q.raw_max(); ++raw)
      ASSERT_EQ(q.quantize(q.to_double(raw)), raw) << q.to_string();
  }
}

TEST(QFormat, MinMaxAcrossWidths) {
  EXPECT_EQ(QFormat(2, 0).raw_max(), 1);
  EXPECT_EQ(QFormat(2, 0).raw_min(), -1);
  EXPECT_EQ(QFormat(16, 4).raw_max(), 32767);
  EXPECT_EQ(QFormat(16, 4).raw_min(), -32767);
  EXPECT_DOUBLE_EQ(QFormat(16, 4).value_max(), 32767.0 / 16.0);
  EXPECT_DOUBLE_EQ(QFormat(16, 15).lsb(), 1.0 / 32768.0);
}

TEST(QFormat, NegativeZeroQuantizesToPlusZero) {
  const QFormat q;
  const std::int32_t r = q.quantize(-0.0);
  EXPECT_EQ(r, 0);
  EXPECT_FALSE(std::signbit(q.to_double(r)));  // +0.0 back out
  // Values rounding to zero from either side also land on the single zero
  // level (no negative-zero code exists in two's complement).
  EXPECT_EQ(q.quantize(-0.124), 0);
  EXPECT_EQ(q.quantize(0.124), 0);
}

}  // namespace
