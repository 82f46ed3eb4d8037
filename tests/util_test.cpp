// Unit and property tests for the utility substrate: RNG determinism and
// statistical sanity, histograms, stats, bit vectors, and status plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "stash/util/bitvec.hpp"
#include "stash/util/histogram.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/stats.hpp"
#include "stash/util/status.hpp"

namespace stash::util {
namespace {

TEST(SplitMix64, DeterministicAndDispersed) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Nearby inputs must diverge in roughly half the bits.
  const std::uint64_t a = splitmix64(1000);
  const std::uint64_t b = splitmix64(1001);
  const int diff = __builtin_popcountll(a ^ b);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

TEST(HashWords, OrderSensitive) {
  EXPECT_NE(hash_words(1, 2, 3), hash_words(3, 2, 1));
  EXPECT_NE(hash_words(1, 2), hash_words(1, 3));
  EXPECT_EQ(hash_words(7, 8, 9), hash_words(7, 8, 9));
}

TEST(Xoshiro256, ReproducibleAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro256, BelowIsUnbiased) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kN = 10;
  std::array<int, kN> counts{};
  for (int i = 0; i < 100000; ++i) ++counts[rng.below(kN)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Xoshiro256, NormalMomentsMatch) {
  Xoshiro256 rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Xoshiro256, ExponentialMeanMatches) {
  Xoshiro256 rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (double x : xs) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), mean(xs));
  EXPECT_NEAR(stats.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Xoshiro256 rng(19);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0, 1);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyMinMaxAreNaN) {
  RunningStats stats;
  EXPECT_TRUE(std::isnan(stats.min()));
  EXPECT_TRUE(std::isnan(stats.max()));
  stats.add(-3.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), -3.0);
}

TEST(RunningStats, MergeEmptyLeft) {
  RunningStats empty, filled;
  filled.add(1.0);
  filled.add(5.0);
  empty.merge(filled);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 5.0);
}

TEST(RunningStats, MergeEmptyRight) {
  RunningStats filled, empty;
  filled.add(1.0);
  filled.add(5.0);
  filled.merge(empty);
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_DOUBLE_EQ(filled.mean(), 3.0);
  EXPECT_DOUBLE_EQ(filled.min(), 1.0);
  EXPECT_DOUBLE_EQ(filled.max(), 5.0);
}

TEST(RunningStats, MergeBothEmptyStaysEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(std::isnan(a.min()));
  EXPECT_TRUE(std::isnan(a.max()));
}

TEST(Stats, QuantileIsNearestRank) {
  const std::vector<std::uint64_t> xs = {10, 20, 30, 40};
  EXPECT_EQ(quantile(xs, 0.0), 10u);
  EXPECT_EQ(quantile(xs, 0.25), 10u);
  EXPECT_EQ(quantile(xs, 0.26), 20u);
  EXPECT_EQ(quantile(xs, 0.5), 20u);
  EXPECT_EQ(quantile(xs, 0.99), 40u);
  EXPECT_EQ(quantile(xs, 1.0), 40u);
  EXPECT_EQ(quantile(xs, 2.0), 40u);
  EXPECT_EQ(quantile(std::vector<std::uint64_t>{}, 0.5), 0u);
}

TEST(Stats, PearsonDetectsCorrelation) {
  std::vector<double> xs(100), ys(100), zs(100);
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) {
    xs[i] = i;
    ys[i] = 2.0 * i + 1.0;
    zs[i] = rng.normal(0, 1);
  }
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-9);
  EXPECT_LT(std::abs(pearson(xs, zs)), 0.3);
}

TEST(Histogram, BasicBinning) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.99);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
}

TEST(Histogram, NormalizedSumsToOne) {
  Histogram h(0.0, 1.0, 16);
  Xoshiro256 rng(29);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform());
  const auto norm = h.normalized();
  const double sum = std::accumulate(norm.begin(), norm.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, FractionAtOrAbove) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.fraction_at_or_above(50.0), 0.5, 1e-12);
  EXPECT_NEAR(h.fraction_at_or_above(0.0), 1.0, 1e-12);
}

TEST(Histogram, MergeRejectsIncompatible) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 20);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(1.5);
  b.add(1.5);
  b.add(8.5);
  a.merge(b);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.count(8), 1u);
  EXPECT_EQ(a.total(), 3u);
}

TEST(Bitvec, RoundTripBytesBits) {
  const std::vector<std::uint8_t> bytes = {0xde, 0xad, 0xbe, 0xef, 0x01};
  const auto bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 40u);
  EXPECT_EQ(bits_to_bytes(bits), bytes);
}

TEST(Bitvec, MsbFirstOrdering) {
  const std::vector<std::uint8_t> bytes = {0x80};
  const auto bits = bytes_to_bits(bytes);
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[static_cast<std::size_t>(i)], 0);
}

TEST(Bitvec, PartialByteZeroPadded) {
  const std::vector<std::uint8_t> bits = {1, 1, 1};
  const auto bytes = bits_to_bytes(bits);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0xe0);
}

TEST(Bitvec, HammingDistance) {
  const std::vector<std::uint8_t> a = {0xff, 0x00};
  const std::vector<std::uint8_t> b = {0x0f, 0x00};
  EXPECT_EQ(hamming_distance(a, b), 4u);
  EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(Bitvec, BitErrorRate) {
  const std::vector<std::uint8_t> sent = {1, 0, 1, 0};
  const std::vector<std::uint8_t> recv = {1, 1, 1, 0};
  EXPECT_DOUBLE_EQ(bit_error_rate(sent, recv), 0.25);
  EXPECT_DOUBLE_EQ(bit_error_rate(sent, sent), 0.0);
}

TEST(Histogram, AddClampsIntoEdgeBinsAndNormalizes) {
  Histogram h(0.0, 10.0, 5);
  for (int i = 0; i < 3; ++i) h.add(3.0);  // bin 1
  h.add(99.0);  // above the range: clamps to the last bin
  h.add(-3.0);  // below the range: clamps to the first bin
  h.add(9.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 3u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 6u);
  const std::vector<double> norm = h.normalized();
  ASSERT_EQ(norm.size(), 5u);
  EXPECT_DOUBLE_EQ(norm[1], 0.5);  // 3 of 6
  EXPECT_DOUBLE_EQ(norm[2], 0.0);
}

TEST(Histogram, BinCentersAreMidpoints) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
}

TEST(Histogram, RejectsDegenerateConstruction) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 5.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(9.0, 5.0, 4), std::invalid_argument);
}

TEST(Histogram, ZeroBinsThrowsBeforeAnyDivision) {
  // Regression: width_ used to be computed in the member-init list before
  // the guards ran, so bins == 0 divided by zero (inf width) and hi <= lo
  // produced a negative/NaN width pre-throw.  The throw must now happen
  // before any arithmetic, leaving nothing constructed.
  try {
    Histogram h(0.0, 10.0, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bins"), std::string::npos);
  }
  try {
    Histogram h(10.0, 0.0, 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hi"), std::string::npos);
  }
}

TEST(Histogram, TracksUnderflowAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(-0.001);
  h.add(5.0);    // in range
  h.add(10.0);   // hi is exclusive -> overflow
  h.add(50.0);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 2u);
  // Clamped samples still land in the edge bins and count into total().
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 5u);
  // In-range samples touch neither tally.
  Histogram clean(0.0, 10.0, 10);
  clean.add(0.0);
  clean.add(9.999);
  EXPECT_EQ(clean.underflow(), 0u);
  EXPECT_EQ(clean.overflow(), 0u);
}

TEST(Histogram, MergePropagatesOutOfRangeTallies) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(-1.0);
  b.add(11.0);
  b.add(-2.0);
  a.merge(b);
  EXPECT_EQ(a.underflow(), 2u);
  EXPECT_EQ(a.overflow(), 1u);
}

TEST(Histogram, RangeIsHalfOpenForTheTallies) {
  // [lo, hi): lo itself and the last value below hi are in range; hi is
  // the first value tallied as overflow.
  Histogram h(0.0, 10.0, 2);
  h.add(0.0);
  h.add(std::nextafter(10.0, 0.0));
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);

  h.add(10.0);
  h.add(-std::numeric_limits<double>::min());
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s(ErrorCode::kNoSpace, "disk full");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(s.to_string(), "NO_SPACE: disk full");
}

TEST(ResultT, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Status{ErrorCode::kNotFound, "missing"});
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
  EXPECT_THROW((void)err.value(), std::runtime_error);
}

TEST(ResultT, RejectsOkStatus) {
  EXPECT_THROW(Result<int>(Status::ok()), std::logic_error);
}

}  // namespace
}  // namespace stash::util
