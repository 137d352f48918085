#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/rng.hpp"

namespace tfsim::sim {
namespace {

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeMatchesCombinedStream) {
  Rng rng(5);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 100);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

// Empty-operand regressions (ISSUE 7 audit): merging two empty stats must
// not divide 0/0 into a NaN mean_/m2_, and an empty side's +/-infinity
// min/max sentinels must never reach the merged extrema.  Barrier-combined
// per-domain stats hit these paths constantly (idle domains are routine).
TEST(StatsTest, MergeBothEmpty) {
  OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_FALSE(std::isnan(a.mean()));
  EXPECT_FALSE(std::isnan(a.variance()));
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  // A poisoned accumulator would corrupt everything added afterwards.
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(StatsTest, MergeEmptyIntoFull) {
  OnlineStats full, empty;
  full.add(-2.0);
  full.add(6.0);
  full.merge(empty);
  EXPECT_EQ(full.count(), 2u);
  EXPECT_DOUBLE_EQ(full.mean(), 2.0);
  EXPECT_DOUBLE_EQ(full.min(), -2.0) << "empty +inf sentinel must not leak";
  EXPECT_DOUBLE_EQ(full.max(), 6.0) << "empty -inf sentinel must not leak";
  EXPECT_FALSE(std::isnan(full.variance()));
}

TEST(StatsTest, MergeFullIntoEmpty) {
  OnlineStats full, empty;
  full.add(-2.0);
  full.add(6.0);
  empty.merge(full);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.min(), -2.0);
  EXPECT_DOUBLE_EQ(empty.max(), 6.0);
}

TEST(StatsTest, HistogramMergeEmptyOperands) {
  Histogram a, b;
  a.merge(b);  // empty + empty: still pristine
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);

  Histogram full;
  full.add(4.0);
  full.add(16.0);
  const double min_before = full.min();
  const double max_before = full.max();
  full.merge(b);  // empty right operand: extrema and moments unchanged
  EXPECT_EQ(full.count(), 2u);
  EXPECT_DOUBLE_EQ(full.min(), min_before);
  EXPECT_DOUBLE_EQ(full.max(), max_before);

  Histogram target;
  target.merge(full);  // full into empty: raw extrema copied, not folded
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.min(), min_before);
  EXPECT_DOUBLE_EQ(target.max(), max_before);
}

// Histogram quantiles must agree with exact quantiles within the bucket
// relative error (1/64 per octave ~ 1.6%).
class HistogramQuantileTest : public ::testing::TestWithParam<double> {};

TEST_P(HistogramQuantileTest, MatchesSortedReference) {
  const double q = GetParam();
  Rng rng(71);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.lognormal(3.0, 1.0);  // wide dynamic range
    h.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(values.size()) - 1,
                       std::ceil(q * static_cast<double>(values.size())) - 1));
  const double exact = values[idx];
  EXPECT_NEAR(h.quantile(q), exact, exact * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, HistogramQuantileTest,
                         ::testing::Values(0.01, 0.10, 0.25, 0.50, 0.75, 0.90,
                                           0.99, 0.999));

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.add(10.0);
  h.add(20.0);
  h.add(30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

// Regression: bucket_index used to collapse every sample < 1.0 into bucket
// 0, making quantiles of sub-unit metrics (ratios, GB/s, sub-µs latencies)
// meaningless.  Negative octaves must resolve them with the same bounded
// relative error as values >= 1.
TEST(HistogramTest, SubUnitQuantilesMatchSortedReference) {
  Rng rng(29);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform(0.001, 0.9);  // entirely inside (0, 1)
    h.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.01, 0.25, 0.50, 0.75, 0.99}) {
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(values.size()) - 1,
                         std::ceil(q * static_cast<double>(values.size())) - 1));
    const double exact = values[idx];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.05) << "q=" << q;
  }
}

TEST(HistogramTest, SubUnitAndSuperUnitMix) {
  Histogram h;
  h.add(0.25);
  h.add(0.5);
  h.add(2.0);
  h.add(4.0);
  EXPECT_NEAR(h.quantile(0.25), 0.25, 0.25 * 0.02);
  EXPECT_NEAR(h.quantile(0.50), 0.5, 0.5 * 0.02);
  EXPECT_NEAR(h.quantile(1.0), 4.0, 4.0 * 0.02);
}

TEST(HistogramTest, TinyValuesClampToFirstBucket) {
  // Below 2^-32 the histogram saturates rather than misbehaving.
  Histogram h;
  h.add(1e-12);
  h.add(0.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.quantile(1.0), 1e-9);
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  // At and beyond 2^62 (infinity included) the histogram saturates too.
  Histogram h;
  h.add(std::ldexp(1.0, 62));
  h.add(1e30);
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GE(h.quantile(0.0), std::ldexp(1.0, 61));
}

TEST(HistogramTest, JustBelowPowerOfTwoStaysInLowerOctave) {
  // floor(log2(v)) rounds the largest double below 2^k up to k, which used
  // to file it in the first sub-bucket of octave k -- above every value it
  // is smaller than.  Half the samples sit just below 2^k and half just
  // above, so p25 must come out below 2^k.
  constexpr std::uint64_t kN = 100;
  for (int k = -31; k <= 61; ++k) {
    const double pow2 = std::ldexp(1.0, k);
    Histogram h;
    h.add_count(std::nextafter(pow2, 0.0), kN);
    h.add_count(pow2 * (1.0 + 1.0 / 128.0), kN);
    EXPECT_LT(h.quantile(0.25), pow2) << "k=" << k;
  }
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.add(10.0);
  for (int i = 0; i < 100; ++i) b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LT(a.quantile(0.25), 20.0);
  EXPECT_GT(a.quantile(0.75), 900.0);
}

TEST(HistogramTest, AddCountWeightsValues) {
  Histogram h;
  h.add_count(5.0, 1000);
  h.add_count(50.0, 1);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_LT(h.p50(), 6.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.add(42.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
}

// --- intra-bucket interpolation regressions ------------------------------
// quantile() interpolates linearly inside the containing bucket and clamps
// to the observed [min, max], so degenerate histograms are exact and dense
// ones land within ~2% instead of the raw ~5% bucket-boundary error.

TEST(HistogramInterpolationTest, SingleValueQuantilesAreExact) {
  Histogram h;
  h.add(7.5);
  EXPECT_DOUBLE_EQ(h.p50(), 7.5);
  EXPECT_DOUBLE_EQ(h.p99(), 7.5);
  EXPECT_DOUBLE_EQ(h.p999(), 7.5);
}

TEST(HistogramInterpolationTest, RepeatedValueQuantilesAreExact) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(42.0);
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42.0);
  EXPECT_DOUBLE_EQ(h.p999(), 42.0);
}

TEST(HistogramInterpolationTest, UniformGridTailsPinnedTo2Percent) {
  // 1..1000, one sample each: exact p50 = 500, p99 = 990, p999 = 999.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.02);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.02);
  EXPECT_NEAR(h.p999(), 999.0, 999.0 * 0.02);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0) << "max clamp";
  EXPECT_GE(h.quantile(0.0), 1.0) << "never below the observed min";
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1.0 * 0.02);
}

TEST(HistogramInterpolationTest, ExponentialTailsMatchSortedReference) {
  Rng rng(123);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = 1.0 + rng.exponential(25.0);
    h.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.99, 0.999}) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())) - 1);
    const double exact = values[idx];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.02) << "q=" << q;
  }
}

TEST(RateMeterTest, BandwidthMath) {
  RateMeter m;
  m.add(1'000'000'000);  // 1 GB
  // over 1 second (1e12 ps) -> 1 GB/s
  EXPECT_DOUBLE_EQ(m.gbyte_per_sec(1'000'000'000'000ULL), 1.0);
  EXPECT_EQ(m.bytes_per_sec(0), 0.0);
}

TEST(LinearFitTest, ExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, NoisyLineHasHighR2) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(5.0 * i + 10 + rng.uniform(-1, 1));
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 5.0, 0.05);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(LinearFitTest, DegenerateInputs) {
  EXPECT_EQ(linear_fit({}, {}).r2, 0.0);
  EXPECT_EQ(linear_fit({1.0}, {2.0}).r2, 0.0);
  // Vertical data (all same x) cannot be fit.
  EXPECT_EQ(linear_fit({3, 3, 3}, {1, 2, 3}).slope, 0.0);
}

TEST(LinearFitTest, ConstantSeriesHasUndefinedR2) {
  // A flat series is fit exactly by slope 0, but there is no variance to
  // explain: r2 is undefined, not a perfect fit.
  const auto fit = linear_fit({1, 2, 3, 4}, {7, 7, 7, 7});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.intercept, 7.0);
  EXPECT_TRUE(std::isnan(fit.r2));
}

TEST(LinearFitTest, MismatchedLengthsThrow) {
  // Regression: mismatched series used to be silently truncated, fitting a
  // line through accidentally re-paired points.
  EXPECT_THROW(linear_fit({1.0, 2.0, 3.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim::sim
