// Differential test: the compact Histogram (only touched octaves held)
// against the full-width 6,016-bucket table it replaced, kept here as the
// reference model.  Random values across every octave plus the edge values
// (0, negatives, NaN, +inf, 2^-32, 2^62, DBL_MAX), merges of disjoint ranges
// in both directions, empty operands, and reset-then-reuse must give
// bit-identical count, min, max, mean and quantiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace tfsim::sim {
namespace {

/// The full-width histogram, verbatim in behaviour.
class FullHistogram {
 public:
  FullHistogram() : buckets_(kNumBuckets, 0) {}

  void add_count(double value, std::uint64_t count) {
    if (count == 0) return;
    if (total_ == 0) {
      raw_min_ = value;
      raw_max_ = value;
    } else {
      raw_min_ = std::min(raw_min_, value);
      raw_max_ = std::max(raw_max_, value);
    }
    buckets_[bucket_index(value)] += count;
    total_ += count;
    sum_ += value * static_cast<double>(count);
  }

  void merge(const FullHistogram& other) {
    if (other.total_ == 0) return;
    if (total_ == 0) {
      raw_min_ = other.raw_min_;
      raw_max_ = other.raw_max_;
    } else {
      raw_min_ = std::min(raw_min_, other.raw_min_);
      raw_max_ = std::max(raw_max_, other.raw_max_);
    }
    for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
    total_ += other.total_;
    sum_ += other.sum_;
  }

  void reset() { *this = FullHistogram{}; }

  std::uint64_t count() const { return total_; }
  double min() const { return total_ ? raw_min_ : 0.0; }
  double max() const { return total_ ? raw_max_ : 0.0; }
  double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }

  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      seen += buckets_[i];
      if (seen >= rank) {
        const auto octave = static_cast<int>(i >> kSubBucketBits) - kNegOctaves;
        const auto sub = i & ((1u << kSubBucketBits) - 1);
        const double base = std::ldexp(1.0, octave);
        const double width = base / (1u << kSubBucketBits);
        const double lower = base + static_cast<double>(sub) * width;
        const std::uint64_t before = seen - buckets_[i];
        const double pos = (static_cast<double>(rank - before) - 0.5) /
                           static_cast<double>(buckets_[i]);
        return std::clamp(lower + pos * width, raw_min_, raw_max_);
      }
    }
    return raw_max_;
  }

 private:
  static constexpr int kSubBucketBits = 6;
  static constexpr int kNegOctaves = 32;
  static constexpr int kPosOctaves = 62;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kNegOctaves + kPosOctaves) << kSubBucketBits;

  static std::size_t bucket_index(double value) {
    const double lowest = 1.0 / static_cast<double>(std::uint64_t{1} << kNegOctaves);
    const double highest = static_cast<double>(std::uint64_t{1} << kPosOctaves);
    if (!(value >= lowest)) return 0;
    if (value >= highest) return kNumBuckets - 1;
    int exp = 0;
    const double m = std::frexp(value, &exp);
    const auto sub = static_cast<std::size_t>((2.0 * m - 1.0) * 64.0);
    return (static_cast<std::size_t>(exp - 1 + kNegOctaves) << kSubBucketBits) + sub;
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double raw_min_ = 0.0;
  double raw_max_ = 0.0;
};

/// A compact histogram and its reference, fed identically.
struct Pair {
  Histogram got;
  FullHistogram want;
  void add(double v, std::uint64_t n = 1) {
    got.add_count(v, n);
    want.add_count(v, n);
  }
  void merge(const Pair& o) {
    got.merge(o.got);
    want.merge(o.want);
  }
  void reset() {
    got.reset();
    want.reset();
  }
};

/// Bit-level equality, so NaN results compare too.
void expect_same(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << ": got " << got << ", want " << want;
}

void expect_identical(const Pair& p) {
  EXPECT_EQ(p.got.count(), p.want.count());
  expect_same(p.got.min(), p.want.min(), "min");
  expect_same(p.got.max(), p.want.max(), "max");
  expect_same(p.got.mean(), p.want.mean(), "mean");
  expect_same(p.got.p50(), p.want.quantile(0.50), "p50");
  expect_same(p.got.p99(), p.want.quantile(0.99), "p99");
  expect_same(p.got.p999(), p.want.quantile(0.999), "p999");
  for (const double q : {0.0, 0.001, 0.25, 0.75, 0.9, 1.0}) {
    expect_same(p.got.quantile(q), p.want.quantile(q), "quantile");
  }
}

/// A value in octave [lo, hi] (powers of two), uniform within the octave.
double random_in_octaves(Rng& rng, int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  const int octave = lo + static_cast<int>(rng.uniform_u64(span));
  return std::ldexp(rng.uniform(1.0, 2.0), octave);
}

std::vector<double> edge_values() {
  return {0.0,
          -0.0,
          -1.0,
          -1e300,
          std::ldexp(1.0, -32),
          std::nextafter(std::ldexp(1.0, -32), 1.0),
          std::ldexp(1.0, 62),
          std::nextafter(std::ldexp(1.0, 62), 0.0),
          DBL_MAX,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min()};
}

TEST(HistogramReferenceTest, RandomValuesAcrossEveryOctave) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    Pair p;
    const int lo = -40 + static_cast<int>(rng.uniform_u64(100));
    const int hi = lo + static_cast<int>(rng.uniform_u64(12));
    const auto n = 1 + rng.uniform_u64(2000);
    for (std::uint64_t i = 0; i < n; ++i) {
      p.add(random_in_octaves(rng, lo, hi), 1 + rng.uniform_u64(3));
    }
    expect_identical(p);
  }
}

TEST(HistogramReferenceTest, EdgeValuesAloneAndMixed) {
  for (const double edge : edge_values()) {
    SCOPED_TRACE(edge);
    Pair alone;
    alone.add(edge);
    expect_identical(alone);
    Pair mixed;
    mixed.add(3.5, 4);
    mixed.add(edge, 2);
    mixed.add(1e-6);
    expect_identical(mixed);
  }
  Pair all;
  for (const double edge : edge_values()) all.add(edge);
  expect_identical(all);
}

TEST(HistogramReferenceTest, NaNPoisonsLikeTheReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Pair first;
  first.add(nan);
  first.add(2.0);
  expect_identical(first);
  Pair later;
  later.add(2.0);
  later.add(nan, 3);
  later.add(1e9);
  expect_identical(later);
}

TEST(HistogramReferenceTest, MergesOfDisjointRangesBothDirections) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    Pair low;
    Pair high;
    for (int i = 0; i < 300; ++i) {
      low.add(random_in_octaves(rng, -30, -20));
      high.add(random_in_octaves(rng, 20, 40));
    }
    Pair low_then_high = low;
    low_then_high.merge(high);
    expect_identical(low_then_high);
    Pair high_then_low = high;
    high_then_low.merge(low);
    expect_identical(high_then_low);
    // A range strictly inside the held one, and one overlapping an edge.
    Pair inner;
    inner.add(random_in_octaves(rng, 25, 26));
    inner.add(random_in_octaves(rng, 38, 45));
    high_then_low.merge(inner);
    expect_identical(high_then_low);
    // Self-merge doubles every bucket.
    high_then_low.merge(high_then_low);
    expect_identical(high_then_low);
  }
}

TEST(HistogramReferenceTest, EmptyOperands) {
  Pair empty;
  Pair full;
  full.add(12.0, 5);
  full.add(0.25);
  expect_identical(empty);

  Pair e2;
  e2.merge(empty);
  expect_identical(e2);

  Pair f2 = full;
  f2.merge(empty);
  expect_identical(f2);

  Pair e3;
  e3.merge(full);
  expect_identical(e3);

  Pair zero_count;
  zero_count.add(5.0, 0);
  expect_identical(zero_count);
  zero_count.merge(full);
  expect_identical(zero_count);
}

TEST(HistogramReferenceTest, ResetThenReuse) {
  Rng rng(3);
  Pair p;
  for (int i = 0; i < 500; ++i) p.add(random_in_octaves(rng, 30, 50));
  expect_identical(p);
  p.reset();
  expect_identical(p);
  // Reuse in a range entirely below the one held before the reset.
  for (int i = 0; i < 500; ++i) p.add(random_in_octaves(rng, -10, 2));
  expect_identical(p);
  Pair other;
  other.add(DBL_MAX);
  p.merge(other);
  expect_identical(p);
}

}  // namespace
}  // namespace tfsim::sim
