// Statistics collection: streaming moments, HDR-style histograms with
// quantiles, and rate meters.  Used by every experiment to report the
// latency/bandwidth series the paper's figures plot.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tfsim::sim {

/// Streaming count/mean/variance/min/max (Welford).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log-linear histogram (HDR-histogram style): values bucketed with bounded
/// relative error, supporting quantile queries.  Range (2^-32, 2^62) —
/// negative octaves keep quantiles of sub-unit metrics (ratios, GB/s,
/// sub-µs latencies) meaningful; values at or below 2^-32 clamp to the
/// first bucket.  Sub-bucket resolution 1/64 (<1.6% relative error),
/// plenty for latency percentiles.
///
/// Storage is compact: only the whole octaves between the lowest and the
/// highest value seen so far are held, so an empty histogram owns no
/// buckets and a latency series spanning a few octaves costs a few hundred
/// bytes instead of the full 6,016-bucket range.  Results are identical to
/// a full-width table.
class Histogram {
 public:
  Histogram() = default;

  void add(double value) { add_count(value, 1); }
  void add_count(double value, std::uint64_t count);
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const { return total_; }
  double min() const;
  double max() const;
  double mean() const;

  /// q in [0, 1]; locates the bucket containing the q-quantile and linearly
  /// interpolates within it (values assumed uniform across the bucket), so
  /// tail quantiles are not snapped to bucket midpoints.  Clamped to the
  /// observed [min, max].  0 if empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  /// Human-readable summary "n=... mean=... p50=... p99=... max=...".
  std::string summary() const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr int kNegOctaves = 32;    // covers (2^-32, 1)
  static constexpr int kPosOctaves = 62;    // covers [1, 2^62)
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kNegOctaves + kPosOctaves) << kSubBucketBits;
  static std::size_t bucket_index(double value);
  /// Grow the held range to cover global bucket indices [first, last],
  /// rounded out to whole octaves.
  void cover(std::size_t first, std::size_t last);

  std::size_t lo_ = 0;                  ///< global index of buckets_[0]
  std::vector<std::uint64_t> buckets_;  ///< whole octaves from lo_
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double raw_min_ = 0.0;
  double raw_max_ = 0.0;
};

/// Accumulates (bytes, duration) to report achieved bandwidth.
class RateMeter {
 public:
  void add(std::uint64_t bytes) { bytes_ += bytes; }
  std::uint64_t bytes() const { return bytes_; }

  /// Bandwidth in bytes/sec over the given picosecond interval.
  double bytes_per_sec(std::uint64_t interval_ps) const;
  double gbyte_per_sec(std::uint64_t interval_ps) const {
    return bytes_per_sec(interval_ps) / 1e9;
  }
  void reset() { bytes_ = 0; }

 private:
  std::uint64_t bytes_ = 0;
};

/// Least-squares linear fit, used to validate the PERIOD-latency linear
/// correlation the paper reports in §III-B.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< coefficient of determination
};
/// Precondition: x.size() == y.size(); throws std::invalid_argument
/// otherwise (mismatched series are a caller bug, never truncated).
/// Fewer than two points or a constant x leave the zero-initialised fit.
/// A constant y fits exactly with slope 0, but explains no variance, so
/// its r2 is NaN (undefined), never a perfect 1.
LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace tfsim::sim
