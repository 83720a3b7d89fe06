// Statistics accumulators used by the simulator and the benchmark harness.
//
// Histogram buckets integer observations; LatencyHistogram log-buckets
// latency samples and keeps their exact count, sum, min and max, so one
// accumulator answers both the mean and the tail percentiles; geomean
// reduces a set of per-benchmark normalized results the way the paper
// reports averages.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace nvmenc {

/// Fixed-range integer histogram with an overflow bucket.
class Histogram {
 public:
  /// Buckets 0..max_value plus one overflow bucket for larger observations.
  explicit Histogram(usize max_value)
      : buckets_(max_value + 2, 0), max_value_{max_value} {}

  void add(usize value, u64 weight = 1) noexcept {
    const usize idx = value <= max_value_ ? value : max_value_ + 1;
    buckets_[idx] += weight;
    total_ += weight;
  }

  [[nodiscard]] u64 count(usize value) const {
    require(value <= max_value_, "Histogram bucket out of range");
    return buckets_[value];
  }
  [[nodiscard]] u64 overflow() const noexcept {
    return buckets_[max_value_ + 1];
  }
  [[nodiscard]] u64 total() const noexcept { return total_; }
  [[nodiscard]] usize max_value() const noexcept { return max_value_; }

  /// Fraction of observations equal to `value`; 0 when empty.
  [[nodiscard]] double fraction(usize value) const {
    return total_ == 0
               ? 0.0
               : static_cast<double>(count(value)) /
                     static_cast<double>(total_);
  }

  /// Weighted mean of the bucket indices (overflow counted at max+1).
  [[nodiscard]] double mean() const noexcept;

 private:
  std::vector<u64> buckets_;
  usize max_value_;
  u64 total_ = 0;
};

/// Log-bucketed latency histogram built for tail percentiles
/// (p50/p95/p99/p999); the mean, min and max are kept exactly beside the
/// buckets.
///
/// HdrHistogram-style bucketing: 16 sub-buckets per power of two, so any
/// recorded value is off by at most 1/16 (6.25%) of itself; values below
/// 16 ns are exact. Samples are nanoseconds, rounded to integers;
/// negatives clamp to zero. Histograms merge by bucket-wise addition, so
/// per-thread (or per-sweep-cell) histograms combine into one
/// distribution without storing samples.
class LatencyHistogram {
 public:
  void add(double ns) noexcept {
    const double x = ns > 0.0 ? ns : 0.0;
    // Saturate far beyond any simulated timescale (~292 years in ns).
    const u64 v = x >= 9.0e18 ? u64{9'000'000'000'000'000'000}
                              : static_cast<u64>(x + 0.5);
    ++buckets_[index_of(v)];
    if (count_ == 0 || x < min_) min_ = x;
    if (count_ == 0 || x > max_) max_ = x;
    ++count_;
    sum_ += x;
  }

  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] u64 count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Nearest-rank percentile, `p` in [0, 100] (clamped). Returns the
  /// selected bucket's midpoint clamped into [min(), max()] — so a
  /// constant stream reports that constant exactly at every percentile.
  /// 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept;

  [[nodiscard]] double p50() const noexcept { return percentile(50.0); }
  [[nodiscard]] double p95() const noexcept { return percentile(95.0); }
  [[nodiscard]] double p99() const noexcept { return percentile(99.0); }
  [[nodiscard]] double p999() const noexcept { return percentile(99.9); }

  /// Exact state equality, bucket for bucket — the determinism tests'
  /// "bit-identical" check for whole latency distributions.
  [[nodiscard]] bool operator==(const LatencyHistogram&) const = default;

 private:
  static constexpr usize kSubBits = 4;
  static constexpr usize kSub = usize{1} << kSubBits;  // 16 per octave
  // Indices 0..15 hold exact values; each msb position 4..63 contributes
  // one octave of kSub sub-buckets.
  static constexpr usize kBucketCount = (64 - kSubBits) * kSub + kSub;

  [[nodiscard]] static usize index_of(u64 v) noexcept {
    if (v < kSub) return static_cast<usize>(v);
    const usize msb = 63 - static_cast<usize>(std::countl_zero(v));
    return (msb - kSubBits + 1) * kSub +
           static_cast<usize>((v >> (msb - kSubBits)) & (kSub - 1));
  }

  /// Midpoint of bucket `i`'s value range (exact for i < kSub).
  [[nodiscard]] static double bucket_mid(usize i) noexcept;

  std::array<u64, kBucketCount> buckets_{};
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric mean of a set of strictly positive ratios. The paper's
/// "reduce energy by 20.3%" style numbers are geomeans of per-benchmark
/// scheme/baseline ratios.
[[nodiscard]] double geomean(const std::vector<double>& ratios);

/// Arithmetic mean; throws on empty input.
[[nodiscard]] double mean(const std::vector<double>& values);

}  // namespace nvmenc
