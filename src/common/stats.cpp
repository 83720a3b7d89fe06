#include "common/stats.hpp"

#include <cmath>

namespace nvmenc {

double Histogram::mean() const noexcept {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (usize v = 0; v < buckets_.size(); ++v) {
    sum += static_cast<double>(v) * static_cast<double>(buckets_[v]);
  }
  return sum / static_cast<double>(total_);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (usize i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::bucket_mid(usize i) noexcept {
  if (i < kSub) return static_cast<double>(i);
  const usize msb = i / kSub + kSubBits - 1;
  const u64 sub = static_cast<u64>(i % kSub);
  const u64 width = u64{1} << (msb - kSubBits);
  const u64 low = (u64{1} << msb) + sub * width;
  return static_cast<double>(low) + static_cast<double>(width) / 2.0;
}

double LatencyHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  const double clamped = p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p);
  u64 rank =
      static_cast<u64>(std::ceil(clamped / 100.0 *
                                 static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  u64 cumulative = 0;
  for (usize i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      double v = bucket_mid(i);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
  }
  return max_;
}

double geomean(const std::vector<double>& ratios) {
  require(!ratios.empty(), "geomean of empty set");
  double log_sum = 0.0;
  for (double r : ratios) {
    require(r > 0.0, "geomean requires strictly positive ratios");
    log_sum += std::log(r);
  }
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

double mean(const std::vector<double>& values) {
  require(!values.empty(), "mean of empty set");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace nvmenc
