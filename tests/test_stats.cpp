#include "common/stats.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace nvmenc {
namespace {

TEST(Histogram, CountsAndFractions) {
  Histogram h{8};
  h.add(0);
  h.add(0);
  h.add(8);
  h.add(3, 2);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(8), 1u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.fraction(3), 0.4);
}

TEST(Histogram, OverflowBucket) {
  Histogram h{4};
  h.add(100);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram, Mean) {
  Histogram h{8};
  h.add(2, 3);
  h.add(6, 1);
  EXPECT_DOUBLE_EQ(h.mean(), (2.0 * 3 + 6.0) / 4.0);
}

TEST(Histogram, MeanOfEmptyIsZero) {
  Histogram h{8};
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, OutOfRangeCountThrows) {
  Histogram h{4};
  EXPECT_THROW((void)h.count(5), std::invalid_argument);
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, RejectsEmptyAndNonPositive) {
  EXPECT_THROW((void)geomean({}), std::invalid_argument);
  EXPECT_THROW((void)geomean({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)geomean({-1.0}), std::invalid_argument);
}

TEST(Mean, KnownValues) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW((void)mean({}), std::invalid_argument);
}

TEST(LatencyHistogram, Empty) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p999(), 0.0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (double v = 1.0; v <= 10.0; v += 1.0) h.add(v);
  // Values below 16 land in unit-wide buckets: nearest-rank percentiles
  // are exact.
  EXPECT_DOUBLE_EQ(h.p50(), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(10.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(LatencyHistogram, ConstantStreamReportsExactlyAtAllPercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 500; ++i) h.add(777.0);
  // Bucket midpoints are clamped into [min, max], so a constant stream
  // reports its value exactly everywhere.
  EXPECT_DOUBLE_EQ(h.p50(), 777.0);
  EXPECT_DOUBLE_EQ(h.p99(), 777.0);
  EXPECT_DOUBLE_EQ(h.p999(), 777.0);
}

TEST(LatencyHistogram, LogBucketRelativeErrorIsBounded) {
  LatencyHistogram h;
  const double value = 1.0e6;
  for (int i = 0; i < 100; ++i) h.add(value);
  h.add(2.0e6);  // keep max above the bucket so the clamp can't hide error
  // 16 sub-buckets per power of two: <= 1/16 relative error.
  EXPECT_NEAR(h.p50(), value, value / 16.0);
}

TEST(LatencyHistogram, TailPercentilesSeparate) {
  LatencyHistogram h;
  for (int i = 0; i < 990; ++i) h.add(100.0);
  for (int i = 0; i < 10; ++i) h.add(100'000.0);
  EXPECT_NEAR(h.p50(), 100.0, 100.0 / 16.0);
  EXPECT_NEAR(h.p999(), 100'000.0, 100'000.0 / 16.0);
  EXPECT_LT(h.p50() * 100, h.p999());
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (double v = 1.0; v <= 5.0; v += 1.0) a.add(v);
  for (double v = 6.0; v <= 10.0; v += 1.0) b.add(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_DOUBLE_EQ(a.p50(), 5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.5);
  // Merging an empty histogram changes nothing.
  a.merge(LatencyHistogram{});
  EXPECT_EQ(a.count(), 10u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(LatencyHistogram, NegativeInputsClampToZero) {
  LatencyHistogram h;
  h.add(-5.0);
  h.add(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, MeanMinMaxIgnoreBucketRounding) {
  // Buckets hold samples rounded to whole nanoseconds (and log-bucketed
  // above 16 ns); the mean, min and max are the samples' own, so the one
  // histogram answers a mean as exact as a separate running sum would.
  LatencyHistogram h;
  h.add(0.4);
  h.add(1.6);
  h.add(1000.3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.4);
  EXPECT_DOUBLE_EQ(h.max(), 1000.3);
  EXPECT_DOUBLE_EQ(h.mean(), (0.4 + 1.6 + 1000.3) / 3.0);
  EXPECT_DOUBLE_EQ(h.p50(), 2.0);  // 1.6 sits in the 2 ns bucket
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.3);  // clamped to max()
}

// --- merge properties backing the sharded engines (DESIGN.md §10) ---
//
// The samples below are integer-valued on purpose: bucket counts merge
// exactly for any values, but the running sum is a double, and float
// addition is only associative when every partial sum is exactly
// representable. Integer latencies (ns) well under 2^53 are, so these
// properties hold bit for bit — which is also why shard merges happen in
// fixed channel-id order rather than relying on associativity.

/// Latency samples shaped like a service-time distribution: a body around
/// 100 ns and a heavy write-drain tail.
std::vector<double> latency_samples(u64 seed, usize n) {
  Xoshiro256 rng{seed};
  std::vector<double> out;
  out.reserve(n);
  for (usize i = 0; i < n; ++i) {
    const u64 tail = rng.next_below(100);
    const u64 v = tail < 97 ? 80 + rng.next_below(64)
                            : 2000 + rng.next_below(8192);
    out.push_back(static_cast<double>(v));
  }
  return out;
}

TEST(LatencyHistogram, MergeOfShardsEqualsSingleRecorder) {
  // Record one stream whole, and round-robin split across K shard
  // histograms merged back in shard order: identical for every K.
  const std::vector<double> samples = latency_samples(42, 5000);
  LatencyHistogram whole;
  for (double v : samples) whole.add(v);
  for (usize shards : {usize{1}, usize{2}, usize{3}, usize{8}}) {
    std::vector<LatencyHistogram> parts(shards);
    for (usize i = 0; i < samples.size(); ++i) {
      parts[i % shards].add(samples[i]);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& part : parts) merged.merge(part);
    EXPECT_EQ(merged, whole) << "shards=" << shards;
  }
}

TEST(LatencyHistogram, MergeIsCommutative) {
  const std::vector<double> xs = latency_samples(1, 2000);
  const std::vector<double> ys = latency_samples(2, 3000);
  LatencyHistogram a;
  LatencyHistogram b;
  for (double v : xs) a.add(v);
  for (double v : ys) b.add(v);
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
}

TEST(LatencyHistogram, MergeIsAssociative) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram c;
  for (double v : latency_samples(3, 1000)) a.add(v);
  for (double v : latency_samples(4, 1500)) b.add(v);
  for (double v : latency_samples(5, 500)) c.add(v);
  LatencyHistogram left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  LatencyHistogram right = b;  // a + (b + c)
  right.merge(c);
  LatencyHistogram a_first = a;
  a_first.merge(right);
  EXPECT_EQ(left, a_first);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram h;
  for (double v : latency_samples(6, 800)) h.add(v);
  LatencyHistogram into = h;
  into.merge(LatencyHistogram{});
  EXPECT_EQ(into, h);
  LatencyHistogram from;
  from.merge(h);
  EXPECT_EQ(from, h);
}

}  // namespace
}  // namespace nvmenc
