#include "memsys/memory_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"

namespace nvmenc {
namespace {

MemSysConfig two_channels() {
  MemSysConfig c;
  c.org.channels = 2;
  return c;
}

/// Line address of row 1 of channel 0's bank 0; lines below kRowBytes are
/// row 0 of the same bank.
u64 bank0_row1(const MemSysConfig& c) {
  return kBanks * c.org.channels * kRowBytes;
}

/// Cold-row read latency: row cycle, array read, bus transfer.
constexpr double kColdReadNs = kRowCycleNs + kReadNs + kBusNs;

/// Issues a read at `t` to channel 0's bank 0, which then stays busy until
/// t + kColdReadNs. A channel issues a buffered write as soon as no read
/// is pending, so this is how a test keeps bank-0 writes queued.
void hold_bank0(MemorySystem& sys, double t) {
  sys.submit(bank0_row1(sys.config()), ReqKind::kRead, t);
  ASSERT_FALSE(sys.step_until(t).has_value());  // issued, not yet done
  ASSERT_EQ(sys.timing_stats().reads, 1u);
}

/// Steps until the next completion with an effectively unbounded horizon.
std::optional<MemSysCompletion> step(MemorySystem& sys) {
  return sys.step_until(1e18);
}

/// Delivers every pending completion; returns the latest completion time.
double settle(MemorySystem& sys, double t) {
  while (const auto comp = step(sys)) t = std::max(t, comp->time_ns);
  return t;
}

TEST(MemorySystem, SingleReadCompletes) {
  MemorySystem sys{two_channels()};
  const u64 ticket = sys.submit(0, ReqKind::kRead, 0.0);
  const auto comp = step(sys);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(comp->ticket, ticket);
  EXPECT_EQ(comp->kind, ReqKind::kRead);
  EXPECT_FALSE(comp->forwarded);
  // Cold access: row miss + array read + bus.
  EXPECT_DOUBLE_EQ(comp->time_ns, kColdReadNs);
  EXPECT_EQ(sys.stats().reads, 1u);
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, StepUntilHonorsHorizon) {
  MemorySystem sys{two_channels()};
  sys.submit(0, ReqKind::kRead, 0.0);
  // The read cannot finish by t=10, so nothing is delivered yet.
  EXPECT_FALSE(sys.step_until(10.0).has_value());
  EXPECT_TRUE(step(sys).has_value());
}

TEST(MemorySystem, WriteIsPostedImmediately) {
  MemorySystem sys{two_channels()};
  const u64 ticket = sys.submit(0, ReqKind::kWrite, 5.0);
  const auto comp = sys.step_until(5.0);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(comp->ticket, ticket);
  EXPECT_EQ(comp->kind, ReqKind::kWrite);
  EXPECT_DOUBLE_EQ(comp->time_ns, 5.0);  // accepted at arrival
}

TEST(MemorySystem, ReadAroundWriteForwards) {
  MemorySystem sys{two_channels()};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  // Nothing has arbitrated since the write arrived, so it is still queued.
  sys.submit(0x40, ReqKind::kRead, 1.0);
  (void)sys.step_until(0.0);  // write acceptance
  const auto comp = sys.step_until(1.0);
  ASSERT_TRUE(comp.has_value());
  EXPECT_TRUE(comp->forwarded);
  EXPECT_DOUBLE_EQ(comp->time_ns, 1.0);  // forwarded at its arrival
  EXPECT_EQ(sys.stats().forwarded_reads, 1u);
}

TEST(MemorySystem, RewritesCoalesce) {
  MemorySystem sys{two_channels()};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  sys.submit(0x40, ReqKind::kWrite, 1.0);
  sys.submit(0x40, ReqKind::kWrite, 2.0);
  EXPECT_EQ(sys.write_queue_depth(0), 1u);
  EXPECT_EQ(sys.stats().coalesced_writes, 2u);
  sys.drain_all();
  EXPECT_EQ(sys.stats().array_writes, 1u);  // one line hit the array
  EXPECT_EQ(sys.stats().writes, 3u);        // but all three were accepted
}

TEST(MemorySystem, WatermarkEntersAndLeavesDrainMode) {
  const MemSysConfig c = two_channels();
  MemorySystem sys{c};
  // All writes land on channel 0's bank 0 (row 0, distinct lines).
  for (u64 i = 0; i + 1 < kHighWatermark; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  EXPECT_EQ(sys.stats().drains, 0u);  // below the high watermark
  EXPECT_EQ(sys.write_queue_depth(0), kHighWatermark - 1);
  sys.submit((kHighWatermark - 1) * kLineBytes, ReqKind::kWrite, 0.0);
  EXPECT_EQ(sys.stats().drains, 1u);  // depth == high
  // Two reads of bank 0's row 1 arrive now. The drain holds them back
  // until the queue is down to the low watermark; then the reads take
  // bank 0 one after the other, so no write issues before the first read
  // completes.
  sys.submit(bank0_row1(c), ReqKind::kRead, 0.0);
  sys.submit(bank0_row1(c) + kLineBytes, ReqKind::kRead, 0.0);
  std::optional<MemSysCompletion> comp;
  do {
    comp = step(sys);
  } while (comp.has_value() && comp->kind != ReqKind::kRead);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(sys.write_queue_depth(0), kLowWatermark);
  EXPECT_EQ(sys.stats().array_writes, kHighWatermark - kLowWatermark);
}

TEST(MemorySystem, FullQueueParksWritesUntilDrain) {
  MemSysConfig c = two_channels();
  c.org.channels = 1;
  MemorySystem sys{c};
  // A read occupies bank 0 first so the drain cannot issue (and thus
  // cannot free a slot) until it finishes.
  hold_bank0(sys, 0.0);  // bank busy until 168
  // Row 0's lines fill the queue; one more distinct line exceeds its
  // capacity, and its acceptance must wait for the drain.
  static_assert(kWriteQueueCapacity * kLineBytes == kRowBytes);
  for (u64 i = 0; i < kWriteQueueCapacity; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, static_cast<double>(i + 1));
  }
  EXPECT_EQ(sys.stats().write_stalls, 0u);
  const u64 parked =
      sys.submit(2 * bank0_row1(c), ReqKind::kWrite,
                 static_cast<double>(kWriteQueueCapacity + 1));
  EXPECT_EQ(sys.stats().write_stalls, 1u);
  std::vector<MemSysCompletion> comps;
  while (const auto comp = step(sys)) comps.push_back(*comp);
  ASSERT_EQ(comps.size(), kWriteQueueCapacity + 2);  // 1 read + the writes
  // The parked write's acceptance waited for the bank-busy drain: its
  // completion time, which is its accept time, is well past its arrival.
  EXPECT_EQ(comps.back().kind, ReqKind::kWrite);
  EXPECT_EQ(comps.back().ticket, parked);
  EXPECT_GT(comps.back().time_ns, 100.0);
  sys.drain_all();
  EXPECT_EQ(sys.stats().array_writes, kWriteQueueCapacity + 1);
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, ReadsHavePriorityOverQueuedWrites) {
  MemSysConfig c = two_channels();
  c.org.channels = 1;
  MemorySystem sys{c};
  // Queue writes below the watermark, then a read: the read must be
  // served before any background write occupies their shared bank.
  sys.submit(0 * kLineBytes, ReqKind::kWrite, 0.0);
  sys.submit(1 * kLineBytes, ReqKind::kWrite, 0.0);
  sys.submit(2 * kLineBytes, ReqKind::kRead, 0.0);
  std::optional<MemSysCompletion> read_comp;
  while (const auto comp = step(sys)) {
    if (comp->kind == ReqKind::kRead) read_comp = comp;
  }
  ASSERT_TRUE(read_comp.has_value());
  // Served first: cold-row read latency, no 150 ns write ahead of it.
  EXPECT_DOUBLE_EQ(read_comp->time_ns, kColdReadNs);
}

// Write-queue scheduling inside the channel shards: posted writes,
// read-around-write forwarding, rewrite coalescing and watermark drains.
TEST(Scheduler, WritesArePostedUntilWatermark) {
  MemorySystem sys{two_channels()};
  hold_bank0(sys, 1.0);  // the writes below wait for bank 0
  for (u64 i = 0; i + 1 < kHighWatermark; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 1.0);
    const auto comp = sys.step_until(1.0);
    ASSERT_TRUE(comp.has_value());
    EXPECT_DOUBLE_EQ(comp->time_ns, 1.0);  // accepted on arrival
  }
  EXPECT_EQ(sys.stats().drains, 0u);
  EXPECT_EQ(sys.timing_stats().writes, 0u);  // nothing hit the array yet
  sys.submit((kHighWatermark - 1) * kLineBytes, ReqKind::kWrite,
             1.0);  // reaches the high mark
  EXPECT_EQ(sys.stats().drains, 1u);
}

TEST(Scheduler, CoalescesRewrites) {
  MemorySystem sys{two_channels()};
  hold_bank0(sys, 0.0);  // keeps the write queued
  for (double t : {0.0, 1.0, 2.0}) {
    sys.submit(0x40, ReqKind::kWrite, t);
    const auto comp = sys.step_until(t);
    ASSERT_TRUE(comp.has_value());
    EXPECT_DOUBLE_EQ(comp->time_ns, t);  // each rewrite is accepted at once
  }
  EXPECT_EQ(sys.write_queue_depth(0), 1u);
}

TEST(Scheduler, CountsCoalescedWrites) {
  MemorySystem sys{two_channels()};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  sys.submit(0x40, ReqKind::kWrite, 1.0);
  sys.submit(0x80, ReqKind::kWrite, 2.0);
  sys.submit(0x40, ReqKind::kWrite, 3.0);
  EXPECT_EQ(sys.stats().writes, 4u);
  EXPECT_EQ(sys.stats().coalesced_writes, 2u);
  EXPECT_EQ(sys.write_queue_depth(0), 2u);
}

TEST(Scheduler, DrainAllEmptiesQueue) {
  MemorySystem sys{two_channels()};
  for (u64 i = 0; i < 4; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 100.0);
  }
  const double end = sys.drain_all();
  EXPECT_EQ(sys.write_queue_depth(0), 0u);
  EXPECT_GT(end, 100.0 + kWriteNs);
  EXPECT_EQ(sys.timing_stats().writes, 4u);
  EXPECT_TRUE(sys.idle());
}

TEST(Scheduler, ReadAfterDrainSeesBusyBank) {
  MemSysConfig c = two_channels();
  c.org.channels = 1;
  MemorySystem sys{c};
  // Depth == high watermark: drain mode, every write on bank 0.
  for (u64 i = 0; i < kHighWatermark; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  sys.submit(bank0_row1(c), ReqKind::kRead, 1.0);
  // The read, the last completion, waited for the drain down to the low
  // watermark.
  EXPECT_GT(settle(sys, 0.0) - 1.0,
            static_cast<double>(kHighWatermark - kLowWatermark) * kWriteNs);
}

TEST(Scheduler, CoalescingAndForwardingPayOffOnHotWrites) {
  // Hot lines are rewritten repeatedly and read back: the write queue
  // coalesces the rewrites (fewer array writes) and forwards the reads
  // (no array access), the two concrete wins of write buffering.
  std::vector<MemRequest> requests;
  Xoshiro256 rng{42};
  for (int burst = 0; burst < 200; ++burst) {
    for (int w = 0; w < 8; ++w) {
      requests.push_back({rng.next_below(4) * kLineBytes, true});
    }
    requests.push_back({rng.next_below(4) * kLineBytes, false});
  }
  const LoadResult r = run_request_stream(requests, two_channels());
  EXPECT_EQ(r.stats.writes, 1600u);
  EXPECT_LT(r.stats.array_writes, r.stats.writes / 4);  // coalescing
  EXPECT_GT(r.stats.forwarded_reads, 100u);             // forwarding
  EXPECT_EQ(r.timing.reads + r.stats.forwarded_reads, r.stats.reads);
}

TEST(Scheduler, MembershipClearedAfterDrain) {
  MemorySystem sys{two_channels()};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  sys.drain_all();
  EXPECT_EQ(sys.write_queue_depth(0), 0u);
  // The drained line is no longer forwardable: the read goes to the array.
  sys.submit(0x40, ReqKind::kRead, 1000.0);
  const auto comp = step(sys);
  ASSERT_TRUE(comp.has_value());
  EXPECT_FALSE(comp->forwarded);
  EXPECT_GT(comp->time_ns, 1000.0);
  EXPECT_EQ(sys.stats().forwarded_reads, 0u);
  // And a re-write of it is a fresh queue entry, not a coalesce.
  sys.submit(0x40, ReqKind::kWrite, 2000.0);
  EXPECT_EQ(sys.stats().coalesced_writes, 0u);
  EXPECT_EQ(sys.write_queue_depth(0), 1u);
}

TEST(Scheduler, StatsMergeCombinesTwoRuns) {
  // Drive two independent systems, merge their stats, and check the
  // merge against a by-hand fold of the counters and samples.
  MemorySystem a{two_channels()};
  MemorySystem b{two_channels()};
  double t = 0.0;
  for (u64 i = 0; i < 20; ++i) {
    a.submit(i * kLineBytes, ReqKind::kWrite, t);
    a.submit(i * kLineBytes, ReqKind::kRead, t);  // forwarded: still queued
    t = settle(a, t) + 5.0;
  }
  double u = 0.0;
  for (u64 i = 0; i < 30; ++i) {
    b.submit((i % 4) * kLineBytes, ReqKind::kRead, u);
    u = settle(b, u) + 5.0;
  }
  const MemSysStats sa = a.stats();
  const MemSysStats sb = b.stats();
  MemSysStats merged = sa;
  merged.merge(sb);
  EXPECT_EQ(merged.reads, sa.reads + sb.reads);
  EXPECT_EQ(merged.writes, sa.writes + sb.writes);
  EXPECT_EQ(merged.forwarded_reads, sa.forwarded_reads + sb.forwarded_reads);
  EXPECT_GT(merged.forwarded_reads, 0u);
  EXPECT_EQ(merged.read_latency_ns.count(),
            sa.read_latency_ns.count() + sb.read_latency_ns.count());
  EXPECT_EQ(merged.read_latency_ns.count(), merged.reads);
  // Identity: merging an empty stats block changes nothing.
  const MemSysStats before = merged;
  merged.merge(MemSysStats{});
  EXPECT_EQ(merged, before);
}

TEST(Scheduler, ReadHistogramMeanIsExact) {
  // The histogram keeps the exact sum beside its buckets: its mean is the
  // mean of every read's arrival -> data latency, not a bucket estimate.
  MemorySystem sys{two_channels()};
  double t = 0.0;
  double sum = 0.0;
  for (u64 i = 0; i < 40; ++i) {
    if (i % 4 == 0) sys.submit(i * kLineBytes, ReqKind::kWrite, t);
    sys.submit((i % 8) * kLineBytes, ReqKind::kRead, t);
    const double arrival = t;
    while (const auto comp = step(sys)) {
      if (comp->kind == ReqKind::kRead) sum += comp->time_ns - arrival;
      t = std::max(t, comp->time_ns);
    }
    t += 10.0;
  }
  const MemSysStats st = sys.stats();
  EXPECT_EQ(st.reads, 40u);
  EXPECT_EQ(st.read_latency_ns.count(), st.reads);
  EXPECT_NEAR(st.read_latency_ns.mean(), sum / 40.0, 1e-9);
}

TEST(MemorySystem, CompletionsAreMonotonicAndComplete) {
  MemorySystem sys{two_channels()};
  Xoshiro256 rng{7};
  double t = 0.0;
  usize submitted = 0;
  double last = -1.0;
  usize delivered = 0;
  for (usize i = 0; i < 400; ++i) {
    t += static_cast<double>(rng.next_below(40));
    sys.submit(rng.next_below(64) * kLineBytes,
               rng.next_bool(0.6) ? ReqKind::kRead : ReqKind::kWrite, t);
    ++submitted;
    while (const auto comp = sys.step_until(t)) {
      EXPECT_GE(comp->time_ns, last);
      last = comp->time_ns;
      ++delivered;
    }
  }
  while (const auto comp = step(sys)) {
    EXPECT_GE(comp->time_ns, last);
    last = comp->time_ns;
    ++delivered;
  }
  EXPECT_EQ(delivered, submitted);
  sys.drain_all();
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, RejectsAnArrivalEarlierThanTheLast) {
  // The arbiter's scans rely on each shard's read queue being in arrival
  // order, so an arrival that goes back in time is refused, not queued.
  MemorySystem sys{two_channels()};
  (void)sys.submit(0, ReqKind::kRead, 100.0);
  (void)sys.submit(kLineBytes, ReqKind::kWrite, 100.0);  // a tie is fine
  try {
    (void)sys.submit(2 * kLineBytes, ReqKind::kRead, 99.5);
    FAIL() << "an arrival earlier than the last one was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("channel 0"), std::string::npos) << what;
    EXPECT_NE(what.find("99.5"), std::string::npos) << what;
    EXPECT_NE(what.find("100.0"), std::string::npos) << what;
  }
  EXPECT_THROW((void)sys.submit(0, ReqKind::kRead,
                                std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // The refused arrivals left the shard as it was.
  (void)sys.submit(2 * kLineBytes, ReqKind::kRead, 100.0);
  (void)settle(sys, 0.0);
  sys.drain_all();
  EXPECT_EQ(sys.stats().reads, 2u);
  EXPECT_EQ(sys.stats().writes, 1u);
  EXPECT_TRUE(sys.idle());
}

TEST(Zipfian, RanksInRangeAndSkewed) {
  ZipfianSampler zipf{1000, 0.99};
  Xoshiro256 rng{3};
  usize top = 0;
  for (usize i = 0; i < 20'000; ++i) {
    const u64 r = zipf.sample(rng);
    ASSERT_LT(r, 1000u);
    if (r == 0) ++top;
  }
  // Rank 0 holds far more than the uniform 1/1000 share.
  EXPECT_GT(top, 2000u);
  EXPECT_THROW((ZipfianSampler{1000, 1.5}), std::invalid_argument);
  EXPECT_THROW((ZipfianSampler{1, 0.99}), std::invalid_argument);
}

TEST(AddressSampler, DiurnalShiftsTheMap) {
  LoadGenConfig cfg;
  cfg.pattern = LoadPattern::kDiurnal;
  cfg.requests = 1000;
  cfg.footprint_lines = 1024;
  const AddressSampler sampler{cfg};
  // Same rng stream, different phase clock: the last request is in the
  // last phase, so the map has rotated by exactly (phases - 1) * shift *
  // footprint.
  const u64 rotation = static_cast<u64>(
      static_cast<double>(kDiurnalPhases - 1) * kDiurnalShift * 1024);
  ASSERT_EQ(rotation, 768u);
  Xoshiro256 a{9};
  Xoshiro256 b{9};
  for (usize i = 0; i < 200; ++i) {
    const u64 first = sampler.draw(a, 0);
    const u64 last = sampler.draw(b, cfg.requests - 1);
    EXPECT_EQ((first + rotation) % 1024, last);
  }
}

TEST(LoadGen, ValidationAndAccounting) {
  LoadGenConfig load;
  load.users = 0;
  EXPECT_THROW(load.validate(), std::invalid_argument);
  load = LoadGenConfig{};
  load.read_fraction = 1.5;
  EXPECT_THROW(load.validate(), std::invalid_argument);

  load = LoadGenConfig{};
  load.requests = 3000;
  load.footprint_lines = 4096;
  load.users = 8;
  load.think_ns = 50.0;
  const LoadResult r = run_load(load, two_channels());
  EXPECT_EQ(r.stats.reads + r.stats.writes, load.requests);
  EXPECT_EQ(r.stats.read_latency_ns.count(), r.stats.reads);
  EXPECT_GT(r.stats.sustained_gbps(), 0.0);
  EXPECT_GT(r.makespan_ns, 0.0);
  EXPECT_GE(r.makespan_ns, r.stats.last_completion_ns);
}

TEST(LoadGen, BitIdenticalAcrossRuns) {
  LoadGenConfig load;
  load.requests = 5000;
  load.footprint_lines = 4096;
  load.users = 16;
  load.think_ns = 80.0;
  const LoadResult a = run_load(load, two_channels());
  const LoadResult b = run_load(load, two_channels());
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.drains, b.stats.drains);
  EXPECT_EQ(a.stats.forwarded_reads, b.stats.forwarded_reads);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);  // exact, not approximate
  EXPECT_EQ(a.stats.read_latency_ns.p99(), b.stats.read_latency_ns.p99());
  EXPECT_EQ(a.stats.read_latency_ns.mean(), b.stats.read_latency_ns.mean());
}

TEST(EncodeCost, ModelsAndNames) {
  EXPECT_DOUBLE_EQ(paper_encode_ns(Scheme::kReadSae), 3.47);
  EXPECT_DOUBLE_EQ(paper_encode_ns(Scheme::kDcw), 0.0);
  EXPECT_DOUBLE_EQ(
      encode_latency_ns(Scheme::kReadSae, EncodeLatencyModel::kNone), 0.0);
  // The software kernel is orders slower than the synthesized circuit.
  EXPECT_GT(measured_encode_ns(Scheme::kReadSae),
            paper_encode_ns(Scheme::kReadSae));
}

TEST(EncodeCost, CalibrationIsDeterministicAndSane) {
  const SchemeWriteCost a =
      calibrate_write_cost(Scheme::kReadSae, "gcc", 42, 32, 3);
  const SchemeWriteCost b =
      calibrate_write_cost(Scheme::kReadSae, "gcc", 42, 32, 3);
  EXPECT_EQ(a.avg_sets, b.avg_sets);
  EXPECT_EQ(a.avg_resets, b.avg_resets);
  EXPECT_GT(a.avg_sets + a.avg_resets, 0.0);
  EXPECT_GT(a.meta_bits, 0.0);
  EXPECT_GT(a.write_pj(EnergyParams{}, true),
            a.write_pj(EnergyParams{}, false));
  EXPECT_THROW((void)calibrate_write_cost(Scheme::kReadSaePaper, "gcc", 42),
               std::invalid_argument);
}

}  // namespace
}  // namespace nvmenc
