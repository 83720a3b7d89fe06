#include "memsys/memory_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"

namespace nvmenc {
namespace {

MemSysConfig small_config() {
  MemSysConfig c;
  c.org.channels = 2;
  c.org.banks = 2;
  c.write_queue_capacity = 8;
  c.high_watermark = 6;
  c.low_watermark = 2;
  return c;
}

/// Without opportunistic writes a line stays queued until a watermark
/// drain or drain_all.
MemSysConfig quiet_config() {
  MemSysConfig c = small_config();
  c.opportunistic_writes = false;
  return c;
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

TEST(MemSysConfig, Validation) {
  MemSysConfig c = small_config();
  EXPECT_NO_THROW(c.validate());
  c.high_watermark = 9;  // > capacity
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.low_watermark = 6;  // == high
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.high_watermark = c.write_queue_capacity;  // edge: high == capacity
  EXPECT_NO_THROW(c.validate());
  c.low_watermark = 0;  // edge: drain runs the queue dry
  EXPECT_NO_THROW(c.validate());
  c = small_config();
  c.t_cmd_ns = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MemorySystem, SingleReadCompletes) {
  MemorySystem sys{small_config()};
  const u64 ticket = sys.submit(0, ReqKind::kRead, 0.0);
  const auto comp = step(sys);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(comp->ticket, ticket);
  EXPECT_EQ(comp->kind, ReqKind::kRead);
  EXPECT_FALSE(comp->forwarded);
  // Cold access: row miss + array read + bus.
  const MemOrg& org = sys.config().org;
  EXPECT_DOUBLE_EQ(comp->time_ns,
                   org.t_row_cycle_ns + org.t_read_ns + org.t_bus_ns);
  EXPECT_EQ(sys.stats().reads, 1u);
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, StepUntilHonorsHorizon) {
  MemorySystem sys{small_config()};
  sys.submit(0, ReqKind::kRead, 0.0);
  // The read cannot finish by t=10, so nothing is delivered yet.
  EXPECT_FALSE(sys.step_until(10.0).has_value());
  EXPECT_TRUE(step(sys).has_value());
}

TEST(MemorySystem, WriteIsPostedImmediately) {
  MemorySystem sys{small_config()};
  const u64 ticket = sys.submit(0, ReqKind::kWrite, 5.0);
  const auto comp = sys.step_until(5.0);
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(comp->ticket, ticket);
  EXPECT_EQ(comp->kind, ReqKind::kWrite);
  EXPECT_DOUBLE_EQ(comp->time_ns, 5.0);  // accepted at arrival
}

TEST(MemorySystem, ReadAroundWriteForwards) {
  MemorySystem sys{quiet_config()};  // keeps the write queued
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  (void)sys.step_until(0.0);  // write acceptance
  sys.submit(0x40, ReqKind::kRead, 1.0);
  const auto comp = sys.step_until(1.0);
  ASSERT_TRUE(comp.has_value());
  EXPECT_TRUE(comp->forwarded);
  EXPECT_DOUBLE_EQ(comp->time_ns, 1.0);  // forward_ns defaults to 0
  EXPECT_EQ(sys.stats().forwarded_reads, 1u);
}

TEST(MemorySystem, RewritesCoalesce) {
  MemorySystem sys{quiet_config()};
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
  const MemSysConfig c = quiet_config();  // drain only via the watermark
  MemorySystem sys{c};
  // All writes land on channel 0 (same row id space, distinct lines).
  for (u64 i = 0; i < 5; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  while (sys.step_until(0.0).has_value()) {
  }
  EXPECT_EQ(sys.stats().drains, 0u);  // below the high watermark
  EXPECT_EQ(sys.write_queue_depth(0), 5u);
  sys.submit(5 * kLineBytes, ReqKind::kWrite, 0.0);  // depth 6 == high
  EXPECT_EQ(sys.stats().drains, 1u);
  // Arbitration drains down to the low watermark, then stops.
  (void)settle(sys, 0.0);
  EXPECT_EQ(sys.write_queue_depth(0), c.low_watermark);
  EXPECT_EQ(sys.stats().array_writes, 4u);
}

TEST(MemorySystem, HighEqualsCapacityLowZeroDrainsDry) {
  MemSysConfig c = quiet_config();
  c.write_queue_capacity = 4;
  c.high_watermark = 4;  // edge: only a full queue triggers the drain
  c.low_watermark = 0;   // edge: the drain runs the queue dry
  MemorySystem sys{c};
  for (u64 i = 0; i < 4; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  EXPECT_EQ(sys.stats().drains, 1u);
  (void)settle(sys, 0.0);
  EXPECT_EQ(sys.write_queue_depth(0), 0u);
  EXPECT_EQ(sys.stats().array_writes, 4u);
}

TEST(MemorySystem, FullQueueParksWritesUntilDrain) {
  MemSysConfig c = quiet_config();
  c.write_queue_capacity = 2;
  c.high_watermark = 2;
  c.low_watermark = 0;
  c.org.channels = 1;
  MemorySystem sys{c};
  // A read occupies the single bank first so the drain cannot issue (and
  // thus cannot free a slot) until it finishes.
  sys.submit(3 * kLineBytes, ReqKind::kRead, 0.0);
  (void)sys.step_until(0.0);  // the read issues now, bank busy until ~168
  // Third distinct line exceeds capacity; its acceptance must wait for
  // the drain the second write triggered.
  sys.submit(0 * kLineBytes, ReqKind::kWrite, 1.0);
  sys.submit(1 * kLineBytes, ReqKind::kWrite, 2.0);
  sys.submit(2 * kLineBytes, ReqKind::kWrite, 3.0);
  EXPECT_EQ(sys.stats().write_stalls, 1u);
  std::vector<MemSysCompletion> comps;
  while (const auto comp = step(sys)) comps.push_back(*comp);
  ASSERT_EQ(comps.size(), 4u);  // 1 read + 3 writes
  // The parked write's acceptance waited for the bank-busy drain: its
  // completion time is well past its arrival.
  EXPECT_EQ(comps.back().kind, ReqKind::kWrite);
  EXPECT_GT(comps.back().time_ns, 100.0);
  EXPECT_GT(sys.stats().write_accept_ns.max(), 0.0);
  sys.drain_all();
  EXPECT_EQ(sys.stats().array_writes, 3u);
  EXPECT_TRUE(sys.idle());
}

TEST(MemorySystem, ReadsHavePriorityOverQueuedWrites) {
  MemSysConfig c = small_config();
  c.org.channels = 1;
  c.org.banks = 1;
  c.org.ranks = 1;
  MemorySystem sys{c};
  // Queue writes below the watermark, then a read: the read must be
  // served before any background write occupies the (single) bank.
  sys.submit(0 * kLineBytes, ReqKind::kWrite, 0.0);
  sys.submit(1 * kLineBytes, ReqKind::kWrite, 0.0);
  sys.submit(2 * kLineBytes, ReqKind::kRead, 0.0);
  std::optional<MemSysCompletion> read_comp;
  while (const auto comp = step(sys)) {
    if (comp->kind == ReqKind::kRead) read_comp = comp;
  }
  ASSERT_TRUE(read_comp.has_value());
  const MemOrg& org = sys.config().org;
  // Served first: cold-row read latency, no 150 ns write ahead of it.
  EXPECT_DOUBLE_EQ(read_comp->time_ns,
                   org.t_row_cycle_ns + org.t_read_ns + org.t_bus_ns);
}

// Write-queue scheduling inside the channel shards: posted writes,
// read-around-write forwarding, rewrite coalescing and watermark drains.
TEST(Scheduler, ConfigValidation) {
  MemSysConfig c = small_config();
  c.write_queue_capacity = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.low_watermark = 7;  // > high
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.forward_ns = -1.0;
  EXPECT_THROW((MemorySystem{c}), std::invalid_argument);
}

TEST(Scheduler, WritesArePostedUntilWatermark) {
  MemorySystem sys{quiet_config()};
  for (u64 i = 0; i < 5; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 1.0);
    const auto comp = sys.step_until(1.0);
    ASSERT_TRUE(comp.has_value());
    EXPECT_DOUBLE_EQ(comp->time_ns, 1.0);  // accepted on arrival
  }
  EXPECT_EQ(sys.stats().drains, 0u);
  EXPECT_EQ(sys.timing_stats().writes, 0u);  // nothing hit the array yet
  sys.submit(5 * kLineBytes, ReqKind::kWrite, 1.0);  // reaches the high mark
  EXPECT_EQ(sys.stats().drains, 1u);
}

TEST(Scheduler, ReadForwardsFromQueue) {
  MemSysConfig c = quiet_config();
  c.forward_ns = 2.0;
  MemorySystem sys{c};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  (void)sys.step_until(0.0);
  sys.submit(0x40, ReqKind::kRead, 5.0);
  const auto comp = step(sys);
  ASSERT_TRUE(comp.has_value());
  EXPECT_DOUBLE_EQ(comp->time_ns, 7.0);  // on-chip forward
  EXPECT_EQ(sys.stats().forwarded_reads, 1u);
  EXPECT_EQ(sys.timing_stats().reads, 0u);
}

TEST(Scheduler, CoalescesRewrites) {
  MemorySystem sys{quiet_config()};
  for (double t : {0.0, 1.0, 2.0}) {
    sys.submit(0x40, ReqKind::kWrite, t);
    const auto comp = sys.step_until(t);
    ASSERT_TRUE(comp.has_value());
    EXPECT_DOUBLE_EQ(comp->time_ns, t);  // each rewrite is accepted at once
  }
  EXPECT_EQ(sys.write_queue_depth(0), 1u);
}

TEST(Scheduler, CountsCoalescedWrites) {
  MemorySystem sys{quiet_config()};
  sys.submit(0x40, ReqKind::kWrite, 0.0);
  sys.submit(0x40, ReqKind::kWrite, 1.0);
  sys.submit(0x80, ReqKind::kWrite, 2.0);
  sys.submit(0x40, ReqKind::kWrite, 3.0);
  EXPECT_EQ(sys.stats().writes, 4u);
  EXPECT_EQ(sys.stats().coalesced_writes, 2u);
  EXPECT_EQ(sys.write_queue_depth(0), 2u);
}

TEST(Scheduler, DrainAllEmptiesQueue) {
  MemorySystem sys{quiet_config()};
  for (u64 i = 0; i < 4; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 100.0);
  }
  const double end = sys.drain_all();
  EXPECT_EQ(sys.write_queue_depth(0), 0u);
  EXPECT_GT(end, 100.0 + sys.config().org.t_write_ns);
  EXPECT_EQ(sys.timing_stats().writes, 4u);
  EXPECT_TRUE(sys.idle());
}

TEST(Scheduler, ReadAfterDrainSeesBusyBank) {
  MemSysConfig c = quiet_config();
  c.org.channels = 1;
  c.org.banks = 1;
  MemorySystem sys{c};
  for (u64 i = 0; i < 6; ++i) {  // depth 6 == high watermark: drain mode
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  sys.submit(0x40000, ReqKind::kRead, 1.0);
  // The read, the last completion, waited for the drain down to the low
  // watermark.
  EXPECT_GT(settle(sys, 0.0) - 1.0,
            static_cast<double>(6 - c.low_watermark) * c.org.t_write_ns);
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
  const LoadResult r = run_request_stream(requests, quiet_config());
  EXPECT_EQ(r.stats.writes, 1600u);
  EXPECT_LT(r.stats.array_writes, r.stats.writes / 4);  // coalescing
  EXPECT_GT(r.stats.forwarded_reads, 100u);             // forwarding
  EXPECT_EQ(r.timing.reads + r.stats.forwarded_reads, r.stats.reads);
}

TEST(Scheduler, WatermarkEdgesValidate) {
  MemSysConfig c = quiet_config();
  c.high_watermark = c.write_queue_capacity;  // edge: high == capacity
  c.low_watermark = 0;                        // edge: drain runs dry
  MemorySystem sys{c};
  for (u64 i = 0; i + 1 < c.write_queue_capacity; ++i) {
    sys.submit(i * kLineBytes, ReqKind::kWrite, 0.0);
  }
  EXPECT_EQ(sys.stats().drains, 0u);  // only a full queue triggers it
  sys.submit(c.write_queue_capacity * kLineBytes, ReqKind::kWrite, 0.0);
  EXPECT_EQ(sys.stats().drains, 1u);
  (void)settle(sys, 0.0);
  EXPECT_EQ(sys.write_queue_depth(0), 0u);  // and it drains everything
  EXPECT_EQ(sys.timing_stats().writes, c.write_queue_capacity);
}

TEST(Scheduler, MembershipClearedAfterDrain) {
  MemorySystem sys{quiet_config()};
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
  MemorySystem a{quiet_config()};
  MemorySystem b{quiet_config()};
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
  EXPECT_EQ(merged.read_latency_stat.count(),
            sa.read_latency_stat.count() + sb.read_latency_stat.count());
  EXPECT_EQ(merged.read_latency_ns.count(), merged.reads);
  // Identity: merging an empty stats block changes nothing.
  const MemSysStats before = merged;
  merged.merge(MemSysStats{});
  EXPECT_EQ(merged, before);
}

TEST(Scheduler, ReadHistogramMatchesRunningStat) {
  MemorySystem sys{small_config()};
  double t = 0.0;
  for (u64 i = 0; i < 40; ++i) {
    if (i % 4 == 0) sys.submit(i * kLineBytes, ReqKind::kWrite, t);
    sys.submit((i % 8) * kLineBytes, ReqKind::kRead, t);
    t = settle(sys, t) + 10.0;
  }
  const MemSysStats st = sys.stats();
  EXPECT_EQ(st.reads, 40u);
  EXPECT_EQ(st.read_latency_ns.count(), st.reads);
  EXPECT_NEAR(st.read_latency_ns.mean(), st.read_latency_stat.mean(), 1e-9);
}

TEST(MemorySystem, CompletionsAreMonotonicAndComplete) {
  MemorySystem sys{small_config()};
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
  MemorySystem sys{small_config()};
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
  cfg.diurnal_phases = 2;
  cfg.diurnal_shift = 0.5;
  cfg.footprint_lines = 1024;
  const AddressSampler sampler{cfg};
  // Same rng stream, different phase clock: the map rotates by exactly
  // shift * footprint.
  Xoshiro256 a{9};
  Xoshiro256 b{9};
  for (usize i = 0; i < 200; ++i) {
    const u64 phase0 = sampler.draw(a, 0);
    const u64 phase1 = sampler.draw(b, cfg.requests - 1);
    EXPECT_EQ((phase0 + 512) % 1024, phase1);
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
  const LoadResult r = run_load(load, small_config());
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
  const LoadResult a = run_load(load, small_config());
  const LoadResult b = run_load(load, small_config());
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.drains, b.stats.drains);
  EXPECT_EQ(a.stats.forwarded_reads, b.stats.forwarded_reads);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);  // exact, not approximate
  EXPECT_EQ(a.stats.read_latency_ns.p99(), b.stats.read_latency_ns.p99());
  EXPECT_EQ(a.stats.read_latency_ns.mean(), b.stats.read_latency_ns.mean());
}

TEST(EncodeCost, ModelsAndNames) {
  EXPECT_EQ(encode_model_by_name("paper"), EncodeLatencyModel::kPaper);
  EXPECT_EQ(encode_model_by_name("measured"), EncodeLatencyModel::kMeasured);
  EXPECT_EQ(encode_model_by_name("none"), EncodeLatencyModel::kNone);
  EXPECT_THROW((void)encode_model_by_name("fast"), std::invalid_argument);
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
