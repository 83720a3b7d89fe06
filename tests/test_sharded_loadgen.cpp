// Channel-sharded closed-loop load generation: jobs-independence, quota
// accounting, and the address-pinning property that makes sharding sound.
#include "memsys/loadgen.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "memsys/report.hpp"

namespace nvmenc {
namespace {

LoadGenConfig small_load() {
  LoadGenConfig load;
  load.users = 9;          // deliberately not a multiple of channels
  load.requests = 5'003;   // prime: exercises the quota remainder
  load.think_ns = 50.0;
  load.footprint_lines = 1u << 14;
  load.seed = 1234;
  return load;
}

MemSysConfig small_mem() {
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.org.encode_latency_ns = 3.47;
  return mem;
}

std::string render(const LoadGenConfig& load, const LoadResult& r) {
  std::ostringstream out;
  load_table("READ+SAE", "paper", 3.47, load, r).print(out);
  return out.str();
}

TEST(ShardedLoadGenTest, JobsNeverChangeTheResult) {
  const LoadGenConfig load = small_load();
  const MemSysConfig mem = small_mem();
  const LoadResult one = run_load_sharded(load, mem, 1);
  for (usize jobs : {usize{2}, usize{4}}) {
    const LoadResult many = run_load_sharded(load, mem, jobs);
    EXPECT_EQ(one, many) << "jobs=" << jobs;
    EXPECT_EQ(render(load, one), render(load, many)) << "jobs=" << jobs;
  }
}

TEST(ShardedLoadGenTest, RepeatedRunsAreBitIdentical) {
  const LoadGenConfig load = small_load();
  const MemSysConfig mem = small_mem();
  EXPECT_EQ(run_load_sharded(load, mem, 4), run_load_sharded(load, mem, 4));
}

TEST(ShardedLoadGenTest, QuotasAccountForEveryRequest) {
  const LoadGenConfig load = small_load();
  const MemSysConfig mem = small_mem();
  const LoadResult r = run_load_sharded(load, mem, 4);
  // Every request issues exactly once: reads + accepted writes == budget.
  EXPECT_EQ(r.stats.reads + r.stats.writes, load.requests);
  EXPECT_GT(r.makespan_ns, 0.0);
  EXPECT_GT(r.stats.sustained_gbps(), 0.0);
}

TEST(ShardedLoadGenTest, SeedChangesTheRun) {
  LoadGenConfig load = small_load();
  const MemSysConfig mem = small_mem();
  const LoadResult a = run_load_sharded(load, mem, 2);
  load.seed = 4321;
  const LoadResult b = run_load_sharded(load, mem, 2);
  EXPECT_NE(a.stats.read_latency_ns.mean(), b.stats.read_latency_ns.mean());
}

TEST(ShardedLoadGenTest, PatternsDiffer) {
  LoadGenConfig load = small_load();
  const MemSysConfig mem = small_mem();
  load.pattern = LoadPattern::kUniform;
  const LoadResult uniform = run_load_sharded(load, mem, 2);
  load.pattern = LoadPattern::kZipfian;
  const LoadResult zipf = run_load_sharded(load, mem, 2);
  // Zipfian reuse must show up as forwarding/coalescing uniform lacks.
  EXPECT_GT(zipf.stats.forwarded_reads + zipf.stats.coalesced_writes,
            uniform.stats.forwarded_reads + uniform.stats.coalesced_writes);
}

TEST(ShardedLoadGenTest, PinningLandsOnTheHomeChannel) {
  MemOrg org;
  org.channels = 4;
  Xoshiro256 rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const u64 addr = rng.next() >> 12;
    for (usize c = 0; c < org.channels; ++c) {
      const u64 pinned = pin_line_to_channel(org, addr, c);
      ASSERT_EQ(channel_of_line(org, pinned), c);
      // Within-row offset (spatial locality) is preserved.
      ASSERT_EQ(pinned % kRowBytes, addr % kRowBytes);
    }
    // Pinning to the address's own channel is the identity.
    const usize home = channel_of_line(org, addr);
    ASSERT_EQ(pin_line_to_channel(org, addr, home), addr);
  }
}

TEST(ShardedLoadGenTest, FaultInjectionStaysJobsInvariant) {
  const LoadGenConfig load = small_load();
  MemSysConfig mem = small_mem();
  mem.ras.inject.write_fail_rate = 2e-3;
  mem.ras.inject.read_disturb_rate = 1e-3;
  mem.ras.inject.stuck_rate = 1e-4;
  mem.ras.inject.seed = 9;
  mem.ras.scrub_interval_ns = 2'000.0;
  const LoadResult one = run_load_sharded(load, mem, 1);
  EXPECT_TRUE(one.ras.any());
  for (usize jobs : {usize{2}, usize{4}}) {
    const LoadResult many = run_load_sharded(load, mem, jobs);
    EXPECT_EQ(one, many) << "jobs=" << jobs;
    EXPECT_EQ(render(load, one), render(load, many)) << "jobs=" << jobs;
    std::ostringstream a, b;
    ras_table(one.ras).print(a);
    ras_table(many.ras).print(b);
    EXPECT_EQ(a.str(), b.str()) << "jobs=" << jobs;
  }
}

TEST(ShardedLoadGenTest, SingleChannelSingleUserStillCompletes) {
  LoadGenConfig load = small_load();
  load.users = 1;
  load.requests = 500;
  MemSysConfig mem = small_mem();
  mem.org.channels = 1;
  const LoadResult r = run_load_sharded(load, mem, 4);
  EXPECT_EQ(r.stats.reads + r.stats.writes, load.requests);
}

}  // namespace
}  // namespace nvmenc
