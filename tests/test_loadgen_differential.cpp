// The closed-loop engine (memsys/closed_loop.hpp) against the three loops
// it replaced (tests/reference_loadgen.hpp).
//
// Every case runs run_load on the router, run_load_sharded at jobs 1 and
// 4, and the reference loops on the same configuration, and asserts equal
// LoadResults and byte-equal load, RAS, RAS-event and lifetime tables.
// The grid crosses the uniform, zipfian and diurnal patterns with 1, 7
// and 32 users, think times of 0 and 200 ns and 1, 2 and 4 channels, and
// adds more users than requests, faults with scrub and a mid-run channel
// kill, spare exhaustion, write bursts that fill the queue and park,
// Start-Gap aging, small runs that end with a scrub pending, and a case
// shaped like the memsys-closed-ras benchmark workload.
// run_request_stream replays a recorded gcc stream and a seeded stream
// over a few hot banks at encode latencies of 0, 3.47 and 50 ns, and an
// empty stream. A reach check asserts that the grid exercised every
// mechanism the loops couple to. NVMENC_FUZZ_WRITES scales the runs, 300
// units by default: four requests per unit in the crossed grid and the
// hot-bank stream, twenty in the special cases, and forty collected
// accesses per unit for the recorded stream.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/report.hpp"
#include "reference_loadgen.hpp"
#include "sim/collector.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

u64 fuzz_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 300;  // tier-1 budget
}

struct Case {
  std::string name;
  LoadGenConfig load;
  MemSysConfig mem;
};

LoadGenConfig base_load(u64 requests) {
  LoadGenConfig load;
  load.requests = requests;
  load.footprint_lines = 1u << 14;
  load.read_fraction = 0.6;
  load.seed = 0xC105ED;
  return load;
}

std::vector<Case> grid() {
  std::vector<Case> out;
  const u64 crossed = 4 * fuzz_writes();
  const u64 special = 20 * fuzz_writes();
  for (const LoadPattern pattern :
       {LoadPattern::kUniform, LoadPattern::kZipfian, LoadPattern::kDiurnal}) {
    for (const usize users : {usize{1}, usize{7}, usize{32}}) {
      for (const double think : {0.0, 200.0}) {
        for (const usize channels : {usize{1}, usize{2}, usize{4}}) {
          Case c;
          c.name = std::string{load_pattern_name(pattern)} + "_u" +
                   std::to_string(users) + "_t" +
                   std::to_string(static_cast<int>(think)) + "_c" +
                   std::to_string(channels);
          c.load = base_load(crossed);
          c.load.pattern = pattern;
          c.load.users = users;
          c.load.think_ns = think;
          c.load.seed += users * 31 + channels;
          c.mem.org.channels = channels;
          c.mem.org.encode_latency_ns = 3.47;
          out.push_back(c);
        }
      }
    }
  }
  {
    // More users than requests: most users retire at their first arrival
    // (run_load) or never arm (sharded quotas of zero).
    Case c{"more_users_than_requests", base_load(20), {}};
    c.load.users = 48;
    c.load.think_ns = 0.0;
    c.mem.org.channels = 4;
    out.push_back(c);
    Case d{"five_users_three_requests", base_load(3), {}};
    d.load.users = 5;
    d.mem.org.channels = 1;
    out.push_back(d);
  }
  {
    // Faults, scrub and a channel kill mid-run (its time is set from a
    // pilot run in ras_kill_at); remapped inflow through a short queue.
    Case c{"ras_faults_scrub_kill", base_load(special), {}};
    c.load.users = 16;
    c.load.think_ns = 20.0;
    c.load.footprint_lines = 4'096;
    c.mem.org.channels = 4;
    c.mem.org.encode_latency_ns = 3.47;
    c.mem.ras.inject.seed = 0xFA17;
    c.mem.ras.inject.write_fail_rate = 0.02;
    c.mem.ras.inject.read_disturb_rate = 0.01;
    c.mem.ras.inject.stuck_rate = 0.002;
    c.mem.ras.scrub_interval_ns = 1'500.0;
    c.mem.ras.kill_channel = 1;
    out.push_back(c);
  }
  {
    // Few spares: retirements exhaust them and trip channels on their
    // own, with a full event log.
    Case c{"ras_spare_exhaustion", base_load(special), {}};
    c.load.users = 32;
    c.load.think_ns = 0.0;
    c.load.footprint_lines = 2'048;
    c.mem.org.channels = 2;
    c.mem.ras.inject.seed = 0x5EA5;
    c.mem.ras.inject.write_fail_rate = 0.05;
    c.mem.ras.inject.read_disturb_rate = 0.03;
    c.mem.ras.inject.stuck_rate = 0.01;
    c.mem.ras.spare_lines = 6;
    c.mem.ras.scrub_interval_ns = 800.0;
    out.push_back(c);
  }
  {
    // Aging with Start-Gap: migrations hold banks inside submit; short
    // endurance so lines wear out and retire.
    Case c{"lifetime_start_gap", base_load(special), {}};
    c.load.users = 12;
    c.load.think_ns = 50.0;
    c.load.read_fraction = 0.4;
    c.load.footprint_lines = 1'024;
    c.mem.org.channels = 2;
    c.mem.ras.scrub_interval_ns = 3'000.0;
    c.mem.ras.lifetime.endurance_mean_flips = 600.0;
    c.mem.ras.lifetime.wear_per_write_flips = 120.0;
    c.mem.ras.lifetime.retention_tau_ns = 300'000.0;
    c.mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
    c.mem.ras.lifetime.wl_interval = 16;
    c.mem.ras.lifetime.wl_region_lines = 64;
    out.push_back(c);
  }
  {
    // Write bursts: with no think time a user's writes arrive back to
    // back, writers park on the full queue and block until a drain frees
    // a slot.
    Case c{"write_bursts_park", base_load(special), {}};
    c.load.users = 32;
    c.load.think_ns = 0.0;
    c.load.read_fraction = 0.1;
    c.mem.org.channels = 2;
    out.push_back(c);
  }
  for (const u64 seed : {u64{2}, u64{3}, u64{4}, u64{5}}) {
    for (const usize users : {usize{2}, usize{4}, usize{8}}) {
      // The end of the run: a short scrub interval and long think times
      // leave a scrub pending after the last completion while users are
      // still due to arrive, and the loop drains at once.
      Case c{"run_end_s" + std::to_string(seed) + "_u" +
                 std::to_string(users),
             base_load(200 + seed), {}};
      c.load.users = users;
      c.load.think_ns = 400.0;
      c.load.read_fraction = 0.4;
      c.load.footprint_lines = 4'096;
      c.load.seed = seed;
      c.mem.org.channels = 2;
      c.mem.ras.inject.seed = seed;
      c.mem.ras.inject.read_disturb_rate = 0.01;
      c.mem.ras.scrub_interval_ns = 100.0;
      out.push_back(c);
    }
  }
  {
    // Shaped like the memsys-closed-ras benchmark workload.
    Case c{"closed_ras_shaped", base_load(special), {}};
    c.load.pattern = LoadPattern::kZipfian;
    c.load.zipf_theta = 0.99;
    c.load.users = 32;
    c.load.think_ns = 50.0;
    c.load.read_fraction = 0.5;
    c.load.footprint_lines = 262'144;
    c.load.seed = 42;
    c.mem.org.channels = 4;
    c.mem.org.encode_latency_ns = 3.47;
    c.mem.ras.inject.write_fail_rate = 1e-3;
    c.mem.ras.inject.read_disturb_rate = 1e-4;
    c.mem.ras.inject.seed = 0x42FA17;
    c.mem.ras.scrub_interval_ns = 50'000.0;
    c.mem.ras.lifetime.endurance_mean_flips = 1e6;
    c.mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
    c.mem.ras.lifetime.seed = 0x4211FE;
    out.push_back(c);
  }
  return out;
}

/// Every table a closed-loop run renders, in the CLI's order.
std::string render(const LoadGenConfig& load, const LoadResult& r) {
  std::ostringstream out;
  load_table("READ+SAE", "paper", 3.47, load, r).print(out);
  if (r.ras.any()) {
    ras_table(r.ras).print(out);
    ras_events_table(r.ras).print(out);
  }
  if (r.ras.lifetime_any()) lifetime_table(r.ras).print(out);
  return out.str();
}

void expect_same(const std::string& what, const LoadGenConfig& load,
                 const LoadResult& want, const LoadResult& got) {
  EXPECT_EQ(want, got) << what;
  EXPECT_EQ(render(load, want), render(load, got)) << what;
}

/// Sets the kill of a case with a kill channel to half its makespan
/// without the kill, so the channel dies mid-run.
void ras_kill_at(Case& c) {
  if (c.mem.ras.kill_channel < 0) return;
  MemSysConfig pilot = c.mem;
  pilot.ras.kill_channel = -1;
  c.mem.ras.kill_at_ns = testutil::run_load(c.load, pilot).makespan_ns / 2;
}

/// What the grid reached, summed over every reference run.
struct Reach {
  u64 forwarded = 0;
  u64 coalesced = 0;
  u64 drains = 0;
  u64 stalls = 0;
  u64 scrubs = 0;
  u64 retired = 0;
  u64 degraded = 0;
  u64 remapped_in = 0;
  u64 wl_moves = 0;
  u64 worn = 0;

  void add(const LoadResult& r) {
    forwarded += r.stats.forwarded_reads;
    coalesced += r.stats.coalesced_writes;
    drains += r.stats.drains;
    stalls += r.stats.write_stalls;
    if (r.ras.any()) {
      const RasStats t = r.ras.totals();
      scrubs += t.scrub_reads;
      retired += t.retired_lines;
      degraded += t.degraded;
      remapped_in += t.remapped_in;
    }
    if (r.ras.lifetime_any()) {
      const LifetimeStats l = r.ras.lifetime_totals();
      wl_moves += l.wl_moves;
      worn += l.worn_lines;
    }
  }
};

TEST(LoadGenDifferential, ClosedLoopsMatchTheEarlierLoops) {
  Reach reach;
  for (Case c : grid()) {
    SCOPED_TRACE(c.name);
    ras_kill_at(c);
    const LoadResult want = testutil::run_load(c.load, c.mem);
    expect_same("run_load", c.load, want, run_load(c.load, c.mem));
    EXPECT_EQ(want.stats.reads + want.stats.writes, c.load.requests);
    reach.add(want);

    const LoadResult want_sharded =
        testutil::run_load_sharded(c.load, c.mem, 1);
    for (const usize jobs : {usize{1}, usize{4}}) {
      expect_same("run_load_sharded jobs=" + std::to_string(jobs), c.load,
                  want_sharded, run_load_sharded(c.load, c.mem, jobs));
    }
    EXPECT_EQ(want_sharded.stats.reads + want_sharded.stats.writes,
              c.load.requests);
    reach.add(want_sharded);
  }
  EXPECT_GT(reach.forwarded, 0u);
  EXPECT_GT(reach.coalesced, 0u);
  EXPECT_GT(reach.drains, 0u);
  EXPECT_GT(reach.stalls, 0u);
  EXPECT_GT(reach.scrubs, 0u);
  EXPECT_GT(reach.retired, 0u);
  EXPECT_GT(reach.degraded, 0u);
  EXPECT_GT(reach.remapped_in, 0u);
  EXPECT_GT(reach.wl_moves, 0u);
  EXPECT_GT(reach.worn, 0u);
}

TEST(LoadGenDifferential, RequestStreamMatchesTheEarlierLoop) {
  CollectorConfig collector;
  collector.warmup_accesses = 20'000;
  collector.measured_accesses = 40 * fuzz_writes();
  collector.record_requests = true;
  SyntheticWorkload workload{profile_by_name("gcc"), 42};
  const WritebackTrace trace = collect_writebacks(workload, collector);
  ASSERT_FALSE(trace.requests.empty());
  u64 writes = 0;
  for (const MemRequest& req : trace.requests) writes += req.is_write;
  ASSERT_GT(writes, 0u);
  // Few lines on few banks: a queued write's bank often frees within the
  // CPU's gap before its next read, which the recorded stream rarely does.
  const std::vector<MemRequest> hot = [] {
    std::vector<MemRequest> out;
    Xoshiro256 rng{7};
    for (u64 i = 0; i < 4 * fuzz_writes(); ++i) {
      out.push_back({rng.next_below(24) * 3 * kLineBytes, rng.next_bool(0.5)});
    }
    return out;
  }();
  const LoadGenConfig label;
  for (const auto* stream : {&trace.requests, &hot}) {
    for (const double encode_ns : {0.0, 3.47, 50.0}) {
      SCOPED_TRACE(encode_ns);
      MemSysConfig mem;
      mem.org.encode_latency_ns = encode_ns;
      const LoadResult want = testutil::run_request_stream(*stream, mem);
      expect_same("run_request_stream", label, want,
                  run_request_stream(*stream, mem));
      EXPECT_EQ(want.stats.reads + want.stats.writes, stream->size());
    }
  }
  const MemSysConfig mem;
  expect_same("empty stream", label, testutil::run_request_stream({}, mem),
              run_request_stream({}, mem));
}

}  // namespace
}  // namespace nvmenc
