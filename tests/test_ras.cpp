// The memory-system RAS layer (DESIGN.md §12): keyed fault draws, the
// program-and-verify -> SAFER -> retirement escalation, scrub-on-read,
// graceful channel degradation, and the acceptance scenario — killing one
// channel mid-replay while survivors absorb the remapped traffic, with
// the engine bit-identical to the serial reference loop at every jobs
// count throughout.
//
// The fuzz case is fixed-seed and short for tier-1 ctest; CI's long mode
// raises the budget via NVMENC_FUZZ_WRITES (see .github/workflows/ci.yml).
#include "memsys/ras.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memsys/report.hpp"
#include "memsys/trace_replay.hpp"
#include "reference_replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

u64 fuzz_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 300;  // tier-1 budget; the CI fuzz job runs 20000
}

RasConfig base_config() {
  RasConfig cfg;
  cfg.inject.seed = 99;
  return cfg;
}

// ---------------------------------------------------------------------------
// Keyed draws

TEST(FaultDomainTest, DrawsAreKeyedByLineNotByCallOrder) {
  // The sharded engines interleave per-channel work arbitrarily; fault
  // streams must depend on (line, seq), never on which line came first.
  RasConfig cfg = base_config();
  cfg.inject.write_fail_rate = 0.5;
  cfg.inject.read_disturb_rate = 0.5;
  FaultDomain fwd{cfg, 0};
  FaultDomain rev{cfg, 0};
  std::vector<u64> lines;
  for (u64 l = 0; l < 64; ++l) lines.push_back(l * 17 + 3);

  std::vector<FaultDomain::Outcome> a, b;
  for (const u64 l : lines) a.push_back(fwd.on_array_write(l, 1.0));
  for (usize i = lines.size(); i-- > 0;) {
    b.push_back(rev.on_array_write(lines[i], 1.0));
  }
  for (usize i = 0; i < lines.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[lines.size() - 1 - i];
    EXPECT_EQ(x.retries, y.retries) << "line " << lines[i];
    EXPECT_EQ(x.exhausted, y.exhausted) << "line " << lines[i];
  }
  EXPECT_EQ(fwd.stats(), rev.stats());
}

TEST(FaultDomainTest, ChannelsDrawIndependentStreams) {
  RasConfig cfg = base_config();
  cfg.inject.write_fail_rate = 0.5;
  FaultDomain c0{cfg, 0};
  FaultDomain c1{cfg, 1};
  bool differ = false;
  for (u64 l = 0; l < 128 && !differ; ++l) {
    differ = c0.on_array_write(l, 1.0).retries !=
             c1.on_array_write(l, 1.0).retries;
  }
  EXPECT_TRUE(differ) << "channel salt did not separate the draw streams";
}

// ---------------------------------------------------------------------------
// Escalation and retirement

TEST(FaultDomainTest, EscalationWalksSaferThenRetireThenSpare) {
  RasConfig cfg = base_config();
  cfg.inject.write_fail_rate = 1.0;  // every pulse fails
  cfg.retry_limit = 2;
  cfg.safer_remap_limit = 2;
  cfg.spare_lines = 8;
  FaultDomain d{cfg, 0};

  const auto w1 = d.on_array_write(42, 1.0);
  EXPECT_TRUE(w1.exhausted);
  EXPECT_TRUE(w1.remapped);  // SAFER re-partition #1
  const auto w2 = d.on_array_write(42, 2.0);
  EXPECT_TRUE(w2.remapped);  // SAFER re-partition #2
  const auto w3 = d.on_array_write(42, 3.0);
  EXPECT_TRUE(w3.retired);   // SAFER budget gone: spare pool
  const auto w4 = d.on_array_write(42, 4.0);
  EXPECT_TRUE(w4.spare);     // spares are pristine media

  EXPECT_EQ(d.stats().safer_remaps, 2u);
  EXPECT_EQ(d.stats().retired_lines, 1u);
  EXPECT_EQ(d.stats().spare_writes, 1u);
  EXPECT_EQ(d.stats().spares_left, cfg.spare_lines - 1);
}

TEST(FaultDomainTest, RetirementIsIdempotentAcrossDemandAndScrub) {
  // The same line dies twice in one epoch — a scrub UE and then a demand
  // write escalation — and must consume exactly one spare.
  RasConfig cfg = base_config();
  cfg.inject.read_disturb_rate = 1.0;  // every read disturbs
  cfg.inject.write_fail_rate = 1.0;
  cfg.retry_limit = 1;
  cfg.safer_remap_limit = 0;  // writes escalate straight to retirement
  cfg.spare_lines = 4;
  cfg.degrade_ue_threshold = 100;
  FaultDomain d{cfg, 0};

  EXPECT_TRUE(d.on_demand_read(7, 1.0).disturbed);       // disturbs: 1
  const auto scrub = d.on_scrub_read(7, 2.0);            // disturbs: 2
  EXPECT_TRUE(scrub.uncorrectable);                      // -> retired
  EXPECT_EQ(d.stats().retired_lines, 1u);
  EXPECT_EQ(d.stats().spares_left, 3u);

  const auto w = d.on_array_write(7, 3.0);  // would have retired again
  EXPECT_TRUE(w.spare);
  EXPECT_FALSE(w.retired);
  EXPECT_EQ(d.stats().retired_lines, 1u) << "second retirement not idempotent";
  EXPECT_EQ(d.stats().spares_left, 3u) << "same line consumed two spares";

  // Retired lines read cleanly from the spare pool.
  const auto r = d.on_demand_read(7, 4.0);
  EXPECT_FALSE(r.disturbed);
  EXPECT_FALSE(r.uncorrectable);
}

TEST(FaultDomainTest, ScrubCorrectionResetsTheDisturbCounter) {
  RasConfig cfg = base_config();
  cfg.inject.read_disturb_rate = 0.6;
  cfg.degrade_ue_threshold = 1000;
  cfg.spare_lines = 1000;
  FaultDomain d{cfg, 0};
  // Find a line whose first demand read disturbs and whose scrub read does
  // not (fixed seed: the search is deterministic).
  bool exercised = false;
  for (u64 line = 0; line < 200 && !exercised; ++line) {
    if (!d.on_demand_read(line, 1.0).disturbed) continue;
    const auto scrub = d.on_scrub_read(line, 2.0);
    if (!scrub.corrected) continue;
    // Counter reset: the next disturb is a fresh single-bit error, fully
    // correctable — without the scrub it would have been the second hit.
    for (u64 i = 0; i < 32; ++i) {
      const auto r = d.on_demand_read(line, 3.0 + static_cast<double>(i));
      if (r.disturbed) {
        EXPECT_FALSE(r.uncorrectable)
            << "scrub correction did not reset the SECDED budget";
        exercised = true;
        break;
      }
    }
  }
  EXPECT_TRUE(exercised);
  EXPECT_GT(d.stats().scrub_corrections, 0u);
}

// ---------------------------------------------------------------------------
// Degradation

TEST(FaultDomainTest, SpareExhaustionTripsDegraded) {
  RasConfig cfg = base_config();
  cfg.inject.read_disturb_rate = 1.0;
  cfg.spare_lines = 2;
  cfg.degrade_ue_threshold = 1000;
  FaultDomain d{cfg, 0};
  for (u64 line : {u64{10}, u64{20}}) {
    (void)d.on_demand_read(line, 1.0);
    (void)d.on_demand_read(line, 2.0);  // second disturb -> UE -> retire
  }
  EXPECT_TRUE(d.degraded());
  EXPECT_EQ(d.stats().spares_left, 0u);
  bool logged = false;
  for (const RasEvent& e : d.events()) {
    if (e.kind == RasEventKind::kDegradeSpares) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(FaultDomainTest, UncorrectableThresholdTripsDegraded) {
  RasConfig cfg = base_config();
  cfg.inject.read_disturb_rate = 1.0;
  cfg.spare_lines = 1000;
  cfg.degrade_ue_threshold = 2;
  FaultDomain d{cfg, 0};
  for (u64 line : {u64{10}, u64{20}}) {
    (void)d.on_demand_read(line, 1.0);
    (void)d.on_demand_read(line, 2.0);
  }
  EXPECT_TRUE(d.degraded());
  bool logged = false;
  for (const RasEvent& e : d.events()) {
    if (e.kind == RasEventKind::kDegradeUes) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(FaultDomainTest, ScriptedKillTripsAtTheDeadlineOnly) {
  RasConfig cfg = base_config();
  cfg.kill_channel = 3;
  cfg.kill_at_ns = 100.0;
  FaultDomain victim{cfg, 3};
  FaultDomain bystander{cfg, 2};
  victim.poll(99.9);
  EXPECT_FALSE(victim.degraded());
  victim.poll(100.0);
  EXPECT_TRUE(victim.degraded());
  bystander.poll(1e9);
  EXPECT_FALSE(bystander.degraded());
}

TEST(FaultDomainTest, EventLogCapsWithDropCount) {
  RasConfig cfg = base_config();
  cfg.inject.read_disturb_rate = 1.0;
  cfg.spare_lines = 1000;
  cfg.degrade_ue_threshold = 10'000;
  FaultDomain d{cfg, 0};
  for (u64 line = 0; line < 40; ++line) {  // 2 events per line (UE + retire)
    (void)d.on_demand_read(line, 1.0);
    (void)d.on_demand_read(line, 2.0);
  }
  EXPECT_EQ(d.events().size(), 32u);
  EXPECT_EQ(d.events_dropped(), 48u);
}

// ---------------------------------------------------------------------------
// Degradation routing

TEST(RasRemapTest, RemapsOntoSurvivorsPreservingRowOffset) {
  MemOrg org;
  org.channels = 4;
  std::vector<u8> degraded{0, 1, 0, 0};
  Xoshiro256 rng{5};
  usize moved = 0;
  for (int i = 0; i < 2'000; ++i) {
    const u64 addr = pin_line_to_channel(org, rng.next() >> 12, 1);
    const u64 routed = ras_remap_line(org, addr, degraded);
    ASSERT_NE(channel_of_line(org, routed), 1u);
    ASSERT_EQ(routed % org.row_bytes, addr % org.row_bytes);
    ASSERT_EQ(ras_remap_line(org, addr, degraded), routed);  // stateless
    if (routed != addr) ++moved;
  }
  EXPECT_EQ(moved, 2'000u);
}

TEST(RasRemapTest, NoSurvivorsServesInPlace) {
  MemOrg org;
  org.channels = 2;
  const std::vector<u8> degraded{1, 1};
  EXPECT_EQ(ras_remap_line(org, 12345, degraded), 12345u);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: kill one channel mid-replay

std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> accesses;
  accesses.reserve(n);
  for (usize i = 0; i < n; ++i) accesses.push_back(workload.next());
  return accesses;
}

std::string render_ras(const RasReport& ras) {
  std::ostringstream out;
  ras_table(ras).print(out);
  ras_events_table(ras).print(out);
  return out.str();
}

TEST(RasReplayTest, KillOneChannelMidReplayCompletesOnSurvivors) {
  const std::vector<MemAccess> stream = make_stream(11, 6'000);
  TraceReplayConfig replay;
  replay.epoch_accesses = 500;
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.org.encode_latency_ns = 3.47;
  mem.ras.kill_channel = 1;
  mem.ras.kill_at_ns = 20'000.0;  // a third of the way into the replay

  const TraceReplayResult serial =
      testutil::replay_trace(stream, replay, mem);
  // No crash, every access served, the victim reported degraded, and the
  // survivors absorbed remapped traffic.
  EXPECT_EQ(serial.accesses, stream.size());
  ASSERT_EQ(serial.ras.channels.size(), 4u);
  EXPECT_EQ(serial.ras.channels[1].degraded, 1u);
  EXPECT_DOUBLE_EQ(serial.ras.channels[1].degraded_at_ns, 20'000.0);
  u64 absorbed = 0;
  for (usize c : {usize{0}, usize{2}, usize{3}}) {
    EXPECT_EQ(serial.ras.channels[c].degraded, 0u);
    absorbed += serial.ras.channels[c].remapped_in;
  }
  EXPECT_GT(absorbed, 0u);

  for (usize jobs : {usize{1}, usize{2}, usize{4}}) {
    const TraceReplayResult sharded =
        replay_trace_sharded(stream, replay, mem, jobs);
    EXPECT_EQ(serial, sharded) << "jobs=" << jobs;
    EXPECT_EQ(render_ras(serial.ras), render_ras(sharded.ras))
        << "jobs=" << jobs;
  }
}

// ---------------------------------------------------------------------------
// Fuzz: random fault configurations, reference vs engine

TEST(RasFuzzTest, RandomFaultConfigsStayJobsInvariant) {
  const u64 budget = fuzz_writes();
  const usize rounds = static_cast<usize>(budget / 300);
  const usize accesses = 2'000;
  Xoshiro256 rng{0xFA57'FA57ull};
  for (usize round = 0; round < rounds; ++round) {
    const std::vector<MemAccess> stream =
        make_stream(1000 + round, accesses);
    TraceReplayConfig replay;
    replay.epoch_accesses = 250 + rng.next_below(750);
    MemSysConfig mem;
    mem.org.channels = 2 + 2 * rng.next_below(2);  // 2 or 4
    mem.org.encode_latency_ns = 3.47;
    mem.ras.inject.seed = rng.next();
    mem.ras.inject.write_fail_rate = 0.05 * rng.next_double();
    mem.ras.inject.read_disturb_rate = 0.05 * rng.next_double();
    mem.ras.inject.stuck_rate = 0.01 * rng.next_double();
    mem.ras.retry_limit = 1 + static_cast<usize>(rng.next_below(3));
    mem.ras.spare_lines = 1 + static_cast<usize>(rng.next_below(16));
    mem.ras.degrade_ue_threshold =
        1 + static_cast<usize>(rng.next_below(8));
    if (rng.next_bool(0.5)) {
      mem.ras.scrub_interval_ns = 500.0 + 5'000.0 * rng.next_double();
    }
    if (rng.next_bool(0.3)) {
      mem.ras.kill_channel = static_cast<int>(
          rng.next_below(mem.org.channels));
      mem.ras.kill_at_ns = 10'000.0 * rng.next_double();
    }
    const TraceReplayResult serial =
        testutil::replay_trace(stream, replay, mem);
    for (usize jobs : {usize{1}, usize{2}, usize{4}}) {
      const TraceReplayResult sharded =
          replay_trace_sharded(stream, replay, mem, jobs);
      ASSERT_EQ(serial, sharded)
          << "round " << round << " jobs " << jobs << " seed "
          << mem.ras.inject.seed;
    }
  }
}

}  // namespace
}  // namespace nvmenc
