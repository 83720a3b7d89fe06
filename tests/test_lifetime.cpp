// The lifetime engine (DESIGN.md §13): keyed lognormal endurance draws,
// retention drift vs scrub, wear-leveling translation bijectivity, the
// endurance -> SAFER -> retirement escalation, and the acceptance
// scenarios — aging-enabled replay bit-identical to the serial reference
// loop at any jobs count (rendered lifetime/RAS tables included), and
// run-to-failure sustaining strictly more writes under READ+SAE's
// calibrated flip cost than under RAW's write-every-cell cost.
//
// The fuzz case is fixed-seed and short for tier-1 ctest; CI's long mode
// raises the budget via NVMENC_FUZZ_WRITES (see .github/workflows/ci.yml).
#include "memsys/lifetime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "memsys/aging.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/report.hpp"
#include "memsys/trace_replay.hpp"
#include "reference_replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

u64 fuzz_iterations() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return std::max<u64>(n / 100, 3);
  }
  return 3;  // tier-1 budget; the CI fuzz job runs 20000 / 100 = 200
}

std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> accesses;
  accesses.reserve(n);
  for (usize i = 0; i < n; ++i) accesses.push_back(workload.next());
  return accesses;
}

/// Every table a lifetime-enabled replay renders, concatenated — the
/// user-visible byte-identity contract.
std::string render(const TraceReplayConfig& replay,
                   const TraceReplayResult& r) {
  std::ostringstream out;
  replay_table("trace", 3.47, replay, r).print(out);
  ras_table(r.ras).print(out);
  lifetime_table(r.ras).print(out);
  ras_events_table(r.ras).print(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Keyed endurance draws

TEST(LifetimeEngineTest, EnduranceDrawsAreKeyedNotCallOrdered) {
  LifetimeConfig cfg;
  cfg.endurance_mean_flips = 1e6;
  LifetimeEngine fwd{cfg, 2};
  LifetimeEngine rev{cfg, 2};
  std::vector<u64> lines;
  for (u64 l = 0; l < 64; ++l) lines.push_back(l * 131 + 7);
  std::vector<LineLife> fwd_lives(lines.size());
  std::vector<LineLife> rev_lives(lines.size());

  std::vector<double> a;
  std::vector<double> b;
  for (usize i = 0; i < lines.size(); ++i) {
    a.push_back(fwd.limit_flips(lines[i], fwd_lives[i]));
  }
  for (usize i = lines.size(); i-- > 0;) {
    b.push_back(rev.limit_flips(lines[i], rev_lives[i]));
  }
  std::reverse(b.begin(), b.end());
  EXPECT_EQ(a, b);
  for (const double limit : a) EXPECT_GT(limit, 0.0);
}

TEST(LifetimeEngineTest, ChannelsSampleIndependentLimits) {
  LifetimeConfig cfg;
  cfg.endurance_mean_flips = 1e6;
  LifetimeEngine ch0{cfg, 0};
  LifetimeEngine ch1{cfg, 1};
  usize differing = 0;
  for (u64 l = 0; l < 32; ++l) {
    LineLife on0;
    LineLife on1;
    if (ch0.limit_flips(l, on0) != ch1.limit_flips(l, on1)) ++differing;
  }
  EXPECT_GT(differing, 24u);  // lognormal draws; collisions are freak events
}

TEST(LifetimeEngineTest, ZeroSigmaPinsEveryLimitToTheMedian) {
  LifetimeConfig cfg;
  cfg.endurance_mean_flips = 5e4;
  cfg.endurance_sigma = 0.0;
  LifetimeEngine engine{cfg, 0};
  for (u64 l = 0; l < 16; ++l) {
    LineLife life;
    EXPECT_DOUBLE_EQ(engine.limit_flips(l * 999, life), 5e4);
  }
}

TEST(LifetimeEngineTest, WearCrossesTheLimitExactlyOnce) {
  LifetimeConfig cfg;
  cfg.endurance_mean_flips = 100.0;
  cfg.endurance_sigma = 0.0;
  LifetimeEngine engine{cfg, 0};
  LineLife life;
  EXPECT_FALSE(engine.on_write(7, life, 60.0, 1.0));
  EXPECT_TRUE(engine.on_write(7, life, 60.0, 2.0));   // 120 >= 100
  EXPECT_FALSE(engine.on_write(7, life, 60.0, 3.0));  // already crossed
  EXPECT_EQ(engine.stats().worn_lines, 1u);
  EXPECT_DOUBLE_EQ(engine.stats().first_wearout_ns, 2.0);
}

TEST(LifetimeEngineTest, AgeMultiplierScalesWearAccrual) {
  LifetimeConfig cfg;
  cfg.endurance_mean_flips = 100.0;
  cfg.endurance_sigma = 0.0;
  cfg.age_multiplier = 10.0;
  LifetimeEngine engine{cfg, 0};
  LineLife life;
  EXPECT_TRUE(engine.on_write(1, life, 10.0, 1.0));  // 10 * 10 >= 100
}

TEST(LifetimeEngineTest, SaferReliefExtendsTheLimit) {
  LifetimeConfig cfg;
  cfg.endurance_mean_flips = 100.0;
  cfg.endurance_sigma = 0.0;
  LifetimeEngine engine{cfg, 0};
  LineLife life;
  EXPECT_TRUE(engine.on_write(3, life, 100.0, 1.0));
  engine.relieve(3, life);
  static_assert(kSaferRelief == 0.10);
  EXPECT_DOUBLE_EQ(engine.limit_flips(3, life), 110.0);
  EXPECT_FALSE(engine.on_write(3, life, 5.0, 2.0));   // 105 < 110
  EXPECT_TRUE(engine.on_write(3, life, 10.0, 3.0));   // 115 >= 110
}

// ---------------------------------------------------------------------------
// Retention drift

TEST(LifetimeEngineTest, DriftGrowsWithTimeSinceWrite) {
  LifetimeConfig cfg;
  cfg.retention_tau_ns = 1e4;
  LifetimeEngine engine{cfg, 0};
  // Long after the (implicit t = 0) write, drift probability approaches
  // 1; right after a refresh it approaches 0.
  usize stale_errors = 0;
  usize fresh_errors = 0;
  std::vector<LineLife> lives(200);
  for (u64 l = 0; l < 200; ++l) {  // 100 tau stale
    if (engine.drift_on_read(l, lives[l], 1e6)) ++stale_errors;
  }
  for (u64 l = 0; l < 200; ++l) {
    lives[l].last_write_ns = 1e6;  // a write-back restarts the drift clock
    if (engine.drift_on_read(l, lives[l], 1e6 + 1.0)) ++fresh_errors;
  }
  EXPECT_GT(stale_errors, 190u);
  EXPECT_LT(fresh_errors, 10u);
}

TEST(LifetimeEngineTest, DriftKeySurvivesU32Overflow) {
  // Run-to-failure scale: a line's drift counters pass 2^32. Below that
  // the key is the classic (writes << 32) | reads; above it no (writes,
  // reads) pair may repeat a key. (u32 counters wrapped to 0 and replayed
  // the line's drift stream from its start.)
  static_assert(std::is_same_v<decltype(LineLife{}.writes), u64>);
  static_assert(std::is_same_v<decltype(LineLife{}.reads), u64>);
  constexpr u64 k32 = u64{1} << 32;
  EXPECT_EQ(drift_key(5, 7), (DriftKey{(u64{5} << 32) | 7, 0}));
  EXPECT_EQ(drift_key(k32 - 1, k32 - 1), (DriftKey{~u64{0}, 0}));
  const std::vector<std::pair<u64, u64>> counters = {
      {0, 0},       {1, 0},       {0, 1},           {k32 - 1, k32 - 1},
      {k32, 0},     {0, k32},     {k32, k32},       {k32 + 1, 0},
      {0, k32 + 1}, {1, k32},     {k32, 1},         {2 * k32, 3},
      {3, 2 * k32}, {k32 - 1, 0}, {~u64{0}, ~u64{0}}};
  std::set<std::pair<u64, u64>> keys;
  for (const auto& [writes, reads] : counters) {
    const DriftKey key = drift_key(writes, reads);
    EXPECT_TRUE(keys.insert({key.seq, key.high}).second)
        << writes << " writes, " << reads << " reads repeat a key";
  }
  // The draw itself sees the high halves: 2^32 writes and 0 writes share
  // the low 32 bits of the key, yet draw different drift streams.
  LifetimeConfig cfg;
  cfg.retention_tau_ns = 1e4;
  LifetimeEngine engine{cfg, 0};
  usize differing = 0;
  for (u64 l = 0; l < 256; ++l) {
    LineLife wrapped;
    LineLife fresh;
    wrapped.writes = k32;
    const double half_life = 1e4 * 0.6931;  // p ~ 1/2
    if (engine.drift_on_read(l, wrapped, half_life) !=
        engine.drift_on_read(l, fresh, half_life)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 64u);
}

TEST(ScrubDriftTest, ScrubIntervalTradesBandwidthAgainstDriftDamage) {
  // The drift-vs-bandwidth trade-off the scrub knob is for. Cold data
  // read repeatedly accumulates drift disturbs until SECDED runs out
  // (two hits = uncorrectable -> retirement); scrub rewrites reset both
  // the disturb counter and the drift clock. Tight scrubbing must pay
  // bandwidth (scrub reads) and in exchange strictly cut the
  // uncorrectable damage on an identical workload.
  // 8 lines written once, then read for tens of thousands of virtual ns:
  // the scrub walker (one line per interval) revisits each line every
  // ~lines/channels * interval ns, so 100 ns scrubbing refreshes every
  // few hundred ns while the unscrubbed run's drift clocks just grow.
  // Arrivals are deliberately sparse (200 ns): back-to-back arrivals
  // would keep the one-shot writes parked in the write queue, and reads
  // of a queued line are FORWARDED from the queue (channel_shard.cpp)
  // without ever touching the array — no array read, no drift draw. The
  // idle gaps let the opportunistic drain land the writes early so every
  // subsequent read is a real array read with a growing drift age.
  std::vector<MemAccess> stream;
  const usize lines = 8;
  for (usize l = 0; l < lines; ++l) {
    stream.push_back({l * kLineBytes, Op::kWrite, 0xabcd});
  }
  for (usize round = 0; round < 30; ++round) {
    for (usize l = 0; l < lines; ++l) {
      stream.push_back({l * kLineBytes, Op::kRead, 0});
    }
  }
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.lifetime.retention_tau_ns = 20'000.0;
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 200.0;

  const auto ras_at = [&](double scrub_ns) {
    MemSysConfig m = mem;
    m.ras.scrub_interval_ns = scrub_ns;
    return replay_trace_sharded(stream, replay, m, 1).ras.totals();
  };
  const RasStats tight = ras_at(100.0);
  const RasStats unscrubbed = ras_at(0.0);
  EXPECT_EQ(unscrubbed.scrub_reads, 0u);
  EXPECT_GT(tight.scrub_reads, 0u);          // the bandwidth price...
  EXPECT_GT(tight.scrub_corrections, 0u);    // ...buying real corrections...
  EXPECT_GT(unscrubbed.uncorrectable(), 0u);
  EXPECT_LT(tight.uncorrectable(), unscrubbed.uncorrectable());  // ...paid off
}

// ---------------------------------------------------------------------------
// Wear-leveling translation

TEST(WearLevelTranslatorTest, StartGapFullRotationStaysBijective) {
  // Drive several complete Start-Gap rotations (region_lines + 1 gap moves
  // each) over multiple regions and require, after every write, that the
  // translation is injective and channel-preserving — no two logical
  // lines may ever collide on one physical line.
  LifetimeConfig cfg;
  cfg.leveler = WearLevelerKind::kStartGap;
  cfg.wl_interval = 2;
  cfg.wl_region_lines = 8;
  MemOrg org;
  org.channels = 4;
  const usize channel = 1;
  WearLevelTranslator tr{cfg, org, channel};

  const usize logical_lines = 32;  // 4 regions of 8
  for (usize sweep = 0; sweep < 12; ++sweep) {
    for (usize idx = 0; idx < logical_lines; ++idx) {
      // A write lands on the mapping in force before it advances the
      // leveler.
      const u64 logical = channel_local_line_addr(org, channel, idx);
      const u64 before = tr.translate(logical);
      EXPECT_EQ(tr.translate_write(logical), before);
      std::set<u64> seen;
      for (usize l = 0; l < logical_lines; ++l) {
        const u64 phys =
            tr.translate(channel_local_line_addr(org, channel, l));
        EXPECT_EQ(channel_of_line(org, phys), channel);
        EXPECT_TRUE(seen.insert(phys).second)
            << "aliased physical line after sweep " << sweep << " write "
            << idx;
      }
    }
  }
  EXPECT_GT(tr.migrations(), 0u);
  // 12 sweeps * 32 writes / interval 2 = 192 gap moves >> one full
  // 9-move rotation per region: every region rotated completely.
  EXPECT_GE(tr.migrations(), 4u * (cfg.wl_region_lines + 1));
}

TEST(WearLevelTranslatorTest, SecurityRefreshStaysBijective) {
  LifetimeConfig cfg;
  cfg.leveler = WearLevelerKind::kSecurityRefresh;
  cfg.wl_interval = 2;
  cfg.wl_region_lines = 8;
  MemOrg org;
  org.channels = 2;
  WearLevelTranslator tr{cfg, org, 0};
  for (usize sweep = 0; sweep < 8; ++sweep) {
    for (usize idx = 0; idx < 16; ++idx) {
      (void)tr.translate_write(channel_local_line_addr(org, 0, idx));
    }
    std::set<u64> seen;
    for (usize l = 0; l < 16; ++l) {
      const u64 phys = tr.translate(channel_local_line_addr(org, 0, l));
      EXPECT_EQ(channel_of_line(org, phys), 0u);
      EXPECT_TRUE(seen.insert(phys).second);
    }
  }
}

TEST(WearLevelTranslatorTest, ChannelLocalIndexRoundTrips) {
  MemOrg org;
  org.channels = 4;
  for (usize c = 0; c < org.channels; ++c) {
    for (u64 idx = 0; idx < 64; ++idx) {
      const u64 addr = channel_local_line_addr(org, c, idx);
      EXPECT_EQ(channel_of_line(org, addr), c);
      EXPECT_EQ(channel_local_line_index(org, addr), idx);
    }
  }
}

// ---------------------------------------------------------------------------
// Reference vs engine with the full aging stack

TEST(LifetimeReplayTest, AgingReplayIsJobsInvariant) {
  // The ctest-enforced acceptance: endurance wear-out, drift, scrub, and a
  // Start-Gap leveler all active — the engine must agree with the serial
  // reference loop bit for bit at every jobs count, rendered lifetime/RAS
  // tables included, across epoch boundaries.
  const std::vector<MemAccess> stream = make_stream(21, 6000);
  TraceReplayConfig replay;
  replay.epoch_accesses = 1000;
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.org.encode_latency_ns = 3.47;
  mem.ras.scrub_interval_ns = 5'000.0;
  // The synthetic stream rewrites most lines only once or twice, so the
  // endurance median sits just above one write's wear: the lognormal left
  // tail wears out a few percent of the touched lines — enough to fire
  // the whole escalation ladder without tripping a channel.
  mem.ras.lifetime.endurance_mean_flips = 150.0;
  mem.ras.lifetime.wear_per_write_flips = 90.0;
  mem.ras.lifetime.retention_tau_ns = 200'000.0;
  mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
  mem.ras.lifetime.wl_interval = 16;
  mem.ras.lifetime.wl_region_lines = 64;

  const TraceReplayResult serial =
      testutil::replay_trace(stream, replay, mem);
  EXPECT_TRUE(serial.ras.lifetime_any());
  const LifetimeStats life = serial.ras.lifetime_totals();
  EXPECT_GT(life.wear_writes, 0u);
  EXPECT_GT(life.worn_lines, 0u);  // the endurance ladder actually fired
  EXPECT_GT(life.wl_moves, 0u);
  for (usize jobs : {usize{1}, usize{2}, usize{4}}) {
    const TraceReplayResult sharded =
        replay_trace_sharded(stream, replay, mem, jobs);
    EXPECT_EQ(serial, sharded) << "jobs=" << jobs;
    EXPECT_EQ(render(replay, serial), render(replay, sharded))
        << "jobs=" << jobs;
  }
}

TEST(LifetimeReplayTest, AgingSurvivesAMidRunChannelKill) {
  // Leveler remaps, survivor remaps, and the degradation epoch edge all
  // compose in one address chain; killing a channel mid-replay must not
  // cost determinism.
  const std::vector<MemAccess> stream = make_stream(23, 6000);
  TraceReplayConfig replay;
  replay.epoch_accesses = 500;
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.ras.kill_channel = 2;
  mem.ras.kill_at_ns = 20'000.0;
  mem.ras.lifetime.endurance_mean_flips = 50'000.0;
  mem.ras.lifetime.wear_per_write_flips = 90.0;
  mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
  mem.ras.lifetime.wl_interval = 8;
  mem.ras.lifetime.wl_region_lines = 32;

  const TraceReplayResult serial =
      testutil::replay_trace(stream, replay, mem);
  EXPECT_EQ(serial.ras.totals().degraded, 1u);
  for (usize jobs : {usize{1}, usize{2}, usize{4}}) {
    const TraceReplayResult sharded =
        replay_trace_sharded(stream, replay, mem, jobs);
    EXPECT_EQ(serial, sharded) << "jobs=" << jobs;
    EXPECT_EQ(render(replay, serial), render(replay, sharded))
        << "jobs=" << jobs;
  }
}

TEST(LifetimeLoadGenTest, ShardedClosedLoopIsJobsInvariant) {
  // run_load_sharded pins users to channels (a different workload than the
  // serial closed loop), but its own contract is jobs-invariance — with
  // the aging stack on, every jobs count must produce identical bytes.
  LoadGenConfig load;
  load.requests = 8'000;
  load.footprint_lines = 1024;
  load.read_fraction = 0.6;
  load.seed = 5;
  MemSysConfig mem;
  mem.org.channels = 4;
  mem.ras.scrub_interval_ns = 10'000.0;
  mem.ras.lifetime.endurance_mean_flips = 600.0;  // ~5 writes at this wear
  mem.ras.lifetime.wear_per_write_flips = 120.0;
  mem.ras.lifetime.retention_tau_ns = 300'000.0;
  mem.ras.lifetime.leveler = WearLevelerKind::kSecurityRefresh;
  mem.ras.lifetime.wl_interval = 32;
  mem.ras.lifetime.wl_region_lines = 64;

  const LoadResult one = run_load_sharded(load, mem, 1);
  EXPECT_TRUE(one.ras.lifetime_any());
  EXPECT_GT(one.ras.lifetime_totals().worn_lines, 0u);
  for (usize jobs : {usize{2}, usize{4}}) {
    const LoadResult many = run_load_sharded(load, mem, jobs);
    EXPECT_EQ(one, many) << "jobs=" << jobs;
    std::ostringstream a, b;
    lifetime_table(one.ras).print(a);
    lifetime_table(many.ras).print(b);
    ras_table(one.ras).print(a);
    ras_table(many.ras).print(b);
    EXPECT_EQ(a.str(), b.str()) << "jobs=" << jobs;
  }
}

// ---------------------------------------------------------------------------
// Wear-leveling cost accounting

TEST(LifetimeLoadGenTest, LevelerMigrationsAreCharged) {
  LoadGenConfig load;
  load.requests = 6'000;
  load.footprint_lines = 512;
  load.read_fraction = 0.3;
  load.seed = 13;
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
  mem.ras.lifetime.wl_interval = 8;
  mem.ras.lifetime.wl_region_lines = 32;

  const LoadResult r = run_load(load, mem);
  const LifetimeStats life = r.ras.lifetime_totals();
  EXPECT_GT(life.wl_writes, 0u);
  EXPECT_GT(life.wl_moves, 0u);
  EXPECT_GT(life.wl_busy_ns, 0.0);    // migrations occupy banks
  EXPECT_GT(life.wl_energy_pj, 0.0);  // and hit the energy ledger
  EXPECT_GT(life.wl_uniformity, 0.0);
}

// ---------------------------------------------------------------------------
// Run to failure

TEST(RunToFailureTest, ReadSaeOutlivesRawUnderIdenticalSeeds) {
  // The acceptance criterion: identical traffic, identical endurance
  // draws; only flips-per-write differs. READ+SAE's calibrated flip cost
  // must sustain strictly more total writes than RAW's write-every-cell
  // cost before the first retirement.
  LoadGenConfig load;
  load.requests = 5'000;
  load.footprint_lines = 256;
  load.read_fraction = 0.5;
  load.seed = 77;
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.lifetime.endurance_mean_flips = 1e5;
  AgingConfig aging;
  aging.epoch_accesses = 500;
  aging.max_passes = 200;

  const auto age_with = [&](double wear_per_write) {
    MemSysConfig m = mem;
    m.ras.lifetime.wear_per_write_flips = wear_per_write;
    return run_to_failure(load, aging, m);
  };
  const SchemeWriteCost sae_cost =
      calibrate_write_cost(Scheme::kReadSae, "gcc", load.seed);
  const AgingResult raw = age_with(static_cast<double>(kLineBits));
  const AgingResult sae = age_with(sae_cost.avg_sets + sae_cost.avg_resets);

  EXPECT_EQ(raw.stop, AgingStop::kFirstRetirement);
  EXPECT_EQ(sae.stop, AgingStop::kFirstRetirement);
  EXPECT_GT(raw.writes_to_first_retirement, 0u);
  EXPECT_GT(sae.writes_to_first_retirement, raw.writes_to_first_retirement);
  EXPECT_GT(sae.total_array_writes, raw.total_array_writes);
}

TEST(RunToFailureTest, IsDeterministicAndCurveIsMonotonic) {
  const std::vector<MemAccess> stream = make_stream(31, 2000);
  AgingConfig aging;
  aging.epoch_accesses = 400;
  aging.max_passes = 100;
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.lifetime.endurance_mean_flips = 5e4;
  mem.ras.lifetime.wear_per_write_flips = 256.0;

  const AgingResult a = run_to_failure(stream, aging, mem);
  const AgingResult b = run_to_failure(stream, aging, mem);
  EXPECT_EQ(a, b);
  ASSERT_GE(a.curve.size(), 2u);
  for (usize i = 1; i < a.curve.size(); ++i) {
    EXPECT_GE(a.curve[i].array_writes, a.curve[i - 1].array_writes);
    EXPECT_GE(a.curve[i].time_ns, a.curve[i - 1].time_ns);
    EXPECT_GE(a.curve[i].retired, a.curve[i - 1].retired);
  }
}

TEST(RunToFailureTest, RequiresAnAgingMechanism) {
  const std::vector<MemAccess> stream = make_stream(1, 100);
  const AgingConfig aging;
  const MemSysConfig mem;  // no endurance, no drift, no leveler
  EXPECT_THROW((void)run_to_failure(stream, aging, mem),
               std::invalid_argument);
}

TEST(AgingConfigTest, ValidateRejectsNonsense) {
  AgingConfig bad;
  bad.inter_arrival_ns = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.epoch_accesses = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.max_passes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.capacity_floor = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fuzz: randomized aging configs, reference vs engine

TEST(LifetimeFuzzTest, RandomAgingConfigsStayJobsInvariant) {
  Xoshiro256 rng{0x11fef022};
  const u64 iterations = fuzz_iterations();
  for (u64 it = 0; it < iterations; ++it) {
    const std::vector<MemAccess> stream =
        make_stream(1000 + it, 1500 + 500 * (it % 3));
    TraceReplayConfig replay;
    replay.epoch_accesses = 250 + 250 * (it % 4);
    MemSysConfig mem;
    mem.org.channels = usize{1} << rng.next_below(3);  // 1, 2 or 4
    mem.ras.lifetime.seed = rng.next();
    mem.ras.lifetime.endurance_mean_flips =
        5'000.0 + 50'000.0 * rng.next_double();
    mem.ras.lifetime.wear_per_write_flips = 30.0 + 200.0 * rng.next_double();
    if (rng.next_bool(0.5)) {
      mem.ras.lifetime.retention_tau_ns = 1e5 + 1e6 * rng.next_double();
      mem.ras.scrub_interval_ns = 2'000.0 + 20'000.0 * rng.next_double();
    }
    const u64 lev = rng.next_below(3);
    if (lev == 1) {
      mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
    } else if (lev == 2) {
      mem.ras.lifetime.leveler = WearLevelerKind::kSecurityRefresh;
    }
    mem.ras.lifetime.wl_interval = 4 + static_cast<usize>(rng.next_below(28));
    mem.ras.lifetime.wl_region_lines = usize{16} << rng.next_below(3);
    if (rng.next_bool(0.3)) {
      mem.ras.kill_channel = static_cast<int>(
          rng.next_below(static_cast<u64>(mem.org.channels)));
      mem.ras.kill_at_ns = 5'000.0 + 20'000.0 * rng.next_double();
    }

    const TraceReplayResult serial =
        testutil::replay_trace(stream, replay, mem);
    for (const usize jobs : {usize{1}, usize{2}, usize{4}}) {
      const TraceReplayResult sharded =
          replay_trace_sharded(stream, replay, mem, jobs);
      ASSERT_EQ(serial, sharded) << "iteration " << it << " jobs " << jobs;
    }
  }
}

}  // namespace
}  // namespace nvmenc
