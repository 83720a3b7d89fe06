// The channel media model against the one it replaced (reference_ras.hpp):
// FaultDomain keeping each line's fault and wear state in one record,
// escalating through one ladder and pricing recovery in Outcome::bank_ns
// must leave every outcome, statistic and event unchanged.
//
// Both fault domains see the same seeded op streams: demand array writes,
// migration writes, demand reads, scrub reads (at the scrub cursor's
// target or at any line, retired ones included) whose corrections write
// the line back, remapped inflow, and polls that run past a scripted
// kill. After every op the test compares the outcome field by field, the
// bank time the earlier shard charged for it against bank_ns, RasStats,
// the lines served and LifetimeStats (with the migration cost the earlier
// shard booked itself); at the end the event log and events_dropped.
// NVMENC_FUZZ_WRITES scales the streams: twenty ops per unit, 300 units
// by default.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memsys/ras.hpp"
#include "reference_ras.hpp"

namespace nvmenc {
namespace {

using OldDomain = testutil::FaultDomain;

constexpr usize kChannel = 2;

u64 fuzz_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 300;  // tier-1 budget; the CI long mode runs 20000
}

/// One named media configuration plus the op mix it is driven with.
struct MediaCase {
  std::string name;
  RasConfig ras;
  u64 lines = 48;           ///< distinct line addresses
  double gap_ns = 40.0;     ///< mean spacing of ops
  double write_share = 0.4;
  double migrate_share = 0.0;
  double scrub_share = 0.1;
  double remap_share = 0.05;
};

std::vector<MediaCase> cases() {
  std::vector<MediaCase> out;
  {
    // Every pulse fails: each write runs the ladder dry, walks SAFER and
    // retires its line; later ops land on spares.
    MediaCase c{"every_pulse_fails", RasConfig{}};
    c.ras.inject.write_fail_rate = 1.0;
    c.ras.retry_limit = 2;
    c.ras.spare_lines = 1'000;
    c.migrate_share = 0.1;
    c.ras.lifetime.endurance_mean_flips = 1e9;
    out.push_back(c);
  }
  {
    MediaCase c{"stuck_and_disturb", RasConfig{}};
    c.ras.inject.write_fail_rate = 0.1;
    c.ras.inject.stuck_rate = 0.3;
    c.ras.inject.read_disturb_rate = 0.3;
    c.ras.spare_lines = 1'000;
    c.ras.degrade_ue_threshold = 1'000'000;
    c.scrub_share = 0.2;
    out.push_back(c);
  }
  {
    // Retention drift with frequent scrubs: corrections write lines back,
    // restarting their drift clocks and wearing them.
    MediaCase c{"drift_with_scrub", RasConfig{}};
    c.ras.inject.read_disturb_rate = 0.01;
    c.ras.lifetime.retention_tau_ns = 20'000.0;
    c.ras.lifetime.endurance_mean_flips = 2'000.0;
    c.ras.lifetime.wear_per_write_flips = 60.0;
    c.ras.spare_lines = 1'000;
    c.ras.degrade_ue_threshold = 1'000'000;
    c.write_share = 0.2;
    c.scrub_share = 0.35;
    c.gap_ns = 200.0;
    out.push_back(c);
  }
  {
    // Endurance with SAFER relief and migrations, drift off: reads of
    // never-written lines must not count as lifetime-tracked.
    MediaCase c{"endurance_with_relief", RasConfig{}};
    c.ras.lifetime.endurance_mean_flips = 400.0;
    c.ras.lifetime.wear_per_write_flips = 90.0;
    c.ras.lifetime.leveler = WearLevelerKind::kStartGap;
    c.ras.spare_lines = 1'000;
    c.lines = 96;
    c.migrate_share = 0.15;
    c.write_share = 0.35;
    out.push_back(c);
  }
  {
    // One spare: the first retirement trips the channel, and the domain
    // keeps serving degraded.
    MediaCase c{"one_spare", RasConfig{}};
    c.ras.inject.write_fail_rate = 0.05;
    c.ras.inject.read_disturb_rate = 0.05;
    c.ras.retry_limit = 1;
    c.ras.spare_lines = 1;
    c.ras.degrade_ue_threshold = 1'000'000;
    c.remap_share = 0.2;
    c.gap_ns = 10.0;
    out.push_back(c);
  }
  {
    MediaCase c{"ue_threshold_one", RasConfig{}};
    c.ras.inject.read_disturb_rate = 0.2;
    c.ras.degrade_ue_threshold = 1;
    c.ras.spare_lines = 1'000;
    c.write_share = 0.2;
    out.push_back(c);
  }
  {
    // A scripted kill mid-stream: polls and ops run past the deadline.
    MediaCase c{"kill", RasConfig{}};
    c.ras.inject.write_fail_rate = 0.02;
    c.ras.inject.read_disturb_rate = 0.02;
    c.ras.kill_channel = static_cast<int>(kChannel);
    c.ras.kill_at_ns = 40.0 * 20.0 * static_cast<double>(fuzz_writes()) / 2;
    out.push_back(c);
  }
  {
    // The whole model at once: faults, drift, endurance, migrations and
    // congested remap inflow over a hot footprint.
    MediaCase c{"everything", RasConfig{}};
    c.ras.inject.write_fail_rate = 0.05;
    c.ras.inject.stuck_rate = 0.02;
    c.ras.inject.read_disturb_rate = 0.03;
    c.ras.spare_lines = 24;
    c.ras.degrade_ue_threshold = 12;
    c.ras.lifetime.endurance_mean_flips = 900.0;
    c.ras.lifetime.wear_per_write_flips = 70.0;
    c.ras.lifetime.retention_tau_ns = 60'000.0;
    c.ras.lifetime.leveler = WearLevelerKind::kStartGap;
    c.lines = 32;
    c.gap_ns = 20.0;
    c.migrate_share = 0.1;
    c.scrub_share = 0.15;
    c.remap_share = 0.1;
    out.push_back(c);
  }
  return out;
}

/// Line address `i` of the footprint. Some are unaligned, as the closed
/// loops submit them: the domain keys lines by the exact address.
u64 line_addr(u64 i) { return i * kLineBytes + (i % 3 == 0 ? i % 5 : 0); }

// Bank time the earlier shard charged for each outcome kind.
double old_write_ns(const OldDomain::WriteOutcome& o) {
  const double tw = kWriteNs;
  double extra = 0.0;
  if (o.retries > 0) {
    extra += tw * static_cast<double>((u64{1} << o.retries) - 1);
  }
  if (o.remapped) extra += tw;
  if (o.retired) extra += kReadNs + tw;
  return extra;
}
double old_migrate_ns(const OldDomain::MigrateOutcome& o) {
  double extra = 0.0;
  if (o.remapped) extra += kWriteNs;
  if (o.retired) extra += kReadNs + kWriteNs;
  return extra;
}
double old_read_ns(const OldDomain::ReadOutcome& o) {
  return o.uncorrectable ? kReadNs + kWriteNs : 0.0;
}
double old_scrub_ns(const OldDomain::ScrubOutcome& o) {
  double extra = 0.0;
  if (o.corrected) extra += kWriteNs;
  if (o.uncorrectable || o.retired_worn) {
    extra += kReadNs + kWriteNs;
  }
  if (o.remapped) extra += kWriteNs;
  return extra;
}

/// Ops whose line already lived in a spare, per kind, over every case.
struct SpareHits {
  u64 writes = 0;
  u64 migrations = 0;
  u64 reads = 0;
  u64 scrubs = 0;
};

/// What the new domain ended a case with, for the reach check.
struct Totals {
  RasStats ras;
  LifetimeStats life;
  u64 dropped = 0;
};

/// Drives one case through both domains op for op.
void run_case(const MediaCase& c, u64 seed, usize ops, SpareHits& spares,
              Totals& totals) {
  const double copy = kReadNs + kWriteNs;
  OldDomain old_domain{c.ras, kChannel};
  FaultDomain domain{c.ras, kChannel};
  ASSERT_EQ(old_domain.lifetime() == nullptr, domain.lifetime() == nullptr)
      << c.name;
  // The earlier shard booked each migration copy's time and energy itself.
  double old_wl_busy = 0.0;
  double old_wl_energy = 0.0;
  Xoshiro256 rng{seed};
  double now = 0.0;
  const u64 max_gap = static_cast<u64>(2.0 * c.gap_ns);
  for (usize i = 0; i < ops; ++i) {
    now += static_cast<double>(rng.next_below(max_gap + 1));
    const u64 line = line_addr(rng.next_below(c.lines));
    const std::string at = c.name + " op " + std::to_string(i);
    const double u = rng.next_double();
    double share = c.write_share;
    if (u < share) {
      const auto a = old_domain.on_array_write(line, now);
      const FaultDomain::Outcome b = domain.on_array_write(line, now);
      ASSERT_EQ(a.retries, b.retries) << at;
      ASSERT_EQ(a.exhausted, b.exhausted) << at;
      ASSERT_EQ(a.remapped, b.remapped) << at;
      ASSERT_EQ(a.retired, b.retired) << at;
      ASSERT_EQ(a.spare, b.spare) << at;
      ASSERT_EQ(a.worn, b.worn) << at;
      ASSERT_FALSE(b.disturbed || b.corrected || b.uncorrectable) << at;
      ASSERT_EQ(old_write_ns(a), b.bank_ns()) << at;
      if (b.spare) ++spares.writes;
    } else if (u < (share += c.migrate_share)) {
      if (old_domain.lifetime() != nullptr) {
        old_wl_busy += copy;
        old_wl_energy += kMigrationEnergyPj;
      }
      const auto a = old_domain.on_migration_write(line, now);
      const FaultDomain::Outcome b = domain.on_migration_write(line, now, copy);
      ASSERT_EQ(a.remapped, b.remapped) << at;
      ASSERT_EQ(a.retired, b.retired) << at;
      ASSERT_FALSE(b.retries != 0 || b.exhausted || b.disturbed ||
                   b.corrected || b.uncorrectable)
          << at;
      ASSERT_EQ(old_migrate_ns(a), b.bank_ns()) << at;
      if (b.spare) ++spares.migrations;
    } else if (u < (share += c.scrub_share)) {
      // The scrub cursor's pick, or any line: a pending scrub may find
      // its line retired by the time it issues.
      u64 target = line;
      if (rng.next_bool(0.5)) {
        const std::optional<u64> a = old_domain.next_scrub_target();
        const std::optional<u64> b = domain.next_scrub_target();
        ASSERT_EQ(a, b) << at;
        if (!a) continue;
        target = *a;
      }
      const auto a = old_domain.on_scrub_read(target, now);
      const FaultDomain::Outcome b = domain.on_scrub_read(target, now);
      ASSERT_EQ(a.corrected, b.corrected) << at;
      ASSERT_EQ(a.uncorrectable, b.uncorrectable) << at;
      ASSERT_EQ(a.remapped, b.remapped) << at;
      ASSERT_EQ(a.retired_worn, b.retired && !b.uncorrectable) << at;
      ASSERT_FALSE(b.retries != 0 || b.exhausted) << at;
      ASSERT_EQ(old_scrub_ns(a), b.bank_ns()) << at;
      if (b.spare) ++spares.scrubs;
    } else if (u < (share += c.remap_share)) {
      ASSERT_EQ(old_domain.on_remap_in(now), domain.on_remap_in(now)) << at;
    } else if (rng.next_bool(0.05)) {
      old_domain.poll(now);
      domain.poll(now);
    } else {
      const auto a = old_domain.on_demand_read(line, now);
      const FaultDomain::Outcome b = domain.on_demand_read(line, now);
      ASSERT_EQ(a.disturbed, b.disturbed) << at;
      ASSERT_EQ(a.uncorrectable, b.uncorrectable) << at;
      ASSERT_EQ(b.uncorrectable, b.retired) << at;
      ASSERT_FALSE(b.retries != 0 || b.exhausted || b.worn || b.corrected ||
                   b.remapped)
          << at;
      ASSERT_EQ(old_read_ns(a), b.bank_ns()) << at;
      if (b.spare) ++spares.reads;
    }
    ASSERT_EQ(old_domain.stats(), domain.stats()) << at;
    ASSERT_EQ(old_domain.degraded(), domain.degraded()) << at;
    ASSERT_EQ(old_domain.lines_touched(), domain.lines_touched()) << at;
    if (domain.lifetime() != nullptr) {
      LifetimeStats expected = old_domain.lifetime()->stats();
      expected.wl_busy_ns = old_wl_busy;
      expected.wl_energy_pj = old_wl_energy;
      ASSERT_EQ(expected, domain.lifetime()->stats()) << at;
    }
  }
  EXPECT_EQ(old_domain.events(), domain.events()) << c.name;
  EXPECT_EQ(old_domain.events_dropped(), domain.events_dropped()) << c.name;
  totals = {domain.stats(), {}, domain.events_dropped()};
  if (domain.lifetime() != nullptr) totals.life = domain.lifetime()->stats();
}

TEST(FaultDomainDifferential, MatchesTheEarlierMediaModelOpForOp) {
  const usize ops = static_cast<usize>(20 * fuzz_writes());
  SpareHits spares;
  RasStats ras;
  LifetimeStats life;
  u64 dropped = 0;
  u64 degraded = 0;
  u64 seed = 40;
  for (const MediaCase& c : cases()) {
    Totals t;
    run_case(c, ++seed, ops, spares, t);
    if (HasFatalFailure()) return;
    ras.merge(t.ras);
    life.merge(t.life);
    dropped += t.dropped;
    degraded += t.ras.degraded;
  }
  // The comparison proves nothing about a mechanism no case runs.
  EXPECT_GT(ras.retry_exhausted, 0u);
  EXPECT_GT(ras.stuck_cells, 0u);
  EXPECT_GT(ras.safer_remaps, 0u);
  EXPECT_GT(ras.retired_lines, 0u);
  EXPECT_GT(ras.scrub_corrections, 0u);
  EXPECT_GT(ras.ue_demand, 0u);
  EXPECT_GT(ras.ue_scrub, 0u);
  EXPECT_GT(ras.remap_backoff, 0u);
  EXPECT_GE(degraded, 3u);  // spares, UE threshold, kill
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(life.worn_lines, 0u);
  EXPECT_GT(life.wear_safer, 0u);
  EXPECT_GT(life.wear_retired, 0u);
  EXPECT_GT(life.drift_errors, 0u);
  EXPECT_GT(life.wl_busy_ns, 0.0);
  EXPECT_GT(spares.writes, 0u);
  EXPECT_GT(spares.migrations, 0u);
  EXPECT_GT(spares.reads, 0u);
  EXPECT_GT(spares.scrubs, 0u);
}

}  // namespace
}  // namespace nvmenc
