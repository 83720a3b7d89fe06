// run_to_failure on the open-loop engine vs the serial loop it replaced
// (tests/reference_replay.hpp): every AgingResult field — stop index,
// passes, failure markers, the capacity curve, stats, RAS report — and
// every rendered table must match, for both access sources (a looped trace
// and the keyed synthetic stream) and each stop rule, across channel
// kills, wear leveling, drift with scrub, and epoch/pass alignments.
#include "memsys/aging.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "memsys/report.hpp"
#include "reference_replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> accesses;
  accesses.reserve(n);
  for (usize i = 0; i < n; ++i) accesses.push_back(workload.next());
  return accesses;
}

/// Every table `--run-to-failure` prints, concatenated.
std::string render(const AgingConfig& aging, const AgingResult& r) {
  std::ostringstream out;
  aging_table(aging, r).print(out);
  capacity_curve_table(r).print(out);
  ras_table(r.ras).print(out);
  lifetime_table(r.ras).print(out);
  ras_events_table(r.ras).print(out);
  return out.str();
}

void expect_same(const AgingConfig& aging, const AgingResult& got,
                 const AgingResult& want) {
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.passes, want.passes);
  EXPECT_EQ(got.total_array_writes, want.total_array_writes);
  EXPECT_EQ(got.writes_to_first_retirement, want.writes_to_first_retirement);
  EXPECT_EQ(got.first_retirement_ns, want.first_retirement_ns);
  EXPECT_EQ(got.writes_to_first_trip, want.writes_to_first_trip);
  EXPECT_EQ(got.first_trip_ns, want.first_trip_ns);
  EXPECT_EQ(got.stop, want.stop);
  EXPECT_EQ(got.curve, want.curve);
  EXPECT_EQ(got.stats, want.stats);
  EXPECT_EQ(got.timing, want.timing);
  EXPECT_EQ(got.ras, want.ras);
  EXPECT_EQ(got.makespan_ns, want.makespan_ns);
  EXPECT_EQ(got, want);  // any field added later
  EXPECT_EQ(render(aging, got), render(aging, want));
}

/// Wears out within tens of passes of a 2000-access gcc stream.
MemSysConfig wearing_mem(usize channels) {
  MemSysConfig mem;
  mem.org.channels = channels;
  mem.ras.spare_lines = 4;
  mem.ras.lifetime.endurance_mean_flips = 5e4;
  mem.ras.lifetime.wear_per_write_flips = 256.0;
  return mem;
}

AgingResult trace_case(const std::vector<MemAccess>& stream,
                       const AgingConfig& aging, const MemSysConfig& mem) {
  const AgingResult got = run_to_failure(stream, aging, mem);
  expect_same(aging, got, testutil::run_to_failure(stream, aging, mem));
  return got;
}

AgingResult keyed_case(const LoadGenConfig& load, const AgingConfig& aging,
                       const MemSysConfig& mem) {
  const AgingResult got = run_to_failure(load, aging, mem);
  expect_same(aging, got, testutil::run_to_failure(load, aging, mem));
  return got;
}

TEST(RunToFailureDifferentialTest, TraceSourceUnderEachUntil) {
  const std::vector<MemAccess> stream = make_stream(31, 2000);
  for (const usize channels : {usize{2}, usize{4}}) {
    for (const AgingUntil until :
         {AgingUntil::kRetirement, AgingUntil::kTrip, AgingUntil::kFloor}) {
      SCOPED_TRACE(std::to_string(channels) + " channels, until " +
                   aging_until_name(until));
      AgingConfig aging;
      aging.epoch_accesses = 400;
      aging.max_passes = 400;
      aging.until = until;
      aging.capacity_floor = 0.9;
      const AgingResult r = trace_case(stream, aging, wearing_mem(channels));
      EXPECT_NE(r.stop, AgingStop::kMaxPasses);
    }
  }
}

TEST(RunToFailureDifferentialTest, KeyedSourceAtTwoAndFourChannels) {
  LoadGenConfig load;
  load.requests = 3'000;
  load.footprint_lines = 512;
  load.read_fraction = 0.5;
  load.seed = 77;
  for (const usize channels : {usize{2}, usize{4}}) {
    SCOPED_TRACE(std::to_string(channels) + " channels");
    AgingConfig aging;
    aging.epoch_accesses = 500;
    aging.max_passes = 400;
    const AgingResult r = keyed_case(load, aging, wearing_mem(channels));
    EXPECT_EQ(r.stop, AgingStop::kFirstRetirement);
  }
}

TEST(RunToFailureDifferentialTest, MidRunChannelKill) {
  const std::vector<MemAccess> stream = make_stream(37, 2000);
  AgingConfig aging;
  aging.epoch_accesses = 400;
  aging.max_passes = 400;
  MemSysConfig mem = wearing_mem(4);
  mem.ras.kill_channel = 2;
  mem.ras.kill_at_ns = 30'000.0;  // early in pass 2 at 10 ns spacing
  const AgingResult r = trace_case(stream, aging, mem);
  EXPECT_EQ(r.ras.totals().degraded, 1u);
  EXPECT_GT(r.writes_to_first_trip, 0u);
  EXPECT_EQ(r.stop, AgingStop::kFirstRetirement);
}

TEST(RunToFailureDifferentialTest, StartGapLeveler) {
  const std::vector<MemAccess> stream = make_stream(41, 2000);
  AgingConfig aging;
  aging.epoch_accesses = 400;
  aging.max_passes = 400;
  MemSysConfig mem = wearing_mem(2);
  mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
  mem.ras.lifetime.wl_interval = 16;
  mem.ras.lifetime.wl_region_lines = 64;
  const AgingResult r = trace_case(stream, aging, mem);
  EXPECT_GT(r.ras.lifetime_totals().wl_moves, 0u);
  EXPECT_NE(r.stop, AgingStop::kMaxPasses);
}

TEST(RunToFailureDifferentialTest, DriftWithScrub) {
  const std::vector<MemAccess> stream = make_stream(43, 2000);
  AgingConfig aging;
  aging.epoch_accesses = 400;
  aging.max_passes = 400;
  aging.until = AgingUntil::kTrip;  // age on past the first retirements
  MemSysConfig mem = wearing_mem(2);
  mem.ras.lifetime.retention_tau_ns = 5e6;
  mem.ras.scrub_interval_ns = 20'000.0;
  const AgingResult r = trace_case(stream, aging, mem);
  EXPECT_GT(r.ras.totals().scrub_corrections, 0u);
  EXPECT_EQ(r.stop, AgingStop::kFirstTrip);
}

TEST(RunToFailureDifferentialTest, EpochThatDoesNotDivideThePass) {
  const std::vector<MemAccess> stream = make_stream(47, 1000);
  AgingConfig aging;
  aging.epoch_accesses = 300;
  aging.max_passes = 800;
  const AgingResult r = trace_case(stream, aging, wearing_mem(2));
  EXPECT_NE(r.stop, AgingStop::kMaxPasses);
  EXPECT_NE(r.accesses % stream.size(), 0u);  // stopped mid-pass
}

TEST(RunToFailureDifferentialTest, StopExactlyOnAPassBoundary) {
  // Epoch == pass: every stop index is a pass boundary, so the run stops
  // at access 0 of a pass it counts as started.
  const std::vector<MemAccess> stream = make_stream(53, 1000);
  AgingConfig aging;
  aging.epoch_accesses = stream.size();
  aging.max_passes = 800;
  const AgingResult r = trace_case(stream, aging, wearing_mem(2));
  EXPECT_NE(r.stop, AgingStop::kMaxPasses);
  ASSERT_GT(r.accesses, 0u);
  EXPECT_EQ(r.accesses % stream.size(), 0u);
  EXPECT_EQ(r.passes, r.accesses / stream.size() + 1);
}

TEST(RunToFailureDifferentialTest, PassBudgetRunsOutBeforeAnyFailure) {
  const std::vector<MemAccess> stream = make_stream(59, 1500);
  AgingConfig aging;
  aging.epoch_accesses = 400;
  aging.max_passes = 3;
  MemSysConfig mem = wearing_mem(2);
  mem.ras.lifetime.endurance_mean_flips = 1e9;
  const AgingResult r = trace_case(stream, aging, mem);
  EXPECT_EQ(r.stop, AgingStop::kMaxPasses);
  EXPECT_EQ(r.passes, 3u);
  EXPECT_EQ(r.accesses, 3u * stream.size());
  EXPECT_EQ(r.writes_to_first_retirement, 0u);
}

TEST(RunToFailureDifferentialTest, KillAtTheMakespan) {
  // Every array operation polls its channel's health when it starts, so
  // a kill at the makespan lands after all of them and after every epoch
  // boundary: only the health poll that follows the final drain sees it.
  const std::vector<MemAccess> stream = make_stream(67, 1500);
  AgingConfig aging;
  aging.epoch_accesses = 400;
  aging.max_passes = 3;
  MemSysConfig mem = wearing_mem(2);
  mem.ras.lifetime.endurance_mean_flips = 1e9;
  mem.ras.kill_channel = 1;
  mem.ras.kill_at_ns = 1e18;  // never: find the makespan first
  mem.ras.kill_at_ns =
      testutil::run_to_failure(stream, aging, mem).makespan_ns;
  const AgingResult r = trace_case(stream, aging, mem);
  EXPECT_EQ(r.stop, AgingStop::kMaxPasses);
  EXPECT_EQ(r.makespan_ns, mem.ras.kill_at_ns);
  EXPECT_EQ(r.ras.totals().degraded, 1u);
  EXPECT_EQ(r.first_trip_ns, r.makespan_ns);
}

TEST(RunToFailureDifferentialTest, MaxPassesAtTheU64LimitDoesNotWrap) {
  // max_passes * pass length overflows u64: the budget clamps to 2^64 - 1
  // accesses ("until failure") instead of wrapping. With a 1024-access
  // pass, 2^54 + 1 passes would wrap to a budget of one pass.
  const std::vector<MemAccess> stream = make_stream(61, 1024);
  for (const u64 passes :
       {std::numeric_limits<u64>::max(), (u64{1} << 54) + 1}) {
    SCOPED_TRACE("max_passes " + std::to_string(passes));
    AgingConfig aging;
    aging.epoch_accesses = 400;
    aging.max_passes = passes;
    const AgingResult r = trace_case(stream, aging, wearing_mem(2));
    EXPECT_EQ(r.stop, AgingStop::kFirstRetirement);
    EXPECT_GT(r.passes, 1u);
  }
}

}  // namespace
}  // namespace nvmenc
