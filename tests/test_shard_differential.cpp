// The channel shard's incremental arbiter against its full-scan oracle
// (reference_shard.hpp): the cached wake time, the per-bank wake scan and
// the early-stopping read scan must leave every schedule unchanged.
//
// Both engines see the same seeded streams: open-loop arrivals with
// bursts, hot lines and sequential runs through the MemorySystem router;
// a closed loop whose arrivals follow completions; single shards pumped
// with mid-run drains and remapped inflow; and the epoch engine at 1 and
// 4 workers against a serial loop over reference shards. Each case
// asserts the same completion sequence (ticket, time, kind, forwarded)
// and equal MemSysStats, TimingStats and RasReport. The cases run the one
// geometry and scheduler policy (nvm/timing.hpp, memory_system.hpp) under
// contended banks, write bursts that fill the queue and park, a read
// backlog past the starvation cap, faults with scrub, a channel kill and
// its remapped inflow, and aging with Start-Gap. NVMENC_FUZZ_WRITES
// scales the stream lengths: ten
// arrivals per unit, 300 units by default. The full-scan oracle's cost
// grows with the square of a saturated queue, so longer runs are for
// local soak tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memsys/channel_shard.hpp"
#include "memsys/memory_system.hpp"
#include "memsys/trace_replay.hpp"
#include "reference_shard.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

using testutil::ReferenceShard;
using testutil::ReferenceSystem;

constexpr double kInf = std::numeric_limits<double>::infinity();

u64 fuzz_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 300;  // tier-1 budget
}

/// Arrivals per stream: 10 per unit of the fuzz budget.
usize stream_length() { return static_cast<usize>(10 * fuzz_writes()); }

/// One named memory configuration plus the traffic it is driven with.
struct Case {
  std::string name;
  MemSysConfig mem;
  double gap_ns = 20.0;        ///< mean spacing of arrival groups
  usize burst = 1;             ///< arrivals sharing one time, at most
  double read_fraction = 0.6;
  u64 footprint_lines = u64{1} << 14;
  u64 hot_lines = 0;           ///< hot set (forwarding, coalescing)
  double hot_share = 0.0;
  double seq_share = 0.3;      ///< share continuing a sequential run
};

MemSysConfig geometry(usize channels) {
  MemSysConfig mem;
  mem.org.channels = channels;
  return mem;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const double gap : {60.0, 12.0}) {
    // Light and contended traffic over the banks of two channels.
    Case c{"gap" + std::to_string(static_cast<int>(gap)), geometry(2)};
    c.mem.org.encode_latency_ns = 3.47;
    c.gap_ns = gap;
    c.burst = 3;
    out.push_back(c);
  }
  {
    // A small hot set: reads forward from queued writes, writes coalesce.
    Case c{"hot_lines", geometry(2)};
    c.gap_ns = 15.0;
    c.read_fraction = 0.5;
    c.hot_lines = 24;
    c.hot_share = 0.5;
    out.push_back(c);
  }
  {
    // Write bursts that fill the queue: drains, parked writers, backlog.
    Case c{"write_bursts", geometry(2)};
    c.gap_ns = 40.0;
    c.burst = 24;
    c.read_fraction = 0.25;
    out.push_back(c);
  }
  {
    // Saturated reads: the queue grows and the starvation cap decides.
    Case c{"read_backlog", geometry(1)};
    c.gap_ns = 6.0;
    c.burst = 4;
    c.read_fraction = 0.8;
    c.seq_share = 0.6;
    out.push_back(c);
  }
  {
    // Faulty media with scrub, a scripted kill and the survivors' remapped
    // inflow; few spares, so exhaustion trips channels too.
    Case c{"ras", geometry(4)};
    c.mem.org.encode_latency_ns = 3.47;
    c.mem.ras.inject.seed = 0xD1FF;
    c.mem.ras.inject.write_fail_rate = 0.03;
    c.mem.ras.inject.read_disturb_rate = 0.02;
    c.mem.ras.inject.stuck_rate = 0.004;
    c.mem.ras.spare_lines = 8;
    c.mem.ras.scrub_interval_ns = 1'500.0;
    c.mem.ras.kill_channel = 1;
    c.mem.ras.kill_at_ns = 8'000.0;
    c.gap_ns = 10.0;
    c.burst = 2;
    c.hot_lines = 64;
    c.hot_share = 0.2;
    out.push_back(c);
  }
  {
    // Aging with Start-Gap: migrations hold banks inside submit.
    Case c{"lifetime_start_gap", geometry(2)};
    c.mem.ras.scrub_interval_ns = 3'000.0;
    c.mem.ras.lifetime.endurance_mean_flips = 150.0;
    c.mem.ras.lifetime.wear_per_write_flips = 90.0;
    c.mem.ras.lifetime.retention_tau_ns = 200'000.0;
    c.mem.ras.lifetime.leveler = WearLevelerKind::kStartGap;
    c.mem.ras.lifetime.wl_interval = 16;
    c.mem.ras.lifetime.wl_region_lines = 64;
    c.gap_ns = 14.0;
    c.read_fraction = 0.5;
    c.footprint_lines = 4'096;
    c.hot_lines = 128;
    c.hot_share = 0.3;
    out.push_back(c);
  }
  return out;
}

struct Arrival {
  double time_ns = 0.0;
  u64 line_addr = 0;
  ReqKind kind = ReqKind::kRead;
};

/// Arrival groups on an integer-ns grid (so arrivals tie with each other
/// and with completions), each group up to `burst` long.
std::vector<Arrival> make_arrivals(const Case& c, u64 seed, usize n) {
  Xoshiro256 rng{seed};
  std::vector<Arrival> out;
  out.reserve(n);
  double now = 0.0;
  u64 seq = 0;
  const u64 max_gap = static_cast<u64>(2.0 * c.gap_ns);
  while (out.size() < n) {
    now += static_cast<double>(rng.next_below(max_gap + 1));
    const usize group = 1 + static_cast<usize>(rng.next_below(c.burst));
    for (usize g = 0; g < group && out.size() < n; ++g) {
      const double u = rng.next_double();
      u64 line = 0;
      if (u < c.hot_share) {
        line = rng.next_below(c.hot_lines);
      } else if (u < c.hot_share + c.seq_share) {
        line = ++seq % c.footprint_lines;
      } else {
        line = rng.next_below(c.footprint_lines);
        seq = line;
      }
      out.push_back({now, line * kLineBytes,
                     rng.next_bool(c.read_fraction) ? ReqKind::kRead
                                                    : ReqKind::kWrite});
    }
  }
  return out;
}

/// What one engine produced for one stream.
struct Outcome {
  std::vector<MemSysCompletion> completions;
  std::vector<double> drains;  ///< drain_all's return values
  MemSysStats stats;
  TimingStats timing;
  RasReport ras;
};

void expect_same(const Outcome& ref, const Outcome& got,
                 const std::string& what) {
  ASSERT_EQ(ref.completions.size(), got.completions.size()) << what;
  for (usize i = 0; i < ref.completions.size(); ++i) {
    const MemSysCompletion& a = ref.completions[i];
    const MemSysCompletion& b = got.completions[i];
    ASSERT_TRUE(a.ticket == b.ticket && a.time_ns == b.time_ns &&
                a.kind == b.kind && a.forwarded == b.forwarded)
        << what << ": completion " << i << " differs: reference ticket "
        << a.ticket << " at " << a.time_ns << " ns, got ticket " << b.ticket
        << " at " << b.time_ns << " ns";
  }
  EXPECT_EQ(ref.drains, got.drains) << what;
  EXPECT_EQ(ref.stats, got.stats) << what;
  EXPECT_EQ(ref.timing, got.timing) << what;
  EXPECT_EQ(ref.ras, got.ras) << what;
}

template <typename System>
Outcome finish(System& sys, Outcome run) {
  run.drains.push_back(sys.drain_all());
  run.stats = sys.stats();
  run.timing = sys.timing_stats();
  run.ras = sys.ras_report();
  return run;
}

/// Open loop through the router: every completion due is taken before an
/// arrival, and now and then the pump stops short of it first (a bound
/// that splits a pump must not change the schedule). With RAS on, health
/// is polled and the arrival routed around degraded channels at each
/// submit, as run_load does.
template <typename System>
Outcome router_open_loop(const Case& c, const std::vector<Arrival>& arrivals,
                         u64 seed) {
  System sys{c.mem};
  Xoshiro256 rng{seed};
  Outcome run;
  const auto pump = [&](double t) {
    while (const auto comp = sys.step_until(t)) {
      run.completions.push_back(*comp);
    }
  };
  for (const Arrival& a : arrivals) {
    if (rng.next_bool(0.2)) pump(a.time_ns - 40.0 * rng.next_double());
    pump(a.time_ns);
    u64 addr = a.line_addr;
    bool remapped = false;
    if (c.mem.ras.enabled()) {
      sys.poll_ras(a.time_ns);
      const u64 routed = sys.route_for_degradation(addr);
      remapped = routed != addr;
      addr = routed;
    }
    (void)sys.submit(addr, a.kind, a.time_ns, remapped);
  }
  pump(kInf);
  return finish(sys, std::move(run));
}

/// Closed loop through the router: `users` users, each with one request
/// outstanding, the next one arriving a seeded think time after its
/// completion — arrivals that depend on the schedule itself.
template <typename System>
Outcome router_closed_loop(const Case& c, u64 seed, usize users,
                           usize requests) {
  System sys{c.mem};
  Xoshiro256 rng{seed};
  Outcome run;
  struct Next {
    double time_ns;
    usize user;
    bool operator>(const Next& o) const noexcept {
      return time_ns != o.time_ns ? time_ns > o.time_ns : user > o.user;
    }
  };
  std::priority_queue<Next, std::vector<Next>, std::greater<>> arrivals;
  for (usize u = 0; u < users; ++u) {
    arrivals.push({static_cast<double>(rng.next_below(50)), u});
  }
  std::vector<std::pair<u64, usize>> inflight;  // ticket -> user
  usize issued = 0;
  u64 seq = 0;
  while (issued < requests || !inflight.empty()) {
    const double next = arrivals.empty() ? kInf : arrivals.top().time_ns;
    if (const auto comp = sys.step_until(next)) {
      run.completions.push_back(*comp);
      for (usize i = 0; i < inflight.size(); ++i) {
        if (inflight[i].first != comp->ticket) continue;
        const double think =
            static_cast<double>(rng.next_below(static_cast<u64>(c.gap_ns)));
        arrivals.push({comp->time_ns + think, inflight[i].second});
        inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      continue;
    }
    if (arrivals.empty()) break;
    const Next arr = arrivals.top();
    arrivals.pop();
    if (issued >= requests) continue;
    const double u = rng.next_double();
    u64 line = 0;
    if (u < c.hot_share) {
      line = rng.next_below(c.hot_lines);
    } else if (u < c.hot_share + c.seq_share) {
      line = ++seq % c.footprint_lines;
    } else {
      line = rng.next_below(c.footprint_lines);
    }
    u64 addr = line * kLineBytes;
    const ReqKind kind =
        rng.next_bool(c.read_fraction) ? ReqKind::kRead : ReqKind::kWrite;
    bool remapped = false;
    if (c.mem.ras.enabled()) {
      sys.poll_ras(arr.time_ns);
      const u64 routed = sys.route_for_degradation(addr);
      remapped = routed != addr;
      addr = routed;
    }
    inflight.emplace_back(sys.submit(addr, kind, arr.time_ns, remapped),
                          arr.user);
    ++issued;
  }
  return finish(sys, std::move(run));
}

RasReport report_of(const std::vector<ChannelShard>& shards) {
  return collect_ras_report(shards);
}
RasReport report_of(const std::vector<ReferenceShard>& shards) {
  return testutil::collect_reference_ras_report(shards);
}

/// One shard pumped directly, as the sharded engines do, with arrivals
/// pinned to its channel. Now and then a whole drain_all runs mid-stream,
/// and with RAS on some arrivals come in as remapped inflow.
template <typename Shard>
Outcome shard_loop(const Case& c, usize channel,
               const std::vector<Arrival>& arrivals, u64 seed) {
  std::vector<Shard> shards;
  shards.emplace_back(c.mem, channel);
  Shard& shard = shards.front();
  Xoshiro256 rng{seed};
  Outcome run;
  const auto pump = [&](double t) {
    while (const auto comp = shard.step_until(t)) {
      run.completions.push_back(*comp);
    }
  };
  for (const Arrival& a : arrivals) {
    if (rng.next_bool(0.002)) run.drains.push_back(shard.drain_all());
    pump(a.time_ns);
    const bool remapped = c.mem.ras.enabled() && rng.next_bool(0.1);
    shard.poll_ras(a.time_ns);
    (void)shard.submit(pin_line_to_channel(c.mem.org, a.line_addr, channel),
                       a.kind, a.time_ns, remapped);
  }
  pump(kInf);
  run.drains.push_back(shard.drain_all());
  run.stats = shard.stats();
  run.timing = shard.timing_stats();
  run.ras = report_of(shards);
  return run;
}

/// The epoch engine's contract (memsys/open_loop.hpp) as a serial loop over
/// reference shards: arrival i at i * inter_arrival_ns, health polled and
/// the routing mask refreshed every epoch_accesses arrivals.
TraceReplayResult reference_epoch_loop(const std::vector<MemAccess>& trace,
                                       const TraceReplayConfig& replay,
                                       const MemSysConfig& mem) {
  ReferenceSystem sys{mem};
  std::vector<u8> degraded;
  bool any_degraded = false;
  for (u64 i = 0; i < trace.size(); ++i) {
    const double now = static_cast<double>(i) * replay.inter_arrival_ns;
    while (sys.step_until(now)) {
    }
    if (mem.ras.enabled() && i % replay.epoch_accesses == 0) {
      sys.poll_ras(now);
      degraded = sys.degraded_mask();
      any_degraded = std::find(degraded.begin(), degraded.end(), u8{1}) !=
                     degraded.end();
    }
    u64 addr = trace[i].line_addr();
    bool remapped = false;
    if (any_degraded && degraded[channel_of_line(mem.org, addr)] != 0) {
      const u64 routed = ras_remap_line(mem.org, addr, degraded);
      remapped = routed != addr;
      addr = routed;
    }
    (void)sys.submit(
        addr, trace[i].op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
        now, remapped);
  }
  TraceReplayResult result;
  result.makespan_ns = sys.drain_all();
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  result.accesses = trace.size();
  return result;
}

TEST(ShardDifferential, RouterOpenLoopMatchesFullScan) {
  const usize n = stream_length();
  u64 seed = 1;
  for (const Case& c : cases()) {
    ++seed;
    const std::vector<Arrival> arrivals = make_arrivals(c, seed, n);
    const Outcome ref = router_open_loop<ReferenceSystem>(c, arrivals, seed);
    const Outcome got = router_open_loop<MemorySystem>(c, arrivals, seed);
    EXPECT_GT(ref.completions.size(), n / 2) << c.name;
    expect_same(ref, got, c.name);
  }
}

TEST(ShardDifferential, RouterClosedLoopMatchesFullScan) {
  const usize n = stream_length();
  u64 seed = 100;
  for (const Case& c : cases()) {
    ++seed;
    for (const usize users : {usize{1}, usize{7}, usize{32}}) {
      const std::string what = c.name + " users=" + std::to_string(users);
      const Outcome ref =
          router_closed_loop<ReferenceSystem>(c, seed, users, n);
      const Outcome got = router_closed_loop<MemorySystem>(c, seed, users, n);
      EXPECT_EQ(ref.completions.size(), n) << what;
      expect_same(ref, got, what);
    }
  }
}

TEST(ShardDifferential, ShardPumpMatchesFullScan) {
  const usize n = stream_length();
  u64 seed = 200;
  for (const Case& c : cases()) {
    ++seed;
    const std::vector<Arrival> arrivals = make_arrivals(c, seed, n);
    const usize channel = c.mem.org.channels - 1;
    const Outcome ref = shard_loop<ReferenceShard>(c, channel, arrivals, seed);
    const Outcome got = shard_loop<ChannelShard>(c, channel, arrivals, seed);
    expect_same(ref, got, c.name);
  }
}

TEST(ShardDifferential, EpochEngineMatchesFullScanAtAnyJobs) {
  SyntheticWorkload workload{profile_by_name("gcc"), 17};
  std::vector<MemAccess> trace;
  const usize n = 4 * stream_length();
  trace.reserve(n);
  for (usize i = 0; i < n; ++i) trace.push_back(workload.next());
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 6.0;
  replay.epoch_accesses = 400;
  for (const Case& c : cases()) {
    const TraceReplayResult ref = reference_epoch_loop(trace, replay, c.mem);
    for (const usize jobs : {usize{1}, usize{4}}) {
      EXPECT_EQ(ref, replay_trace_sharded(trace, replay, c.mem, jobs))
          << c.name << " jobs=" << jobs;
    }
  }
}

TEST(ShardDifferential, CasesReachEveryMechanism) {
  // The oracle comparison proves nothing about a mechanism no case runs.
  MemSysStats total;
  RasStats ras;
  LifetimeStats life;
  const usize n = stream_length();
  u64 seed = 1;
  for (const Case& c : cases()) {
    ++seed;
    const Outcome run =
        router_open_loop<MemorySystem>(c, make_arrivals(c, seed, n), seed);
    total.merge(run.stats);
    if (run.ras.any()) ras.merge(run.ras.totals());
    if (run.ras.lifetime_any()) life.merge(run.ras.lifetime_totals());
  }
  EXPECT_GT(total.forwarded_reads, 0u);
  EXPECT_GT(total.coalesced_writes, 0u);
  EXPECT_GT(total.write_stalls, 0u);
  EXPECT_GT(total.drains, 0u);
  // Some read waited past the starvation cap, so the age-capped pick ran.
  EXPECT_GT(total.read_latency_ns.max(), kStarvationCapNs);
  EXPECT_GT(ras.scrub_reads, 0u);
  EXPECT_GT(ras.remapped_in, 0u);
  EXPECT_GT(ras.degraded, 0u);
  EXPECT_GT(life.wl_moves, 0u);
}

}  // namespace
}  // namespace nvmenc
