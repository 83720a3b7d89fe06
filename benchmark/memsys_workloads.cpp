// memsys-open-knee and memsys-closed-ras: the timing memory system
// (MemorySystem router -> ChannelShard FR-FCFS -> RAS / lifetime), which
// prices writes with calibrated per-scheme costs and never sees a data bit.
//
// memsys-open-knee is an open loop in virtual time: a gcc trace file is
// replayed through the sharded engine with one arrival every 4 ns (16 GB/s
// offered), the knee where write drains, forwarding and coalescing all run
// while the cache and the encoders are bypassed. Read latency is counted
// from each arrival's due time by construction (arrival i is due at
// i * 4 ns), and writes parked on a full queue count as write_stalls.
//
// memsys-closed-ras is a closed loop: 32 users with zipfian hot lines on
// the serial MemorySystem router (the CLI's --jobs=1 path), with the RAS
// layer and the lifetime engine on. It is the only workload that runs the
// RAS and lifetime bookkeeping. Retention drift is left out: with drift on
// a faulty gcc replay degrades three of four channels and then stops
// making progress (the repro is in benchmark/README.md).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/trace_replay.hpp"
#include "report.hpp"
#include "trace/synthetic.hpp"
#include "tracer.hpp"

namespace nvmenc::bench {
namespace {

constexpr usize kChannels = 4;
constexpr usize kJobs = 2;

/// A file under the build directory that is removed when it goes out of
/// scope, so a run leaves no multi-hundred-MB trace behind.
class TempFile {
 public:
  explicit TempFile(std::string path) : path_{std::move(path)} {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

void record_latency(const MemSysStats& stats, Report& report) {
  report.add("sim_gbps", "GB/s", true, MetricKind::kSimulated,
             {stats.sustained_gbps()});
  const LatencyHistogram& h = stats.read_latency_ns;
  const std::string n = "n=" + std::to_string(h.count()) + " reads";
  report.add("read_p50_ns", "ns", false, MetricKind::kSimulated,
             {h.p50()}, n);
  report.add("read_p99_ns", "ns", false, MetricKind::kSimulated,
             {h.p99()}, n);
  report.add("read_p999_ns", "ns", false, MetricKind::kSimulated,
             {h.p999()}, n);
}

/// Scheduler counters both memsys workloads report in the traced run.
void record_scheduler(const MemSysStats& stats, const TimingStats& timing,
                      u64 requests, Report& report) {
  report.layer("memsys.row_hit_rate", "fraction", timing.row_hit_rate());
  report.layer("memsys.forwarded_frac", "fraction",
               static_cast<double>(stats.forwarded_reads) /
                   static_cast<double>(stats.reads));
  report.layer("memsys.coalesced_frac", "fraction",
               static_cast<double>(stats.coalesced_writes) /
                   static_cast<double>(stats.writes));
  report.layer("memsys.drains_per_mreq", "count",
               static_cast<double>(stats.drains) * 1e6 /
                   static_cast<double>(requests));
  report.layer("memsys.write_stalls", "count",
               static_cast<double>(stats.write_stalls));
}

// ---------------------------------------------------------------------------
// memsys-open-knee

struct KneeLoop {
  CallTimer submit;
  CallTimer step;
  MemSysStats stats;
  TimingStats timing;
};

/// The serial schedule of replay_trace_sharded (RAS off), rebuilt from
/// ChannelShard calls so each submit and step_until can be timed: epochs
/// of contiguous arrivals, every shard scanning the epoch's slice for its
/// own channel, statistics merged in channel-id order.
KneeLoop traced_shard_loop(const MappedTrace& trace,
                           const TraceReplayConfig& rc,
                           const MemSysConfig& mem) {
  KneeLoop out;
  std::vector<ChannelShard> shards;
  for (usize c = 0; c < mem.org.channels; ++c) shards.emplace_back(mem, c);
  const u64 count = trace.size();
  for (u64 base = 0; base < count; base += rc.epoch_accesses) {
    const u64 end = std::min(count, base + rc.epoch_accesses);
    for (usize c = 0; c < shards.size(); ++c) {
      ChannelShard& shard = shards[c];
      for (u64 i = base; i < end; ++i) {
        const MemAccess a = trace[i];
        const u64 addr = a.line_addr();
        if (channel_of_line(mem.org, addr) != c) continue;
        const double now = static_cast<double>(i) * rc.inter_arrival_ns;
        while (out.step.time(
            [&] { return shard.step_until(now).has_value(); })) {
        }
        out.submit.time([&] {
          return shard.submit(
              addr, a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite, now);
        });
      }
    }
  }
  for (ChannelShard& shard : shards) {
    (void)shard.drain_all();
    out.stats.merge(shard.stats());
    out.timing.merge(shard.timing_stats());
  }
  return out;
}

void traced_knee(const Options& o, const MappedTrace& trace,
                 const TraceReplayConfig& rc, const MemSysConfig& mem,
                 Report& report) {
  const double n = static_cast<double>(trace.size());
  const std::string rep = o.workload + "/rep0";

  // Untraced references: the serial and the 2-worker schedule of the
  // same engine, which must agree bit for bit.
  double t0 = now_s();
  const TraceReplayResult serial = replay_trace_sharded(trace, rc, mem, 1);
  const double t1_ns = (now_s() - t0) * 1e9;
  t0 = now_s();
  const TraceReplayResult pooled = replay_trace_sharded(trace, rc, mem, kJobs);
  const double t2_ns = (now_s() - t0) * 1e9;
  report.check(serial == pooled, "jobs=1 and jobs=2 replays are identical");

  Tracer tracer;
  double scan_ns = 0.0;
  double draw_ns = 0.0;
  const u64 draws = trace.size() / 10;
  KneeLoop loop;
  double loop_ns = 0.0;
  tracer.run("replay", "sim", rep, [&](u64) {
    draw_ns = tracer.run("trace.draw", "trace", rep, [&](u64 id) {
      SyntheticWorkload source{profile_by_name("gcc"), o.seed};
      u64 sum = 0;
      for (u64 i = 0; i < draws; ++i) sum += source.next().addr;
      tracer.arg(id, "checksum", static_cast<double>(sum % 1'000'003));
    });
    // replay_gate's anchor: the irreducible cost of touching the trace.
    scan_ns = tracer.run("trace.scan", "trace", rep, [&](u64 id) {
      u64 sum = 0;
      for (usize i = 0; i < trace.size(); ++i) {
        const MemAccess a = trace[i];
        sum += a.line_addr() ^ static_cast<u64>(a.op);
      }
      tracer.arg(id, "checksum", static_cast<double>(sum % 1'000'003));
    });
    loop_ns = tracer.run("memsys.shard_loop", "memsys", rep, [&](u64 id) {
      loop = traced_shard_loop(trace, rc, mem);
      tracer.args(id, "submit", loop.submit);
      tracer.args(id, "step_until", loop.step);
    });
  });
  report.check(loop.stats == serial.stats && loop.timing == serial.timing,
               "traced shard loop merges to replay_trace_sharded's stats");

  const double scans = static_cast<double>(mem.org.channels) * scan_ns;
  const double shard_calls_ns = loop.submit.net_ns() + loop.step.net_ns();
  report.layer("trace.ns_per_access", "ns",
               draw_ns / static_cast<double>(draws));
  report.layer("memsys.scan_ns_per_access", "ns", scan_ns / n);
  report.layer("memsys.submit_ns", "ns", loop.submit.ns_per_call());
  report.layer("memsys.step_ns", "ns", loop.step.ns_per_call());
  report.layer("memsys.steps_per_access", "count",
               static_cast<double>(loop.step.calls) / n);
  record_scheduler(serial.stats, serial.timing, trace.size(), report);
  report.layer("runner.parallel_eff", "fraction", t1_ns / (2.0 * t2_ns));
  report.layer("bench.trace_overhead_frac", "fraction", loop_ns / t1_ns - 1.0);
  // Every shard decodes every record of its epoch, hence channels x scan.
  // The glue is what the untraced serial replay spends outside the shard
  // calls and the scans (the traced loop carries the timers' own cost).
  layer_ns_per_op(report, {{"trace", scans / n},
                           {"memsys", shard_calls_ns / n},
                           {"runner", (t2_ns - t1_ns / 2.0) / n},
                           {"sim", (t1_ns - shard_calls_ns - scans) / n}});
  tracer.write_chrome(o.build_dir + "/trace-" + o.workload + ".json");
}

}  // namespace

void run_open_knee(const Options& o, Report& report) {
  const u64 accesses = o.quick ? 1'000'000 : 10'000'000;
  TraceReplayConfig rc;
  rc.inter_arrival_ns = 4.0;
  MemSysConfig mem;
  mem.org.channels = kChannels;
  mem.org.encode_latency_ns = paper_encode_ns(Scheme::kReadSae);

  report.param("profile", "gcc");
  report.param("accesses", static_cast<double>(accesses));
  report.param("channels", static_cast<double>(kChannels));
  report.param("encode_latency_ns", mem.org.encode_latency_ns);
  report.param("inter_arrival_ns", rc.inter_arrival_ns);
  report.param("epoch_accesses", static_cast<double>(rc.epoch_accesses));
  report.param("jobs", static_cast<double>(kJobs));
  report.param("loop", "open, arrival i due at i * inter_arrival_ns");
  report.param("op", "replayed memory request");

  // Set-up: draw the trace, write it with TraceWriter, map it, and replay
  // its first tenth once untimed.
  const TempFile file{o.build_dir + "/knee-" + std::to_string(getpid()) +
                      ".trace"};
  std::optional<MappedTrace> trace;
  const std::vector<double> setups = time_setups(3, [&] {
    trace.reset();
    {
      SyntheticWorkload source{profile_by_name("gcc"), o.seed};
      TraceWriter writer{file.path()};
      for (u64 i = 0; i < accesses; ++i) writer.append(source.next());
      writer.close();
    }
    trace.emplace(file.path());
    report.check(trace->size() == accesses,
                 "trace file holds every generated access");
    TraceReplayConfig warm = rc;
    warm.max_accesses = accesses / 10;
    (void)replay_trace_sharded(*trace, warm, mem, kJobs);
  });

  if (o.trace) {
    traced_knee(o, *trace, rc, mem, report);
    return;
  }

  std::optional<TraceReplayResult> first;
  const std::vector<double> reps = timed_reps(o.seconds, o.quick, 3, [&] {
    TraceReplayResult r = replay_trace_sharded(*trace, rc, mem, kJobs);
    report.check(r.accesses == accesses &&
                     r.stats.reads + r.stats.writes == accesses,
                 "every replayed access completed");
    if (!first) {
      first = std::move(r);
    } else {
      report.check(r == *first, "repetition reproduces the first replay");
    }
  });
  report.add("ops_per_s", "op/s", true, MetricKind::kHost,
             rates(static_cast<double>(accesses), reps));
  report.add("setup_s", "s", false, MetricKind::kHost, setups);
  record_latency(first->stats, report);
}

// ---------------------------------------------------------------------------
// memsys-closed-ras

namespace {

struct ClosedRasPlan {
  LoadGenConfig load;
  MemSysConfig mem;
};

ClosedRasPlan closed_ras_plan(const Options& o) {
  ClosedRasPlan p;
  p.load.pattern = LoadPattern::kZipfian;
  p.load.zipf_theta = 0.99;
  p.load.users = 32;
  p.load.think_ns = 50.0;
  p.load.read_fraction = 0.5;
  p.load.footprint_lines = 262'144;
  p.load.requests = o.quick ? 400'000 : 4'000'000;
  p.load.seed = o.seed;

  p.mem.org.channels = kChannels;
  p.mem.org.encode_latency_ns = paper_encode_ns(Scheme::kReadSae);
  RasConfig& ras = p.mem.ras;
  ras.inject.write_fail_rate = 1e-3;
  ras.inject.read_disturb_rate = 1e-4;
  ras.inject.seed = SplitMix64{o.seed ^ 0xfa17u}.next();
  ras.scrub_interval_ns = 50'000.0;
  LifetimeConfig& life = ras.lifetime;
  life.endurance_mean_flips = 1e6;
  life.leveler = WearLevelerKind::kStartGap;
  life.seed = SplitMix64{o.seed ^ 0x11feu}.next();
  return p;
}

/// Per-write wear from the real READ+SAE encoder over gcc's value mix.
void calibrate(ClosedRasPlan& p, u64 seed) {
  const SchemeWriteCost cost =
      calibrate_write_cost(Scheme::kReadSae, "gcc", seed);
  p.mem.ras.lifetime.wear_per_write_flips = cost.avg_sets + cost.avg_resets;
}

void traced_closed_ras(const Options& o, const ClosedRasPlan& p,
                       Report& report) {
  const double n = static_cast<double>(p.load.requests);
  const std::string rep = o.workload + "/rep0";

  double t0 = now_s();
  const LoadResult reference = run_load(p.load, p.mem);
  const double untraced_ns = (now_s() - t0) * 1e9;

  // Twins: the same closed loop with RAS and lifetime off, with RAS only,
  // and with both. Their differences are each layer's host cost.
  MemSysConfig base = p.mem;
  base.ras = RasConfig{};
  MemSysConfig ras_only = p.mem;
  ras_only.ras.lifetime = LifetimeConfig{};
  Tracer tracer;
  auto twin = [&](const std::string& name, const std::string& layer,
                  const std::string& round, const MemSysConfig& cfg,
                  LoadResult& out) {
    return tracer.run(name, layer, rep + "/" + round, [&](u64 id) {
      out = run_load(p.load, cfg);
      tracer.arg(id, "requests", n);
      report.check(out.stats.reads + out.stats.writes == p.load.requests,
                   name + ": every request completed");
    });
  };
  // Three interleaved rounds, medians per twin: the differences are a few
  // percent of a run, about the size of one run's host noise.
  std::vector<double> base_runs;
  std::vector<double> ras_runs;
  std::vector<double> full_runs;
  LoadResult partial;
  LoadResult full;
  for (usize r = 0; r < 3; ++r) {
    const std::string round = "round" + std::to_string(r);
    tracer.run("closed_loop", "sim", rep + "/" + round, [&](u64) {
      base_runs.push_back(twin("memsys.base", "memsys", round, base, partial));
      ras_runs.push_back(twin("ras.only", "ras", round, ras_only, partial));
      full_runs.push_back(twin("lifetime.full", "lifetime", round, p.mem, full));
    });
  }
  const double base_ns = median(base_runs);
  const double ras_ns = median(ras_runs);
  const double full_ns = median(full_runs);
  report.check(full == reference,
               "traced closed loop reproduces the untraced result");

  const RasStats ras = reference.ras.totals();
  const LifetimeStats life = reference.ras.lifetime_totals();
  report.layer("memsys.ns_per_req", "ns", base_ns / n);
  report.layer("ras.ns_per_req", "ns", (ras_ns - base_ns) / n);
  report.layer("lifetime.ns_per_req", "ns", (full_ns - ras_ns) / n);
  report.layer("ras.retries", "count", static_cast<double>(ras.write_retries));
  report.layer("ras.scrubs", "count", static_cast<double>(ras.scrub_reads));
  report.layer("ras.retired", "count", static_cast<double>(ras.retired_lines));
  report.layer("ras.ue", "count", static_cast<double>(ras.uncorrectable()));
  report.layer("lifetime.wl_migrations", "count",
               static_cast<double>(life.wl_moves));
  report.layer("lifetime.max_wear", "fraction", life.max_wear_frac);
  record_scheduler(reference.stats, reference.timing, p.load.requests,
                   report);
  report.layer("bench.trace_overhead_frac", "fraction",
               full_ns / untraced_ns - 1.0);
  layer_ns_per_op(report, {{"memsys", base_ns / n},
                           {"ras", (ras_ns - base_ns) / n},
                           {"lifetime", (full_ns - ras_ns) / n}});
  tracer.write_chrome(o.build_dir + "/trace-" + o.workload + ".json");
}

}  // namespace

void run_closed_ras(const Options& o, Report& report) {
  ClosedRasPlan p = closed_ras_plan(o);
  report.param("pattern", "zipfian");
  report.param("zipf_theta", p.load.zipf_theta);
  report.param("users", static_cast<double>(p.load.users));
  report.param("think_ns", p.load.think_ns);
  report.param("read_fraction", p.load.read_fraction);
  report.param("footprint_lines", static_cast<double>(p.load.footprint_lines));
  report.param("requests", static_cast<double>(p.load.requests));
  report.param("channels", static_cast<double>(kChannels));
  report.param("encode_model", "paper READ+SAE");
  report.param("fault_rate", p.mem.ras.inject.write_fail_rate);
  report.param("read_disturb", p.mem.ras.inject.read_disturb_rate);
  report.param("scrub_interval_ns", p.mem.ras.scrub_interval_ns);
  report.param("endurance_flips", p.mem.ras.lifetime.endurance_mean_flips);
  report.param("wear_leveler", "start-gap");
  report.param("engine", "serial MemorySystem router");
  report.param("loop", "closed, 32 users, exponential think time");
  report.param("op", "completed memory request");

  // Set-up: write-cost calibration, configuration, and one untimed
  // closed loop at a tenth of the requests.
  const std::vector<double> setups = time_setups(3, [&] {
    p = closed_ras_plan(o);
    calibrate(p, o.seed);
    LoadGenConfig warm = p.load;
    warm.requests /= 10;
    (void)run_load(warm, p.mem);
  });
  report.param("wear_per_write_flips",
               p.mem.ras.lifetime.wear_per_write_flips);

  if (o.trace) {
    traced_closed_ras(o, p, report);
    return;
  }

  std::optional<LoadResult> first;
  const std::vector<double> reps = timed_reps(o.seconds, o.quick, 3, [&] {
    LoadResult r = run_load(p.load, p.mem);
    report.check(r.stats.reads + r.stats.writes == p.load.requests,
                 "every request completed");
    if (!first) {
      first = std::move(r);
    } else {
      report.check(r == *first, "repetition reproduces the first run");
    }
  });
  report.add("ops_per_s", "op/s", true, MetricKind::kHost,
             rates(static_cast<double>(p.load.requests), reps));
  report.add("setup_s", "s", false, MetricKind::kHost, setups);
  record_latency(first->stats, report);
}

}  // namespace nvmenc::bench
