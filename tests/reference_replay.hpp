// The serial open loops the repository shipped before the epoch engine
// (memsys/open_loop.hpp), kept verbatim as differential-testing oracles.
//
// replay_trace runs one MemorySystem over the access stream, one access at
// a time in global arrival order, polling channel health every
// epoch_accesses arrivals. run_to_failure is the same loop stretched over
// workload passes, with aging's capacity sampling and stop rule at the
// same epoch boundaries. The production drivers — replay_trace_sharded at
// every jobs count and both run_to_failure overloads — run the epoch
// engine instead; test_sharded_replay.cpp, test_trace_replay.cpp,
// test_ras.cpp and test_lifetime.cpp hold them to these loops field for
// field.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "memsys/aging.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/memory_system.hpp"
#include "memsys/trace_replay.hpp"
#include "runner/progress.hpp"
#include "trace/trace_io.hpp"

namespace nvmenc::testutil {

/// The open loop over any indexable access source. Arrivals are delivered
/// strictly in time order: all completions due before the next arrival are
/// pumped first (their payloads are already accounted inside MemorySystem;
/// the replay loop only needs them out of the way).
template <typename Source>
TraceReplayResult replay_impl(const Source& trace, u64 count,
                              const TraceReplayConfig& replay,
                              const MemSysConfig& mem) {
  replay.validate();
  MemorySystem sys{mem};
  const bool ras_on = mem.ras.enabled();
  // Degradation control: channel health is polled and the routing mask
  // refreshed only at epoch boundaries — the same control interval the
  // sharded engine's barriers impose — so both engines make identical
  // re-routing decisions for every access.
  std::vector<u8> degraded;
  bool any_degraded = false;
  constexpr u64 kTickStride = 65'536;
  for (u64 i = 0; i < count; ++i) {
    const double now = static_cast<double>(i) * replay.inter_arrival_ns;
    while (sys.step_until(now)) {
    }
    if (ras_on && i % replay.epoch_accesses == 0) {
      sys.poll_ras(now);
      degraded = sys.degraded_mask();
      any_degraded = std::find(degraded.begin(), degraded.end(), u8{1}) !=
                     degraded.end();
    }
    const MemAccess a = trace[i];
    u64 addr = a.line_addr();
    bool remapped = false;
    if (any_degraded && degraded[channel_of_line(mem.org, addr)] != 0) {
      const u64 routed = ras_remap_line(mem.org, addr, degraded);
      remapped = routed != addr;
      addr = routed;
    }
    (void)sys.submit(addr,
                     a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
                     now, remapped);
    if (replay.progress != nullptr && (i + 1) % kTickStride == 0) {
      replay.progress->tick("replay", i + 1, count);
    }
  }
  TraceReplayResult result;
  result.makespan_ns = sys.drain_all();
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  result.accesses = count;
  if (replay.progress != nullptr) {
    replay.progress->tick("replay", count, count);
  }
  return result;
}

inline u64 capped_count(u64 trace_size, u64 max_accesses) {
  return max_accesses == 0 || max_accesses > trace_size ? trace_size
                                                        : max_accesses;
}

inline TraceReplayResult replay_trace(const MappedTrace& trace,
                                      const TraceReplayConfig& replay,
                                      const MemSysConfig& mem) {
  return replay_impl(trace, capped_count(trace.size(), replay.max_accesses),
                     replay, mem);
}

inline TraceReplayResult replay_trace(std::span<const MemAccess> trace,
                                      const TraceReplayConfig& replay,
                                      const MemSysConfig& mem) {
  return replay_impl(trace, capped_count(trace.size(), replay.max_accesses),
                     replay, mem);
}

/// The open serial replay loop (trace_replay.cpp) stretched over workload
/// passes, with stop checks riding the existing epoch-boundary control
/// interval. `at(g)` yields the g-th access of the endless stream.
template <typename AccessAt>
AgingResult run_to_failure_impl(const AccessAt& at, u64 per_pass,
                                const AgingConfig& aging,
                                const MemSysConfig& mem) {
  aging.validate();
  mem.validate();
  require(per_pass > 0, "run-to-failure needs a non-empty workload");
  require(mem.ras.enabled(),
          "run-to-failure needs the RAS layer (enable the lifetime model: "
          "set an endurance mean, a retention tau, or a wear leveler)");

  MemorySystem sys{mem};
  const usize nch = mem.org.channels;
  AgingResult result;
  std::vector<u8> degraded;
  bool any_degraded = false;
  bool stopped = false;

  // Survivor capacity at `now`: each healthy channel contributes its
  // surviving-line fraction over the lines it has ever served (1.0 while
  // untouched), a tripped channel contributes 0 — so the curve starts at
  // 1 and falls toward 0 as spares drain and channels die.
  const auto sample = [&](double now) {
    CapacityPoint p;
    p.time_ns = now;
    double cap = 0.0;
    for (usize c = 0; c < nch; ++c) {
      const ChannelShard& shard = sys.shard(c);
      p.array_writes += shard.stats().array_writes;
      const FaultDomain* domain = shard.ras();
      if (domain == nullptr) {
        cap += 1.0;
        continue;
      }
      p.retired += domain->stats().retired_lines;
      if (domain->degraded()) {
        ++p.degraded;
        continue;
      }
      const usize touched = domain->lines_touched();
      cap += touched == 0 ? 1.0
                          : 1.0 - static_cast<double>(
                                      domain->stats().retired_lines) /
                                      static_cast<double>(touched);
    }
    p.capacity = cap / static_cast<double>(nch);
    return p;
  };

  // Records the point (when the failure picture changed), latches the
  // first-retirement / first-trip markers, and — unless this is the final
  // post-drain bookkeeping call — applies the stop condition.
  const auto observe = [&](double now, bool allow_stop) {
    const CapacityPoint p = sample(now);
    if (result.curve.empty() || result.curve.back().retired != p.retired ||
        result.curve.back().degraded != p.degraded) {
      result.curve.push_back(p);
    }
    if (p.retired > 0 && result.writes_to_first_retirement == 0) {
      result.writes_to_first_retirement = p.array_writes;
      result.first_retirement_ns = now;
    }
    if (p.degraded > 0 && result.writes_to_first_trip == 0) {
      result.writes_to_first_trip = p.array_writes;
      result.first_trip_ns = now;
    }
    if (!allow_stop || stopped) return;
    if (aging.until == AgingUntil::kRetirement && p.retired > 0) {
      result.stop = AgingStop::kFirstRetirement;
      stopped = true;
    } else if (aging.until == AgingUntil::kTrip && p.degraded > 0) {
      result.stop = AgingStop::kFirstTrip;
      stopped = true;
    } else if (p.capacity < aging.capacity_floor) {
      result.stop = AgingStop::kCapacityFloor;
      stopped = true;
    }
  };

  u64 g = 0;  // global access index; virtual time never resets
  for (u64 pass = 0; pass < aging.max_passes && !stopped; ++pass) {
    result.passes = pass + 1;
    for (u64 i = 0; i < per_pass; ++i, ++g) {
      const double now = static_cast<double>(g) * aging.inter_arrival_ns;
      while (sys.step_until(now)) {
      }
      if (g % aging.epoch_accesses == 0) {
        sys.poll_ras(now);
        degraded = sys.degraded_mask();
        any_degraded = std::find(degraded.begin(), degraded.end(), u8{1}) !=
                       degraded.end();
        observe(now, /*allow_stop=*/true);
        if (stopped) break;
      }
      const MemAccess a = at(g);
      u64 addr = a.line_addr();
      bool remapped = false;
      if (any_degraded && degraded[channel_of_line(mem.org, addr)] != 0) {
        const u64 routed = ras_remap_line(mem.org, addr, degraded);
        remapped = routed != addr;
        addr = routed;
      }
      (void)sys.submit(addr,
                       a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
                       now, remapped);
    }
  }

  result.accesses = g;
  result.makespan_ns = sys.drain_all();
  // Final bookkeeping: the drain may finish wear crossings scheduled
  // before the stop; record them and close the curve, but keep the stop
  // reason the loop decided on.
  sys.poll_ras(result.makespan_ns);
  observe(result.makespan_ns, /*allow_stop=*/false);
  if (result.curve.empty() ||
      result.curve.back().time_ns != result.makespan_ns) {
    result.curve.push_back(sample(result.makespan_ns));
  }
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  result.total_array_writes = result.stats.array_writes;
  return result;
}

inline AgingResult run_to_failure(std::span<const MemAccess> trace,
                                  const AgingConfig& aging,
                                  const MemSysConfig& mem) {
  const u64 n = trace.size();
  require(n > 0, "run-to-failure needs a non-empty trace");
  return run_to_failure_impl(
      [trace, n](u64 g) { return trace[static_cast<usize>(g % n)]; }, n,
      aging, mem);
}

inline AgingResult run_to_failure(const LoadGenConfig& load,
                                  const AgingConfig& aging,
                                  const MemSysConfig& mem) {
  load.validate();
  const AddressSampler sampler{load};
  // Access g is a pure function of (seed, g): a keyed per-index RNG feeds
  // the sampler, so the stream needs no history and extends to any pass
  // count — and a different max_passes never perturbs earlier accesses.
  const auto at = [&load, &sampler](u64 g) {
    Xoshiro256 rng{SplitMix64{load.seed ^
                              (0xa61c'5eed'0000'0001ull +
                               g * 0x9e3779b97f4a7c15ull)}
                       .next()};
    MemAccess a{};
    a.addr = sampler.draw(rng, g) * kLineBytes;
    a.op = rng.next_bool(load.read_fraction) ? Op::kRead : Op::kWrite;
    return a;
  };
  return run_to_failure_impl(at, load.requests, aging, mem);
}

}  // namespace nvmenc::testutil
