#include "memsys/aging.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "memsys/open_loop.hpp"

namespace nvmenc {

const char* aging_stop_name(AgingStop stop) {
  switch (stop) {
    case AgingStop::kMaxPasses:
      return "pass budget";
    case AgingStop::kFirstRetirement:
      return "first retirement";
    case AgingStop::kFirstTrip:
      return "first channel trip";
    case AgingStop::kCapacityFloor:
      return "capacity floor";
  }
  return "?";
}

const char* aging_until_name(AgingUntil until) {
  switch (until) {
    case AgingUntil::kRetirement:
      return "retirement";
    case AgingUntil::kTrip:
      return "trip";
    case AgingUntil::kFloor:
      return "floor";
  }
  return "?";
}

void AgingConfig::validate() const {
  require(inter_arrival_ns > 0.0, "inter-arrival time must be positive");
  require(epoch_accesses >= 1, "aging epochs must hold at least one access");
  require(max_passes >= 1, "run-to-failure needs at least one pass");
  require(capacity_floor >= 0.0 && capacity_floor <= 1.0,
          "capacity floor must be a fraction in [0, 1]");
}

namespace {

/// Loops a finite trace: access g of the endless stream is trace[g % n].
struct LoopedTrace {
  std::span<const MemAccess> trace;

  MemAccess operator[](u64 g) const {
    return trace[static_cast<usize>(g % trace.size())];
  }
};

/// Access g is a pure function of (seed, g): a keyed per-index RNG feeds
/// the sampler, so the stream needs no history and extends to any pass
/// count — and a different max_passes never perturbs earlier accesses.
struct KeyedStream {
  const LoadGenConfig& load;
  AddressSampler sampler;

  MemAccess operator[](u64 g) const {
    Xoshiro256 rng{SplitMix64{load.seed ^
                              (0xa61c'5eed'0000'0001ull +
                               g * 0x9e3779b97f4a7c15ull)}
                       .next()};
    MemAccess a{};
    a.addr = sampler.draw(rng, g) * kLineBytes;
    a.op = rng.next_bool(load.read_fraction) ? Op::kRead : Op::kWrite;
    return a;
  }
};

/// Runs the endless stream `source` on the open-loop engine (one worker)
/// with aging's capacity sampling and stop rule as its epoch hook.
/// `per_pass` accesses make one workload pass.
template <typename Source>
AgingResult run_to_failure_impl(const Source& source, u64 per_pass,
                                const AgingConfig& aging,
                                const MemSysConfig& mem) {
  aging.validate();
  mem.validate();
  require(per_pass > 0, "run-to-failure needs a non-empty workload");
  require(mem.ras.enabled(),
          "run-to-failure needs the RAS layer (enable the lifetime model: "
          "set an endurance mean, a retention tau, or a wear leveler)");

  AgingResult result;

  // Survivor capacity at `now`: each healthy channel contributes its
  // surviving-line fraction over the lines it has ever served (1.0 while
  // untouched), a tripped channel contributes 0 — so the curve starts at
  // 1 and falls toward 0 as spares drain and channels die.
  const auto sample = [&](const std::vector<ChannelShard>& shards,
                          double now) {
    CapacityPoint p;
    p.time_ns = now;
    double cap = 0.0;
    for (const ChannelShard& shard : shards) {
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
    p.capacity = cap / static_cast<double>(shards.size());
    return p;
  };

  // The engine's epoch hook. Records the point (when the failure picture
  // changed) and latches the first-retirement / first-trip markers. At an
  // epoch boundary it applies the stop condition; after the drain — which
  // may finish wear crossings scheduled before the stop — it closes the
  // curve but keeps the stop reason already decided.
  const auto observe = [&](const std::vector<ChannelShard>& shards,
                           double now, bool drained) {
    const CapacityPoint p = sample(shards, now);
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
    if (drained) {
      if (result.curve.back().time_ns != now) result.curve.push_back(p);
      return false;
    }
    if (aging.until == AgingUntil::kRetirement && p.retired > 0) {
      result.stop = AgingStop::kFirstRetirement;
    } else if (aging.until == AgingUntil::kTrip && p.degraded > 0) {
      result.stop = AgingStop::kFirstTrip;
    } else if (p.capacity < aging.capacity_floor) {
      result.stop = AgingStop::kCapacityFloor;
    } else {
      return false;
    }
    return true;
  };

  TraceReplayConfig replay;
  replay.inter_arrival_ns = aging.inter_arrival_ns;
  replay.epoch_accesses = aging.epoch_accesses;
  // The pass budget in accesses, clamped rather than wrapped: a budget
  // past 2^64 - 1 accesses means "until failure", not a short run.
  constexpr u64 kMaxAccesses = std::numeric_limits<u64>::max();
  const u64 budget = aging.max_passes > kMaxAccesses / per_pass
                         ? kMaxAccesses
                         : aging.max_passes * per_pass;
  const TraceReplayResult run =
      run_open_loop(source, budget, replay, mem, 1, observe);

  result.accesses = run.accesses;
  const u64 done = run.accesses / per_pass;  // whole passes completed
  result.passes = done < aging.max_passes ? done + 1 : aging.max_passes;
  result.stats = run.stats;
  result.timing = run.timing;
  result.ras = run.ras;
  result.makespan_ns = run.makespan_ns;
  result.total_array_writes = result.stats.array_writes;
  return result;
}

}  // namespace

AgingResult run_to_failure(std::span<const MemAccess> trace,
                           const AgingConfig& aging, const MemSysConfig& mem) {
  require(!trace.empty(), "run-to-failure needs a non-empty trace");
  return run_to_failure_impl(LoopedTrace{trace}, trace.size(), aging, mem);
}

AgingResult run_to_failure(const LoadGenConfig& load, const AgingConfig& aging,
                           const MemSysConfig& mem) {
  load.validate();
  return run_to_failure_impl(KeyedStream{load, AddressSampler{load}},
                             load.requests, aging, mem);
}

}  // namespace nvmenc
