// The open-loop engine: the one epoch loop behind every open-loop driver —
// replay_trace_sharded at any jobs count (`replay --memsys`), each cell of
// replay_sweep, and both run_to_failure overloads (memsys/aging.hpp).
//
// Arrival i lands at i * inter_arrival_ns whatever the system is doing, so
// an index range IS a virtual-time window. The engine walks the source in
// epochs of replay.epoch_accesses; in each epoch every channel shard scans
// the epoch's slice, keeps only its own channel's accesses
// (channel_of_line) and pumps itself. Shards share nothing, so the slice
// step runs inline on one worker or on a pool, and statistics merge in
// channel-id order: the result is bit-identical at any jobs count. The
// redundant scan (each shard decodes the slice once) is the price of O(1)
// memory: no per-channel index arrays, which for a 10^8-access trace
// would dwarf the simulation state.
//
// Degradation control (RAS on): at each epoch boundary every shard has
// been pumped to the boundary time, its health is polled there, and the
// routing mask every worker reads during the epoch is refreshed. An
// optional per-epoch hook sees the shards at that point and may end the
// run before the epoch's accesses are issued; it is called once more
// after the final drain, with health polled at the makespan. Aging's
// capacity sampling and stop rule are that hook.
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "memsys/channel_shard.hpp"
#include "memsys/memory_system.hpp"
#include "memsys/trace_replay.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/progress.hpp"

namespace nvmenc {

/// run_open_loop's hook when a driver has none.
struct NoEpochHook {};

/// Runs accesses [0, count) of `source` (anything indexable by u64 that
/// yields a MemAccess) through one shard per channel on `jobs` workers
/// (0 = one per hardware context). `on_epoch(shards, now_ns, drained)` is
/// called at every epoch boundary with drained == false — returning true
/// ends the run there, before that epoch's accesses — and once after the
/// final drain with drained == true (its return value then ignored).
/// `accesses` in the result is the number issued.
template <typename Source, typename OnEpoch = NoEpochHook>
TraceReplayResult run_open_loop(const Source& source, u64 count,
                                const TraceReplayConfig& replay,
                                const MemSysConfig& mem, usize jobs,
                                OnEpoch&& on_epoch = {}) {
  constexpr bool kHook =
      !std::is_same_v<std::remove_cvref_t<OnEpoch>, NoEpochHook>;
  replay.validate();
  mem.validate();
  const usize nch = mem.org.channels;
  const bool ras_on = mem.ras.enabled();
  const double dt = replay.inter_arrival_ns;
  std::vector<ChannelShard> shards;
  shards.reserve(nch);
  for (usize c = 0; c < nch; ++c) shards.emplace_back(mem, c);

  // Degradation routing mask: written only between epochs, read
  // concurrently by every worker during one.
  std::vector<u8> degraded(nch, 0);
  bool any_degraded = false;
  const auto poll_at = [&](double now) {
    if (!ras_on) return;
    any_degraded = false;
    for (usize c = 0; c < nch; ++c) {
      shards[c].poll_ras(now);
      degraded[c] = shards[c].ras_degraded() ? 1 : 0;
      if (degraded[c] != 0) any_degraded = true;
    }
  };

  const auto pump_slice = [&](usize c, u64 begin, u64 end) {
    ChannelShard& shard = shards[c];
    for (u64 i = begin; i < end; ++i) {
      const MemAccess a = source[i];
      u64 addr = a.line_addr();
      bool remapped = false;
      if (any_degraded && degraded[channel_of_line(mem.org, addr)] != 0) {
        const u64 routed = ras_remap_line(mem.org, addr, degraded);
        remapped = routed != addr;
        addr = routed;
      }
      if (channel_of_line(mem.org, addr) != c) continue;
      const double now = static_cast<double>(i) * dt;
      while (shard.step_until(now)) {
      }
      (void)shard.submit(
          addr, a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite, now,
          remapped);
    }
    if (ras_on) {
      // Pump to the epoch edge so every event scheduled before the
      // boundary (spare exhaustion, UE trips) has executed when channel
      // health is polled. Splitting a pump at extra bounds never changes
      // a shard's evolution — it is a pure function of its arrival
      // sequence — so the epoch length only sets the control interval.
      const double edge = static_cast<double>(end) * dt;
      while (shard.step_until(edge)) {
      }
    }
  };

  const auto pool = pool_for(std::min(resolve_jobs(jobs), nch));
  u64 issued = count;
  for (u64 base = 0; base < count;) {
    const u64 end = base + std::min(replay.epoch_accesses, count - base);
    const double now = static_cast<double>(base) * dt;
    poll_at(now);
    if constexpr (kHook) {
      if (on_epoch(std::as_const(shards), now, false)) {
        issued = base;
        break;
      }
    }
    // parallel_for joins every shard before the next epoch: the barrier
    // that bounds wall-clock drift between shards.
    parallel_for(pool.get(), nch, [&](usize c) { pump_slice(c, base, end); });
    if (replay.progress != nullptr) {
      replay.progress->tick("replay", end, count);
    }
    base = end;
  }
  parallel_for(pool.get(), nch, [&](usize c) { (void)shards[c].drain_all(); });

  // Merge in channel-id order — the fixed float accumulation order that
  // makes the result independent of worker scheduling.
  TraceReplayResult result;
  for (const ChannelShard& shard : shards) {
    result.stats.merge(shard.stats());
    result.timing.merge(shard.timing_stats());
  }
  result.makespan_ns = result.stats.last_completion_ns;
  result.accesses = issued;
  if constexpr (kHook) {
    poll_at(result.makespan_ns);
    (void)on_epoch(std::as_const(shards), result.makespan_ns, true);
  }
  result.ras = collect_ras_report(shards);
  return result;
}

}  // namespace nvmenc
