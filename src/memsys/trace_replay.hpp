// Open-loop trace-driven replay through the channel shards.
//
// The closed-loop load generator (loadgen.hpp) throttles itself: each user
// waits for its completion before issuing again, so it can never overrun
// the system. Trace replay is the opposite discipline — accesses arrive at
// a fixed inter-arrival time regardless of how the system is coping, the
// standard open-loop methodology for driving a memory system with a
// recorded reference stream. Pushed past saturation the write queues fill,
// arrivals park, and the read tail grows without bound; the inter-arrival
// knob sweeps exactly that transition.
//
// Traces come from the binary mmap format (trace_io.hpp): records are
// decoded straight out of the page cache, so a 10^8-access replay touches
// no parser and allocates O(1) memory.
//
// One engine replays the stream (memsys/open_loop.hpp, DESIGN.md §10):
// arrival number i lands at time i * inter_arrival_ns, so an index range
// IS a virtual-time window. The engine walks the trace in bounded epochs,
// each channel shard scans the epoch's slice picking out its own
// channel's accesses (channel_of_line), and a barrier separates epochs.
// Shards share nothing and merge in channel-id order, so the result is
// bit-identical at any --jobs value; one worker runs the slices inline.
// The tier-1 tests hold it to the serial MemorySystem loop it replaced
// (tests/reference_replay.hpp), rendered tables included.
//
// replay_sweep adds cell-level parallelism (one single-worker replay per
// encode-latency point) and shares a single read-only mapping of the
// trace across all cells.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "memsys/memory_system.hpp"
#include "trace/trace_io.hpp"

namespace nvmenc {

class ProgressReporter;  // runner/progress.hpp

struct TraceReplayConfig {
  /// Fixed arrival spacing (ns per access). The open-loop rate knob:
  /// 64 B / 10 ns ≈ 6.4 GB/s offered load.
  double inter_arrival_ns = 10.0;
  /// Replay at most this many accesses (0 = the whole trace).
  u64 max_accesses = 0;
  /// Accesses per epoch between barriers. With the RAS layer off, results
  /// never depend on this (shards share nothing); it only bounds how far
  /// shards drift apart in wall-clock and paces progress ticks. With RAS
  /// enabled it is also the degradation control interval: channel health
  /// is polled and traffic re-routed at epoch boundaries only, so a run
  /// agrees with itself at every --jobs value for a fixed epoch length.
  u64 epoch_accesses = 1'000'000;
  /// Optional within-run progress sink (rate-limited ETA lines).
  ProgressReporter* progress = nullptr;

  void validate() const;
};

struct TraceReplayResult {
  MemSysStats stats;    ///< request-level counters + read-latency histogram
  TimingStats timing;   ///< array-level counters (accesses, row hits)
  RasReport ras;        ///< per-channel fault/recovery view (empty = RAS off)
  double makespan_ns = 0.0;  ///< last array operation finished
  u64 accesses = 0;          ///< accesses actually replayed

  [[nodiscard]] bool operator==(const TraceReplayResult&) const = default;
};

/// Replays a trace through one channel shard per channel, advanced on
/// `jobs` workers (0 = one per hardware context) in epochs of
/// `replay.epoch_accesses`. The mapped overload reads records in place,
/// nothing buffered or parsed; the span overload serves text traces and
/// tests. Both give the same result for the same accesses, and every
/// (trace, config) gives the same result at every `jobs` value.
[[nodiscard]] TraceReplayResult replay_trace_sharded(
    const MappedTrace& trace, const TraceReplayConfig& replay,
    const MemSysConfig& mem, usize jobs);

[[nodiscard]] TraceReplayResult replay_trace_sharded(
    std::span<const MemAccess> trace, const TraceReplayConfig& replay,
    const MemSysConfig& mem, usize jobs);

/// One sweep cell: the base MemSysConfig with this encode latency.
struct ReplaySweepCell {
  std::string label;          ///< e.g. scheme or model name
  double encode_latency_ns = 0.0;
  TraceReplayResult result;
};

/// Replays one trace file across several encode-latency points, cells
/// fanned out over `jobs` threads (0 = one per hardware context, 1 =
/// inline). All cells read one shared read-only mapping of the trace and
/// each runs the engine on one worker with private shards, so results are
/// bit-identical for any `jobs` value. `progress` (nullable) gets one
/// job_done line per finished cell.
[[nodiscard]] std::vector<ReplaySweepCell> replay_sweep(
    const std::string& trace_path,
    const std::vector<ReplaySweepCell>& cells,
    const TraceReplayConfig& replay, const MemSysConfig& base_mem,
    usize jobs, ProgressReporter* progress = nullptr);

}  // namespace nvmenc
