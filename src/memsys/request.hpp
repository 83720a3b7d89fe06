// Request, completion, and statistic types of the memory-system
// front-end.
//
// The memory system serves a stream of line-granularity requests in
// virtual time. Every submitted request gets a ticket; the system reports
// its completion (data returned for reads, accepted into the write queue
// for writes) through MemorySystem::step_until. Latency distributions are
// first-class: mean-only statistics hide exactly the write-drain tail
// spikes this subsystem exists to expose.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"

namespace nvmenc {

enum class ReqKind : u8 { kRead = 0, kWrite = 1 };

/// Delivered to the load generator when a request finishes. For reads,
/// `time_ns` is when the data returns (the CPU unblocks); for writes, when
/// the controller accepts the line into a write queue (posted semantics —
/// the array write happens later, in the background).
struct MemSysCompletion {
  u64 ticket = 0;
  double time_ns = 0.0;
  ReqKind kind = ReqKind::kRead;
  bool forwarded = false;  ///< read served from a queued write
};

struct MemSysStats {
  u64 reads = 0;              ///< read completions (incl. forwarded)
  u64 writes = 0;             ///< writes accepted (incl. coalesced)
  u64 array_writes = 0;       ///< writes actually issued to the array
  u64 forwarded_reads = 0;    ///< reads served from a write queue
  u64 coalesced_writes = 0;   ///< re-writes absorbed by a queued entry
  u64 write_stalls = 0;       ///< arrivals parked on a full write queue
  u64 drains = 0;             ///< high-watermark drain episodes
  LatencyHistogram read_latency_ns;   ///< arrival -> data, queueing incl.
  double last_completion_ns = 0.0;    ///< makespan end

  /// Application-visible throughput: completed read + accepted write lines
  /// over the makespan. bytes/ns == GB/s, so no unit conversion.
  [[nodiscard]] double sustained_gbps() const noexcept {
    if (last_completion_ns <= 0.0) return 0.0;
    return static_cast<double>((reads + writes) * kLineBytes) /
           last_completion_ns;
  }

  /// Folds `other` into this accumulator: counters and histogram buckets
  /// add exactly, last_completion_ns takes the max. Shard stats merge in
  /// channel-id order, which fixes the float accumulation order and makes
  /// the merged result identical for every --jobs value.
  void merge(const MemSysStats& other) noexcept {
    reads += other.reads;
    writes += other.writes;
    array_writes += other.array_writes;
    forwarded_reads += other.forwarded_reads;
    coalesced_writes += other.coalesced_writes;
    write_stalls += other.write_stalls;
    drains += other.drains;
    read_latency_ns.merge(other.read_latency_ns);
    if (other.last_completion_ns > last_completion_ns) {
      last_completion_ns = other.last_completion_ns;
    }
  }

  /// Exact equality across every counter and histogram bucket — the
  /// replay/sweep determinism tests compare whole runs with this.
  [[nodiscard]] bool operator==(const MemSysStats&) const = default;
};

}  // namespace nvmenc
