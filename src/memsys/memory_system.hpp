// Event-driven multi-channel memory-system front-end.
//
// This is the layer ROADMAP item 1 asks for: the banked MemoryTimingModel
// stops being a passive service-time calculator and becomes a system that
// *serves traffic*. Each channel gets an asynchronous request queue with
// FR-FCFS-style arbitration:
//
//   * demand reads have priority over buffered writes;
//   * among eligible requests (arrived, target bank free) the arbiter
//     prefers row-buffer hits, falling back to oldest-first, with an age
//     cap so row hits cannot starve an old request;
//   * writes are posted into a bounded per-channel write queue; when the
//     queue crosses the high watermark the channel drains writes — reads
//     stall behind the drain until the queue falls to the low watermark
//     (the classic write-induced read-latency spike the paper's §3.4.2
//     "encode latency is negligible" claim must survive);
//   * a read to a queued write's line is forwarded from the queue;
//     a re-write of a queued line coalesces;
//   * a write arriving at a full queue is parked: its acceptance (and the
//     issuing CPU) stalls until a drain frees a slot — write backpressure.
//
// Encode latency rides on writes via MemOrg::encode_latency_ns, so the
// scheme's encoder cost inflates exactly the operations that monopolize
// banks during drains.
//
// All per-channel state lives in ChannelShard; MemorySystem routes
// arrivals by channel_of_line and arbitrates shards in global virtual-time
// order, so it stays fully deterministic. It is the router of the closed
// loops (run_load, run_request_stream), where a completion on one channel
// decides the next arrival on another. The open loops — replay, its sweep
// and run-to-failure — do not need that coupling: the open-loop engine
// (memsys/open_loop.hpp) advances the shards directly in bounded
// virtual-time epochs, on any number of workers, and merges statistics in
// channel-id order (DESIGN.md §10).
#pragma once

#include <optional>
#include <vector>

#include "memsys/channel_shard.hpp"
#include "memsys/request.hpp"
#include "nvm/timing.hpp"

namespace nvmenc {

struct MemSysConfig {
  MemOrg org;                        ///< channels > 1 is the point
  usize write_queue_capacity = 64;   ///< per channel
  usize high_watermark = 48;         ///< enter drain mode at this depth
  usize low_watermark = 16;          ///< leave drain mode at this depth
  double t_cmd_ns = 4.0;    ///< per-command issue occupancy of a channel
  double forward_ns = 0.0;  ///< read-around-write forward latency
  /// A read older than this always beats younger row hits (anti-starvation).
  double starvation_cap_ns = 2000.0;
  /// Issue buffered writes when a channel has no pending reads, keeping
  /// queues shallow at low load instead of waiting for the watermark.
  bool opportunistic_writes = true;
  /// RAS layer: faulty-media write path, background scrub, graceful
  /// channel degradation (memsys/ras.hpp). Disabled by default — the
  /// fault-free path is byte-identical to earlier revisions.
  RasConfig ras;

  void validate() const;
};

class MemorySystem {
 public:
  explicit MemorySystem(MemSysConfig config);

  /// Submits a request arriving at `now_ns` and returns its ticket.
  /// Arrivals must be delivered in nondecreasing time order, and never
  /// earlier than a completion already returned by step_until. `remapped`
  /// marks traffic a driver redirected here from a degraded channel
  /// (route_for_degradation / ras_remap_line); the target shard accounts
  /// it through its bounded remapping queue.
  u64 submit(u64 line_addr, ReqKind kind, double now_ns,
             bool remapped = false);

  /// Advances arbitration and returns the earliest undelivered completion
  /// if its time is <= `t_ns`; otherwise processes everything schedulable
  /// before `t_ns` and returns nullopt. The bound exists so the caller can
  /// interleave future arrivals correctly: never arbitrate past the next
  /// event the caller knows about.
  std::optional<MemSysCompletion> step_until(double t_ns);

  /// Flushes all pending work (ignoring watermarks once reads are done)
  /// and discards the remaining completions; returns the time the last
  /// one finished (or the last recorded completion when already idle).
  double drain_all();

  /// Front-end statistics merged across shards in channel-id order.
  [[nodiscard]] MemSysStats stats() const;
  /// Bank/bus-level statistics merged across shards in channel-id order.
  [[nodiscard]] TimingStats timing_stats() const;
  [[nodiscard]] const MemSysConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] usize write_queue_depth(usize channel) const;
  [[nodiscard]] usize pending_reads(usize channel) const;
  [[nodiscard]] bool idle() const noexcept;

  /// Read-only view of one channel's shard.
  [[nodiscard]] const ChannelShard& shard(usize c) const {
    return shards_[c];
  }
  [[nodiscard]] usize channel_of(u64 line_addr) const noexcept {
    return channel_of_line(config_.org, line_addr);
  }

  // --- RAS layer ---

  /// Applies time-based RAS transitions (the scripted media kill) on
  /// every shard. Drivers call this at their deterministic decision
  /// points (epoch boundaries, closed-loop arrivals).
  void poll_ras(double now_ns);
  /// Channel-indexed degraded flags (empty when RAS is off).
  [[nodiscard]] std::vector<u8> degraded_mask() const;
  /// Reroutes `line_addr` off a degraded home channel onto a surviving
  /// one (ras_remap_line over the live degraded flags); returns the
  /// address unchanged when RAS is off, the home is healthy, or no
  /// channel survives.
  [[nodiscard]] u64 route_for_degradation(u64 line_addr) const;
  /// Per-channel RAS stats + merged event log (empty when RAS is off).
  [[nodiscard]] RasReport ras_report() const {
    return collect_ras_report(shards_);
  }

 private:
  MemSysConfig config_;
  std::vector<ChannelShard> shards_;  ///< one per channel
  u64 next_ticket_ = 0;
};

}  // namespace nvmenc
