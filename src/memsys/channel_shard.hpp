// One channel of the memory system: queues, banks, and statistics with no
// shared mutable state.
//
// A line address maps to exactly one channel (channel_of_line), and every
// structure a request touches after that routing — read queue, write
// queue, forward/coalesce index, bank and bus timing state, statistics —
// lives inside that channel's shard. This is the fact the parallel
// simulation rests on: a shard's evolution is a pure function of its own
// arrival sequence, so shards may be advanced on any thread, in any
// relative order, and produce bit-identical state. The MemorySystem router
// arbitrates shards in global virtual-time order (closed-loop generators
// need cross-channel completion ordering); the open-loop engine
// (open_loop.hpp) and the pinned-loadgen driver advance shards directly,
// inline or on parallel workers, and merge statistics in channel-id
// order.
//
// The per-access hot path is allocation-free in steady state: queues are
// RingBuffer / reserved vectors (amortized-zero growth to a high-water
// mark), the forward/coalesce index is a fixed-capacity FlatSetU64, and
// the completion heap reuses its backing storage. The allocation-hook
// test (tests/test_alloc_hot_path.cpp) enforces this with a counting
// operator new.
#pragma once

#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/flat_set.hpp"
#include "common/ring_buffer.hpp"
#include "memsys/ras.hpp"
#include "memsys/request.hpp"
#include "nvm/timing.hpp"

namespace nvmenc {

struct MemSysConfig;  // memory_system.hpp

/// Per-channel scheduling engine. Construct via MemorySystem (which owns
/// one shard per channel) rather than directly; the shard trusts its
/// caller to route only its own channel's addresses (checked in debug
/// builds).
class ChannelShard {
 public:
  ChannelShard(const MemSysConfig& config, usize channel);

  ChannelShard(const ChannelShard&) = delete;
  ChannelShard& operator=(const ChannelShard&) = delete;
  ChannelShard(ChannelShard&&) = default;
  ChannelShard& operator=(ChannelShard&&) = default;

  /// Submits a request with a caller-allocated ticket (the serial
  /// front-end hands out globally increasing tickets; sharded drivers use
  /// submit(), below). Arrivals must be nondecreasing in time (an earlier
  /// one throws std::invalid_argument naming the channel and both times)
  /// and never earlier than a completion this shard already returned;
  /// the arbiter's scans rely on the read queue being in arrival order.
  /// `remapped` marks traffic redirected here from a degraded channel: it
  /// flows through this shard's bounded remapping queue and may pay a
  /// congestion-backoff charge (bank occupancy) on the way in.
  void submit_with_ticket(u64 ticket, u64 line_addr, ReqKind kind,
                          double now_ns, bool remapped = false);

  /// Submits with a shard-local ticket. Ticket VALUES differ from the
  /// MemorySystem router's, but their relative order within the shard —
  /// the only thing the completion tie-break and statistics depend on —
  /// is identical, which is why the open-loop engine matches a serial
  /// MemorySystem loop bit for bit.
  u64 submit(u64 line_addr, ReqKind kind, double now_ns,
             bool remapped = false);

  /// Local pump: same contract as MemorySystem::step_until, restricted to
  /// this shard's requests.
  std::optional<MemSysCompletion> step_until(double t_ns);

  /// Flushes everything pending on this shard; returns the time its last
  /// operation finished (or the last recorded completion when idle).
  double drain_all();

  // --- pieces the serial cross-channel arbiter composes ---

  /// Earliest time this shard could issue a command (+inf if nothing is
  /// pending or allowed). Kept as state: recomputed only by the calls
  /// that can move it (a submit, an issued command, set_flushing), so a
  /// query is a load.
  [[nodiscard]] double wake() const noexcept { return wake_; }
  /// Issues the best eligible command at `now` (== wake()).
  void arbitrate(double now);
  [[nodiscard]] bool has_completion() const noexcept {
    return !completions_.empty();
  }
  /// Earliest undelivered completion (call only when has_completion()).
  [[nodiscard]] const MemSysCompletion& top_completion() const {
    return completions_.top();
  }
  MemSysCompletion pop_completion();
  /// drain_all-mode flag: writes may issue below the watermark.
  void set_flushing(bool on) {
    flushing_ = on;
    refresh_wake();
  }

  [[nodiscard]] const MemSysStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TimingStats& timing_stats() const noexcept {
    return timing_.stats();
  }
  [[nodiscard]] usize channel() const noexcept { return channel_; }
  [[nodiscard]] usize write_queue_depth() const noexcept {
    return writes_.size();
  }
  [[nodiscard]] usize pending_reads() const noexcept { return reads_.size(); }
  [[nodiscard]] bool idle() const noexcept;

  // --- RAS layer (present only when MemSysConfig::ras is enabled) ---

  /// The shard's fault domain, or nullptr when the run models perfect
  /// media (the default — the fault-free path is byte-identical to a
  /// build without the RAS layer).
  [[nodiscard]] const FaultDomain* ras() const noexcept {
    return ras_ ? &*ras_ : nullptr;
  }
  /// True once this channel has tripped into degraded mode. Drivers poll
  /// this at deterministic points (epoch boundaries) and remap new
  /// traffic to surviving channels.
  [[nodiscard]] bool ras_degraded() const noexcept {
    return ras_ && ras_->degraded();
  }
  /// Applies time-based RAS transitions (the scripted media kill) at
  /// `now_ns`. Drivers call this at epoch boundaries so a killed channel
  /// trips even when no further arrivals reach it. It moves no queue or
  /// bank state, so the cached wake time stays valid.
  void poll_ras(double now_ns) {
    if (ras_) ras_->poll(now_ns);
  }

  // --- lifetime model (present only when RasConfig::lifetime enables it) ---

  /// Aging active on this shard?
  [[nodiscard]] bool lifetime_on() const noexcept {
    return ras_ && ras_->lifetime() != nullptr;
  }
  /// This channel's aging counters: the fault domain's endurance, drift
  /// and migration-cost view plus the translator's leveling activity
  /// (demand writes, migrations, slot uniformity). Zero-initialized when
  /// aging is off.
  [[nodiscard]] LifetimeStats lifetime_stats() const;

 private:
  struct PendingRead {
    u64 ticket = 0;
    u64 line_addr = 0;
    double arrival = 0.0;
    BankAddress where;
  };
  struct QueuedWrite {
    u64 line_addr = 0;
    double arrival = 0.0;
    BankAddress where;
  };
  struct ParkedWrite {
    u64 ticket = 0;
    u64 line_addr = 0;
    double arrival = 0.0;
  };
  struct PendingScrub {
    u64 line_addr = 0;
    double arrival = 0.0;
    BankAddress where;
  };
  /// Pending demand reads on one bank, and the last wake scan that saw
  /// one of them.
  struct BankReads {
    usize pending = 0;
    u64 seen = 0;
  };
  struct LaterCompletion {
    bool operator()(const MemSysCompletion& a,
                    const MemSysCompletion& b) const noexcept {
      if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
      return a.ticket > b.ticket;  // deterministic tie-break
    }
  };
  /// priority_queue with pre-reservable backing storage (the adaptor
  /// hides the container; steady-state pushes must not reallocate).
  class CompletionQueue
      : public std::priority_queue<MemSysCompletion,
                                   std::vector<MemSysCompletion>,
                                   LaterCompletion> {
   public:
    void reserve(usize n) { c.reserve(n); }
  };

  /// Reads wait while the write queue drains to the low watermark.
  [[nodiscard]] bool drain_mode() const noexcept {
    return draining_ && !writes_.empty();
  }
  /// Writes issue: in a drain, or opportunistically (or while flushing)
  /// when no read is pending.
  [[nodiscard]] bool write_mode() const noexcept {
    return drain_mode() || (reads_.empty() && !writes_.empty() &&
                            (opportunistic_writes_ || flushing_));
  }
  /// Recomputes wake_, visiting each bank with a pending read once.
  void refresh_wake();
  bool issue_read(double now);
  bool issue_write(double now);
  void issue_scrub(double now);
  void maybe_arm_scrub(double now);
  /// Charges `ns` of recovery work to `bank` from `from_ns` (bank
  /// occupancy plus the fault domain's ras_busy_ns); returns `ns`.
  double charge_ras(usize bank, double from_ns, double ns);
  /// Charges the migration writes of the last translate_write: each copy
  /// holds its destination's bank, and the fault domain books its cost
  /// and the destination's wear.
  void charge_wl_migrations(double now_ns);
  void accept_write(u64 ticket, u64 line_addr, double arrival,
                    double accept_time);
  void push_completion(const MemSysCompletion& completion);

  usize channel_ = 0;
  usize write_queue_capacity_ = 0;
  usize high_watermark_ = 0;
  usize low_watermark_ = 0;
  double t_cmd_ns_ = 0.0;
  double forward_ns_ = 0.0;
  double starvation_cap_ns_ = 0.0;
  bool opportunistic_writes_ = true;
  MemoryTimingModel timing_;  ///< this channel's banks and bus

  std::vector<PendingRead> reads_;   ///< arrival order; erase keeps it
  std::vector<BankReads> bank_reads_;  ///< per bank of timing_
  usize read_banks_ = 0;             ///< banks with a pending read
  u64 wake_scan_ = 0;                ///< refresh_wake's scan counter
  std::vector<QueuedWrite> writes_;  ///< bounded by write_queue_capacity
  FlatSetU64 queued_lines_;          ///< forward/coalesce index
  RingBuffer<ParkedWrite> parked_;   ///< arrivals beyond capacity
  CompletionQueue completions_;
  MemSysStats stats_;
  bool draining_ = false;
  bool flushing_ = false;
  double slot_free_at_ = 0.0;
  double wake_ = std::numeric_limits<double>::infinity();
  double last_arrival_ns_ = -std::numeric_limits<double>::infinity();
  u64 next_ticket_ = 0;

  // RAS layer: the fault domain plus the background scrub engine's
  // state. scrub_ holds at most one pending scrub read; it is armed on
  // arrivals (a pure function of the shard's arrival sequence, keeping
  // serial and sharded runs identical) and issued by the arbiter only
  // when no demand request is eligible.
  std::optional<FaultDomain> ras_;
  std::optional<PendingScrub> scrub_;
  double next_scrub_at_ = 0.0;

  // Wear-leveling translation (RasConfig::lifetime.leveler != kNone):
  // logical arrivals are translated to physical slots at submit time, and
  // the leveler advances on this shard's own write arrivals only — a pure
  // function of the arrival sequence, so serial and sharded runs agree.
  std::optional<WearLevelTranslator> wl_;
};

/// Per-channel RAS stats + the event logs merged in (time, channel)
/// order — the deterministic view the drivers attach to their results.
/// Empty when the shards carry no RAS layer.
[[nodiscard]] RasReport collect_ras_report(
    const std::vector<ChannelShard>& shards);

}  // namespace nvmenc
