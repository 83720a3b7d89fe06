// RAS (reliability / availability / serviceability) layer of the
// multi-channel memory system.
//
// The scheduler simulation in src/memsys modelled a perfect array: every
// latency and throughput number was measured on media that never errors,
// while the whole fault/recovery stack (FaultInjector, program-and-verify,
// SAFER re-partition, SECDED, spare retirement) was reachable only through
// the synchronous MemoryController path. This layer closes that gap at the
// timing level: each ChannelShard owns a FaultDomain that draws faults for
// the shard's own array operations, charges the recovery work (re-pulses,
// SAFER re-partitions, retirement copies) as virtual bank occupancy —
// delaying row hits and surfacing in the read tail — and trips the channel
// into degraded mode when its spare pool or uncorrectable-error budget is
// gone. Degraded channels keep serving; the replay/loadgen drivers remap
// new traffic onto survivors (ras_remap_line) so the system reports
// reduced capacity instead of dying.
//
// Determinism contract: every draw is keyed by (seed, channel, line,
// per-line event sequence) through the existing FaultInjector generator
// cascade, never by global call order. A shard's fault stream is therefore
// a pure function of its own arrival sequence, which is exactly the
// invariant the channel-sharded engines rest on (DESIGN.md §10): serial
// and sharded runs with faults enabled are bit-identical at any --jobs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "memsys/lifetime.hpp"
#include "nvm/timing.hpp"

namespace nvmenc {

/// Stuck cells a line tolerates before escalating to SAFER.
inline constexpr usize kStuckCellBudget = 2;
/// SAFER re-partitions a line may consume before it is retired.
inline constexpr usize kSaferRemapLimit = 2;
/// Bounded remapping queue absorbed by each surviving channel: a slot
/// drains per kRemapDrainNs of virtual time; the first arrival beyond
/// kRemapQueueCapacity pays kRemapPenaltyNs, doubling per slot over.
inline constexpr usize kRemapQueueCapacity = 32;
inline constexpr double kRemapDrainNs = 100.0;
inline constexpr double kRemapPenaltyNs = 250.0;

/// What a run chooses of the RAS layer: fault rates, the pulse ladder,
/// spares, scrub, the degrade threshold, a scripted kill and aging. The
/// SAFER limit and the remap queue are the constants above.
struct RasConfig {
  /// Fault rates and seed, reusing the controller-path injector config:
  /// write_fail_rate is per array-write line pulse, read_disturb_rate per
  /// array read, stuck_rate per array write (a cell welds shut).
  FaultInjectorConfig inject;
  /// Program-and-verify pulse ladder: a failed write is re-pulsed up to
  /// this many times (each re-pulse exponentially longer, at most
  /// kMaxRetryLimit) before the write escalates to SAFER re-partition.
  usize retry_limit = 3;
  /// Per-channel spare pool; retirement consumes one spare line.
  /// Exhaustion trips the channel into degraded mode.
  usize spare_lines = 64;
  /// Virtual-time spacing of background scrub reads per channel
  /// (0 = scrub off). Scrub reads yield to demand traffic and clear
  /// accumulated read-disturb via SECDED scrub-on-read.
  double scrub_interval_ns = 0.0;
  /// Uncorrectable errors (SECDED double faults) that trip a channel.
  usize degrade_ue_threshold = 4;
  /// Scripted media failure (tests / the kill-one-channel-mid-replay
  /// scenario): channel `kill_channel` trips at `kill_at_ns` of virtual
  /// time. -1 = no scripted kill.
  int kill_channel = -1;
  double kill_at_ns = 0.0;
  /// Aging: per-line endurance, retention drift, wear leveling
  /// (memsys/lifetime.hpp). Endurance exhaustion escalates through the
  /// same SAFER -> retire -> degrade ladder as the fault stream.
  LifetimeConfig lifetime;

  /// RAS machinery active? Off (the default) keeps the fault-free
  /// scheduler path byte-identical, statistics included.
  [[nodiscard]] bool enabled() const noexcept {
    return inject.any() || kill_channel >= 0 || lifetime.enabled();
  }

  void validate() const;
};

enum class RasEventKind : u8 {
  kSaferRemap = 0,
  kRetire = 1,
  kUncorrectable = 2,
  kDegradeSpares = 3,   ///< spare pool exhausted
  kDegradeUes = 4,      ///< uncorrectable-error threshold crossed
  kDegradeKilled = 5,   ///< scripted media failure
};

[[nodiscard]] const char* ras_event_name(RasEventKind kind);

/// One entry of the deterministic RAS event log. Shards append locally;
/// reports merge the per-shard logs in channel-id order.
struct RasEvent {
  double time_ns = 0.0;
  u32 channel = 0;
  RasEventKind kind = RasEventKind::kRetire;
  u64 line = 0;

  [[nodiscard]] bool operator==(const RasEvent&) const = default;
};

/// Counters of one channel's fault and recovery activity. merge() adds
/// counters field-by-field; per-shard stats merge in channel-id order so
/// the totals are independent of worker scheduling.
struct RasStats {
  u64 faulty_writes = 0;     ///< array writes that drew >= 1 failed pulse
  u64 write_retries = 0;     ///< program-and-verify re-pulses issued
  u64 retry_exhausted = 0;   ///< pulse ladders that ran out
  u64 safer_remaps = 0;      ///< SAFER re-partitions
  u64 retired_lines = 0;     ///< lines moved to the spare pool
  u64 spare_writes = 0;      ///< array operations served by a spare line
  u64 stuck_cells = 0;       ///< hard faults accumulated
  u64 read_disturbs = 0;     ///< disturb draws on array reads
  u64 scrub_reads = 0;       ///< background scrub reads issued
  u64 scrub_corrections = 0; ///< single-bit disturbs cleaned by scrub
  u64 ue_demand = 0;         ///< uncorrectable errors hit by demand reads
  u64 ue_scrub = 0;          ///< uncorrectable errors found by scrub
  u64 remapped_in = 0;       ///< requests absorbed from degraded channels
  u64 remap_backoff = 0;     ///< congestion-backoff charges on remap inflow
  u64 spares_left = 0;       ///< spare lines remaining
  u64 degraded = 0;          ///< 1 once the channel has tripped
  double ras_busy_ns = 0.0;  ///< virtual bank time spent on recovery work
  double degraded_at_ns = 0.0;  ///< trip time (0 = healthy)

  [[nodiscard]] u64 uncorrectable() const noexcept {
    return ue_demand + ue_scrub;
  }

  void merge(const RasStats& other) noexcept;

  [[nodiscard]] bool operator==(const RasStats&) const = default;
};

/// Per-channel RAS view assembled by the drivers: channel-indexed stats,
/// the merged event log, and totals. Empty (channels.empty()) when the
/// run had no RAS layer, so fault-free reports render unchanged.
struct RasReport {
  std::vector<RasStats> channels;  ///< index == channel id
  std::vector<RasEvent> events;    ///< merged in channel-id order
  u64 events_dropped = 0;          ///< overflow beyond the per-shard cap
  /// Channel-indexed aging view; empty when the run had no lifetime
  /// model, so pre-aging reports render unchanged.
  std::vector<LifetimeStats> lifetime;

  [[nodiscard]] bool any() const noexcept { return !channels.empty(); }
  [[nodiscard]] RasStats totals() const noexcept;
  [[nodiscard]] bool lifetime_any() const noexcept {
    return !lifetime.empty();
  }
  [[nodiscard]] LifetimeStats lifetime_totals() const noexcept;

  [[nodiscard]] bool operator==(const RasReport&) const = default;
};

/// Remaps a line homed on a degraded channel onto a surviving one: the
/// survivor is picked by a SplitMix64 hash of the address (spreading the
/// displaced load deterministically) and the row digit is rewritten with
/// pin_line_to_channel, preserving the within-row offset. `degraded` is
/// indexed by channel; with no survivors the address is returned as-is
/// (the system serves in place, at whatever fidelity is left).
[[nodiscard]] u64 ras_remap_line(const MemOrg& org, u64 addr,
                                 const std::vector<u8>& degraded) noexcept;

/// One channel's media model: the seeded fault oracle, the aging model,
/// each line's fault and wear state, the recovery ladder (pulse ladder ->
/// SAFER -> retirement -> spare) and the channel's availability (spares,
/// UEs, degraded). It decides all recovery work; Outcome::bank_ns prices
/// it. Owned by a ChannelShard; not thread-safe (shards share nothing).
class FaultDomain {
 public:
  FaultDomain(const RasConfig& config, usize channel);

  /// What one array operation did to its line, and so the recovery work
  /// the shard charges to the bank in virtual time.
  struct Outcome {
    u32 retries = 0;         ///< failed pulses re-issued
    bool exhausted = false;  ///< pulse ladder ran out (escalated)
    bool spare = false;      ///< line already retired: a spare served it
    bool worn = false;       ///< this write crossed the endurance limit
    bool disturbed = false;  ///< the read drew a disturb or drift error
    bool corrected = false;  ///< scrub wrote the corrected image back
    bool remapped = false;   ///< SAFER re-partition rewrote the line
    bool retired = false;    ///< line moved to a spare this operation
    bool uncorrectable = false;  ///< SECDED double fault (line retired)

    /// Bank time of the recovery work, summed in this order: re-pulses
    /// (re-pulse r costs 2^(r-1) array writes), the scrub write-back and
    /// the SAFER rewrite (one write each), then the retirement copy or
    /// UE rebuild (read + write).
    [[nodiscard]] double bank_ns() const noexcept;
  };

  Outcome on_array_write(u64 line, double now_ns);

  /// One wear-leveling migration write to physical `line`: no fault draws
  /// (migrations copy verified images), but wear and escalation like any
  /// write. The copy's `copy_ns` of bank time and its energy accrue with
  /// the lifetime statistics.
  Outcome on_migration_write(u64 line, double now_ns, double copy_ns);

  Outcome on_demand_read(u64 line, double now_ns);

  /// Scrub-on-read: corrects a single accumulated disturb (writing the
  /// clean image back, which wears the line), escalates a double fault to
  /// retirement.
  Outcome on_scrub_read(u64 line, double now_ns);

  /// Accounts one request remapped in from a degraded channel through the
  /// bounded remapping queue: an arrival beyond its capacity returns an
  /// exponentially growing congestion backoff (ns of bank occupancy the
  /// shard must apply); 0 while the queue has room.
  [[nodiscard]] double on_remap_in(double now_ns);

  /// Next line the background scrub should read (round-robin over the
  /// lines this channel has served, skipping retired ones), or nullopt
  /// when nothing is scrubbable.
  [[nodiscard]] std::optional<u64> next_scrub_target();

  /// Scripted kill check; also applied by drivers at epoch boundaries so
  /// a killed channel trips even without further arrivals.
  void poll(double now_ns);

  void add_busy(double ns) noexcept { stats_.ras_busy_ns += ns; }

  [[nodiscard]] bool degraded() const noexcept {
    return stats_.degraded != 0;
  }
  [[nodiscard]] const RasStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<RasEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] u64 events_dropped() const noexcept { return dropped_; }
  [[nodiscard]] const RasConfig& config() const noexcept { return config_; }

  /// Aging model, or nullptr when the lifetime model is off.
  [[nodiscard]] const LifetimeEngine* lifetime() const noexcept {
    return life_ ? &*life_ : nullptr;
  }
  /// Lines this channel has ever served (retired ones included) — the
  /// denominator of the survivor-capacity metric.
  [[nodiscard]] usize lines_touched() const noexcept {
    return touched_.size();
  }

 private:
  /// Fault state of one line, held in the line's map node; `slot` is the
  /// line's first-touch index into touched_ and lives_ (u32 keeps the
  /// node at 40 bytes; touch() refuses a 2^32nd line).
  struct LineState {
    u64 write_seq = 0;   ///< per-line write event counter (draw key)
    u64 read_seq = 0;    ///< per-line read event counter (draw key)
    u32 slot = 0;
    u8 stuck = 0;        ///< hard-stuck cells accumulated
    u8 disturbs = 0;     ///< read disturbs since the last scrub
    u8 remaps = 0;       ///< SAFER re-partitions consumed
    bool retired = false;
  };
  static_assert(std::is_same_v<decltype(LineState::write_seq), u64> &&
                    std::is_same_v<decltype(LineState::read_seq), u64>,
                "fault draw keys must not wrap at run-to-failure scale");

  /// The record of `line`, made (with its aging record when aging is on)
  /// on first touch: the one lookup of each array operation.
  LineState& touch(u64 line);
  /// The array read demand and scrub reads share: the disturb and drift
  /// draws, then SECDED — a second error is uncorrectable (counted in
  /// `ue`), retires the line and may trip the UE threshold.
  Outcome read_array(u64 line, LineState& st, u64& ue, double now_ns);
  /// The ladder every array write shares (demand, scrub write-back,
  /// migration): accrue `flips` of wear (aging on), then a fault or an
  /// endurance crossing takes a SAFER re-partition while the line has
  /// budget (a worn line's limit relieved), else retires it.
  void escalate(u64 line, LineState& st, double flips, bool faulted,
                double now_ns, Outcome& out);
  /// Idempotent: a line that is already retired consumes nothing, so a
  /// demand-write failure and a scrub UE on the same line in the same
  /// epoch retire it exactly once. Spare exhaustion trips the channel.
  void retire(u64 line, LineState& st, double now_ns, Outcome& out);
  void trip(double now_ns, RasEventKind why);
  void log(double now_ns, RasEventKind kind, u64 line);
  /// The aging record of a line (aging on).
  LineLife& life_of(const LineState& st) noexcept;

  RasConfig config_;
  usize channel_;
  FaultInjector injector_;  ///< the seeded draw cascade (and its config)
  std::optional<LifetimeEngine> life_;  ///< aging (lifetime.enabled() only)
  std::unordered_map<u64, LineState> lines_;  ///< the one per-line map
  /// Slot-indexed: each line in first-touch order (the scrub scan list),
  /// and its aging record (none with aging off) in fixed blocks that
  /// never move, so growth neither copies records nor strands a buffer
  /// and a lookup is a shift and a mask.
  std::vector<u64> touched_;
  std::vector<std::unique_ptr<LineLife[]>> lives_;
  usize scrub_cursor_ = 0;
  double remap_depth_ = 0.0;    ///< remapping-queue fill (drains linearly)
  double remap_last_ns_ = 0.0;  ///< last drain timestamp
  RasStats stats_;
  std::vector<RasEvent> events_;
  u64 dropped_ = 0;
};

}  // namespace nvmenc
