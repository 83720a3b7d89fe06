// Lifetime engine: deterministic wear-out, retention drift, and
// wear-leveling for the multi-channel memory system.
//
// The scheduler simulation priced faults in time (memsys/ras.hpp) but ran
// on media that never aged: per-line wear existed only in the synchronous
// NvmDevice path and the src/wear levelers were never consulted by a
// ChannelShard. This module closes that gap. Three mechanisms, their
// per-line state kept by the shard's FaultDomain (the translator by the
// shard) so they inherit the share-nothing determinism contract:
//
//   * Endurance: every line draws a write-endurance limit from a lognormal
//     process-variation model, keyed (seed, channel, line) — serial and
//     sharded runs sample identical limits at any --jobs. Wear accrues per
//     array write from the *per-scheme flip count* (calibrated from the
//     real encoders), so READ+SAE's flip savings translate directly into
//     more writes before exhaustion. Crossing the limit feeds the existing
//     RAS escalation ladder: SAFER re-partition (which buys relief by
//     spreading load into fresh cells) -> spare retirement -> channel
//     degradation.
//   * Retention drift: each line carries a last-write virtual timestamp;
//     read/scrub error probability grows with time-since-write,
//     1 - exp(-age/tau), via draws keyed (line, writes, reads). A
//     scrub correction writes the image back and resets the drift clock,
//     making the scrub interval a real drift-vs-bandwidth trade-off.
//   * Wear leveling: a channel-local WearLevelTranslator runs a src/wear
//     leveler (Start-Gap or Security Refresh) per region of the channel's
//     address space. The translation is channel-preserving and bijective,
//     composing with pin_line_to_channel and the RAS survivor remap into
//     one logical->physical chain; leveling-induced migration writes are
//     charged to bank time, the energy ledger, and endurance.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "nvm/timing.hpp"
#include "wear/wear_leveler.hpp"

namespace nvmenc {

enum class WearLevelerKind : u8 {
  kNone = 0,
  kStartGap = 1,
  kSecurityRefresh = 2,
};

[[nodiscard]] const char* wear_leveler_name(WearLevelerKind kind);
/// Parses "none" | "start-gap" | "security-refresh"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] WearLevelerKind wear_leveler_by_name(const std::string& name);

/// Wear charged to the destination of a leveler migration: a full-line
/// differential write against unrelated old content flips half the cells
/// in expectation, regardless of the scheme (encoders only help *related*
/// transitions). Matches the src/wear levelers' default move cost.
inline constexpr double kMigrationWearFlips =
    static_cast<double>(kLineBits) / 2.0;

/// Energy charged per migration write: one line read (512 bit * 0.2 pJ)
/// plus a half-line differential write at the mean SET/RESET cost
/// ((13.5 + 19.2) / 2 pJ * 256) — see nvm/energy_model.hpp defaults.
inline constexpr double kMigrationEnergyPj = 4288.0;

struct LifetimeConfig {
  /// Median per-line endurance in cell flips (0 = endurance off). The
  /// paper quotes 1e8..1e10 writes for PCM; at line granularity the knob
  /// is flips, so a scheme that halves flips doubles writes-to-failure.
  double endurance_mean_flips = 0.0;
  /// Lognormal process-variation sigma: limit = median * exp(sigma * z).
  double endurance_sigma = 0.25;
  /// Flips charged per array write — the per-scheme cost. Default is the
  /// uncalibrated half-line expectation; the CLI calibrates it from the
  /// real encoder (calibrate_write_cost) per scheme.
  double wear_per_write_flips = kMigrationWearFlips;
  /// Accelerated aging: scales both wear accrual and drift-clock age so
  /// run-to-failure sweeps terminate in simulable time.
  double age_multiplier = 1.0;
  /// Retention-drift time constant in virtual ns (0 = drift off): a read
  /// `dt` after the last write errors with p = 1 - exp(-dt*age/tau).
  double retention_tau_ns = 0.0;
  /// SAFER re-partition of a worn line extends its limit by this fraction
  /// (fresh cells absorb the hot positions).
  double safer_relief = 0.10;
  /// Wear-leveling translation applied inside each shard.
  WearLevelerKind leveler = WearLevelerKind::kNone;
  /// Demand writes between leveler migration steps.
  usize wl_interval = 128;
  /// Lines per leveling region (power of two for Security Refresh).
  usize wl_region_lines = 1024;
  /// Seed of the endurance/drift draw cascade (independent of the fault
  /// injector's so lifetime and fault streams never alias).
  u64 seed = 0x11fe;

  /// Any lifetime machinery active? Off (the default) keeps the RAS and
  /// fault-free paths byte-identical to earlier revisions.
  [[nodiscard]] bool enabled() const noexcept {
    return endurance_mean_flips > 0.0 || retention_tau_ns > 0.0 ||
           leveler != WearLevelerKind::kNone;
  }

  void validate() const;
};

/// Counters of one channel's aging activity; merge() folds channels in
/// channel-id order (sums, with max/min semantics where noted).
struct LifetimeStats {
  u64 lines_tracked = 0;   ///< lines with sampled endurance / drift state
  u64 wear_writes = 0;     ///< array writes that accrued wear
  double wear_flips = 0.0; ///< total flips accrued (age-scaled)
  double max_wear_frac = 0.0;  ///< hottest line's wear / limit (merge: max)
  u64 worn_lines = 0;      ///< endurance-limit crossings
  u64 wear_safer = 0;      ///< crossings absorbed by SAFER re-partition
  u64 wear_retired = 0;    ///< crossings that retired the line
  u64 drift_errors = 0;    ///< retention-drift disturbs drawn
  u64 wl_writes = 0;       ///< demand writes observed by the leveler
  u64 wl_moves = 0;        ///< leveler migration writes issued
  double wl_busy_ns = 0.0;    ///< bank time charged to migrations
  double wl_energy_pj = 0.0;  ///< energy charged to migrations
  double wl_uniformity = 0.0; ///< mean/max slot wear (merge: worst channel)
  double first_wearout_ns = 0.0;  ///< earliest crossing (merge: min nonzero)

  void merge(const LifetimeStats& other) noexcept;

  [[nodiscard]] bool operator==(const LifetimeStats&) const = default;
};

/// Aging state of one line. FaultDomain keeps one per line it has served,
/// slot-indexed next to the line's fault state, while aging is on.
struct LineLife {
  double wear = 0.0;
  double limit = 0.0;
  double last_write_ns = 0.0;
  u64 writes = 0;  ///< drift draw key (high half)
  u64 reads = 0;   ///< drift draw key (low half)
  bool tracked = false;  ///< endurance drawn (counted in lines_tracked)
};

/// Key of a line's retention-drift draw after `writes` writes and `reads`
/// earlier reads: `seq` = (writes << 32) | reads over the low halves, and
/// `high` the high halves, folded into the draw only when non-zero. Below
/// 2^32 the key is the plain 64-bit one; no pair repeats a key above it.
struct DriftKey {
  u64 seq = 0;
  u64 high = 0;
  [[nodiscard]] bool operator==(const DriftKey&) const = default;
};
[[nodiscard]] constexpr DriftKey drift_key(u64 writes, u64 reads) noexcept {
  return {(writes << 32) | (reads & 0xffff'ffffu),
          ((writes >> 32) << 32) | (reads >> 32)};
}

/// The aging model of one channel: the keyed endurance draw, wear accrual
/// and the drift probability, as functions over a line's LineLife record
/// (the caller owns the records), plus the channel's LifetimeStats. Every
/// draw is keyed (seed, channel, line, sequence), never by call order, so
/// a shard's aging stream is a pure function of its own arrival sequence.
class LifetimeEngine {
 public:
  LifetimeEngine(const LifetimeConfig& config, usize channel);

  /// Accrues `flips` (age-scaled) of wear for one array write and resets
  /// the drift clock; true when this write crossed the endurance limit.
  bool on_write(u64 line, LineLife& life, double flips, double now_ns);

  /// Retention-drift draw for one array read: true = the read sees a
  /// drifted (disturb-equivalent) error.
  [[nodiscard]] bool drift_on_read(u64 line, LineLife& life, double now_ns);

  /// SAFER re-partition of a worn line: extends its limit by
  /// safer_relief and counts the crossing as absorbed.
  void relieve(u64 line, LineLife& life);
  /// A worn line was retired into the spare pool.
  void note_retired() noexcept { ++stats_.wear_retired; }
  /// One leveler migration copy: its bank time and energy.
  void note_migration(double copy_ns) noexcept {
    stats_.wl_busy_ns += copy_ns;
    stats_.wl_energy_pj += kMigrationEnergyPj;
  }

  /// Sampled endurance limit of `line` (for tests; tracks the record).
  [[nodiscard]] double limit_flips(u64 line, LineLife& life);

  [[nodiscard]] const LifetimeStats& stats() const noexcept {
    return stats_;
  }

 private:
  /// Draws the line's endurance limit on the model's first touch.
  LineLife& track(u64 line, LineLife& life);

  LifetimeConfig config_;
  usize channel_;
  LifetimeStats stats_;
};

/// Channel-local line index of a (line-aligned) byte address: rows are
/// interleaved over channels, so the channel digit is divided out and the
/// within-row line offset kept. Inverse of channel_local_line_addr.
[[nodiscard]] inline u64 channel_local_line_index(const MemOrg& org,
                                                  u64 line_addr) noexcept {
  const u64 lines_per_row = org.row_bytes / kLineBytes;
  const u64 row_id = line_addr / org.row_bytes;
  return (row_id / org.channels) * lines_per_row +
         (line_addr % org.row_bytes) / kLineBytes;
}

/// Line-aligned byte address of channel-local line `index` on `channel`.
[[nodiscard]] inline u64 channel_local_line_addr(const MemOrg& org,
                                                 usize channel,
                                                 u64 index) noexcept {
  const u64 lines_per_row = org.row_bytes / kLineBytes;
  const u64 row_id = (index / lines_per_row) * org.channels + channel;
  return row_id * org.row_bytes + (index % lines_per_row) * kLineBytes;
}

/// Wear-leveling address translation for one channel: the channel-local
/// index space is carved into wl_region_lines-sized regions, each rotated
/// by its own src/wear leveler (lazily built, keyed (seed, channel,
/// region) so construction order cannot matter). Start-Gap regions map N
/// logical lines over N+1 physical slots, so physical indices stride by
/// region_lines + 1 — globally bijective, never aliasing two logical
/// lines (RegionedLeveler uses the same layout). The translation is
/// channel-preserving: it composes with channel routing, pin_line_to_
/// channel and ras_remap_line without disturbing them.
class WearLevelTranslator {
 public:
  WearLevelTranslator(const LifetimeConfig& config, const MemOrg& org,
                      usize channel);

  /// Physical line address currently backing logical `line_addr` (which
  /// must be homed on this translator's channel).
  [[nodiscard]] u64 translate(u64 line_addr);

  /// One demand-write arrival to logical `line_addr`: returns the physical
  /// line it lands on (the mapping before this write), then advances the
  /// region's leveler, looking the region up once. migrated() lists the
  /// physical lines the migration steps it triggered wrote.
  u64 translate_write(u64 line_addr);
  [[nodiscard]] const std::vector<u64>& migrated() const noexcept {
    return dests_;
  }

  [[nodiscard]] u64 demand_writes() const noexcept { return demand_writes_; }
  [[nodiscard]] u64 migrations() const noexcept { return migrations_; }
  /// mean/max slot wear over every region touched (1 = perfect leveling,
  /// 0 = nothing written yet).
  [[nodiscard]] double uniformity() const;

 private:
  WearLeveler& region(u64 region_id);
  /// Channel-local address of slot `slot` of region `region_id`.
  [[nodiscard]] u64 physical(u64 region_id, usize slot) const noexcept;

  LifetimeConfig config_;
  MemOrg org_;
  usize channel_;
  std::unordered_map<u64, std::unique_ptr<WearLeveler>> regions_;
  std::vector<usize> slots_;  ///< migration-slot scratch
  std::vector<u64> dests_;    ///< migration-address scratch
  u64 demand_writes_ = 0;
  u64 migrations_ = 0;
};

}  // namespace nvmenc
