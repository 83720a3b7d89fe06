// The channel media model as the repository shipped it before FaultDomain
// took each line's fault and wear state into one record, kept verbatim as
// a differential-testing oracle: FaultDomain with its per-line hash map
// and two escalation paths, LifetimeEngine with its own per-line map, and
// WearLevelTranslator with its separate translate and on_write lookups.
// The only edit: the RasConfig and LifetimeConfig fields deleted since
// (stuck_cell_budget, remap_drain_ns, remap_penalty_ns) read the
// constants that replaced them, with the same values.
//
// test_fault_domain_differential.cpp drives this FaultDomain and the
// production one op for op; reference_shard.hpp builds its shard on these
// classes, so test_shard_differential.cpp holds the production shard and
// media model to the whole earlier stack.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "memsys/lifetime.hpp"
#include "memsys/ras.hpp"
#include "nvm/timing.hpp"
#include "wear/wear_leveler.hpp"

namespace nvmenc::testutil {

// Draw-key salts. The controller-path injector uses salts 0 (store) and
// 1 (load); the RAS layer shifts the channel id above a kind byte so no
// (line, seq, salt) triple can collide across channels or with the
// synchronous path.
inline constexpr u64 kSaltWrite = 2;
inline constexpr u64 kSaltRead = 3;
[[nodiscard]] constexpr u64 ras_salt(usize channel, u64 kind) noexcept {
  return (static_cast<u64>(channel) << 8) | kind;
}

// Per-shard event-log cap: enough to show how a channel died without
// letting a pathological fault rate grow the log without bound. Overflow
// is counted, never silently dropped.
inline constexpr usize kMaxEventsPerShard = 32;

// Draw-key salts of the lifetime cascade. The cascade is seeded from
// LifetimeConfig::seed, independent of the FaultInjector's, so endurance
// and drift draws can never alias the RAS fault stream.
inline constexpr u64 kSaltEndurance = 0;
inline constexpr u64 kSaltDrift = 1;

[[nodiscard]] inline Xoshiro256 lifetime_rng(u64 seed, usize channel, u64 line,
                                             u64 seq, u64 salt) noexcept {
  // Three independent SplitMix64 streams folded together, the same
  // cascade shape as FaultInjector::event_rng: any change in (channel,
  // line, seq, salt) decorrelates the whole draw.
  SplitMix64 a{seed};
  SplitMix64 b{line + 0x9e3779b97f4a7c15ull * (seq + 1)};
  SplitMix64 c{(static_cast<u64>(channel) << 8) | salt};
  return Xoshiro256{a.next() ^ b.next() ^ c.next()};
}

/// Standard normal via Box-Muller; u1 is mapped into (0, 1] so log never
/// sees zero.
[[nodiscard]] inline double standard_normal(Xoshiro256& rng) noexcept {
  const double u1 = 1.0 - rng.next_double();
  const double u2 = rng.next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}


/// Per-line endurance and drift state of one channel. Owned by the
/// shard's FaultDomain; every draw is keyed (seed, channel, line,
/// sequence), never by call order, so a shard's aging stream is a pure
/// function of its own arrival sequence.
class LifetimeEngine {
 public:
  LifetimeEngine(const LifetimeConfig& config, usize channel);

  struct WearOutcome {
    bool worn = false;  ///< this write crossed the line's endurance limit
  };
  /// Accrues `flips` (age-scaled) of wear for one array write and resets
  /// the drift clock.
  WearOutcome on_write(u64 line, double flips, double now_ns);

  /// Retention-drift draw for one array read: true = the read sees a
  /// drifted (disturb-equivalent) error.
  [[nodiscard]] bool drift_on_read(u64 line, double now_ns);

  /// Scrub wrote the corrected image back: restart the drift clock.
  void refresh(u64 line, double now_ns);

  /// SAFER re-partition of a worn line: extends its limit by
  /// safer_relief and counts the crossing as absorbed.
  void relieve(u64 line);
  /// A worn line was retired into the spare pool.
  void note_retired() noexcept { ++stats_.wear_retired; }

  /// Sampled endurance limit of `line` (for tests; materializes state).
  [[nodiscard]] double limit_flips(u64 line);

  [[nodiscard]] const LifetimeStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct LineLife {
    double wear = 0.0;
    double limit = 0.0;
    double last_write_ns = 0.0;
    u32 writes = 0;  ///< drift draw key (high half)
    u32 reads = 0;   ///< drift draw key (low half)
  };

  LineLife& touch(u64 line);

  LifetimeConfig config_;
  usize channel_;
  std::unordered_map<u64, LineLife> lines_;
  LifetimeStats stats_;
};

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

  /// Observes one demand-write arrival to logical `line_addr`, advancing
  /// the region's leveler; returns the physical line addresses written by
  /// any migration steps it triggered (buffer reused across calls).
  const std::vector<u64>& on_write(u64 line_addr);

  [[nodiscard]] u64 demand_writes() const noexcept { return demand_writes_; }
  [[nodiscard]] u64 migrations() const noexcept { return migrations_; }
  /// mean/max slot wear over every region touched (1 = perfect leveling,
  /// 0 = nothing written yet).
  [[nodiscard]] double uniformity() const;

 private:
  WearLeveler& region(u64 region_id);

  LifetimeConfig config_;
  MemOrg org_;
  usize channel_;
  std::unordered_map<u64, std::unique_ptr<WearLeveler>> regions_;
  std::vector<usize> slots_;  ///< migration-slot scratch
  std::vector<u64> dests_;    ///< migration-address scratch
  u64 demand_writes_ = 0;
  u64 migrations_ = 0;
};

/// One channel's fault domain: the seeded fault oracle plus the per-line
/// recovery state machine (pulse ladder -> SAFER -> retirement -> spare)
/// and the channel's availability state (spares, UEs, degraded). Owned by
/// a ChannelShard; not thread-safe (shards share nothing).
class FaultDomain {
 public:
  FaultDomain(const RasConfig& config, usize channel);

  /// Outcome of one array write, with the recovery work the shard must
  /// charge to the bank in virtual time.
  struct WriteOutcome {
    usize retries = 0;      ///< failed pulses re-issued
    bool exhausted = false; ///< ladder ran out (escalated)
    bool remapped = false;  ///< SAFER re-partition rewrote the line
    bool retired = false;   ///< line moved to a spare this write
    bool spare = false;     ///< served by an already-retired line's spare
    bool worn = false;      ///< this write crossed the endurance limit
  };
  WriteOutcome on_array_write(u64 line, double now_ns);

  /// One wear-leveling migration write landing on physical `line`: no
  /// fault draws (migrations copy verified images), but the destination
  /// pays endurance wear and a worn destination escalates through the
  /// ladder like any other crossing.
  struct MigrateOutcome {
    bool remapped = false;  ///< worn destination absorbed by SAFER
    bool retired = false;   ///< worn destination retired to a spare
  };
  MigrateOutcome on_migration_write(u64 line, double now_ns);

  struct ReadOutcome {
    bool disturbed = false;
    bool uncorrectable = false;  ///< SECDED double fault: line retired
  };
  ReadOutcome on_demand_read(u64 line, double now_ns);

  /// Scrub-on-read: corrects a single accumulated disturb (writing the
  /// clean image back), escalates a double fault to retirement.
  struct ScrubOutcome {
    bool corrected = false;      ///< clean image written back
    bool uncorrectable = false;  ///< SECDED double fault: line retired
    bool remapped = false;       ///< write-back wore the line: SAFER
    bool retired_worn = false;   ///< write-back wore the line: retired
  };
  ScrubOutcome on_scrub_read(u64 line, double now_ns);

  /// Accounts one request remapped in from a degraded channel through the
  /// bounded remapping queue: queue slots drain one per remap_drain_ns of
  /// virtual time, and arrivals beyond the capacity return an
  /// exponentially growing congestion-backoff charge (ns of bank
  /// occupancy the shard must apply); 0 when the queue has room.
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

  /// Aging engine, or nullptr when the lifetime model is off.
  [[nodiscard]] const LifetimeEngine* lifetime() const noexcept {
    return life_ ? &*life_ : nullptr;
  }
  /// Lines this channel has ever served (retired ones included) — the
  /// denominator of the survivor-capacity metric.
  [[nodiscard]] usize lines_touched() const noexcept {
    return lines_.size();
  }

 private:
  struct LineState {
    u32 write_seq = 0;   ///< per-line write event counter (draw key)
    u32 read_seq = 0;    ///< per-line read event counter (draw key)
    u8 stuck = 0;        ///< hard-stuck cells accumulated
    u8 disturbs = 0;     ///< read disturbs since the last scrub
    u8 remaps = 0;       ///< SAFER re-partitions consumed
    bool retired = false;
  };

  LineState& touch(u64 line);
  /// Idempotent: a line that is already retired consumes nothing, so a
  /// demand-write failure and a scrub UE on the same line in the same
  /// epoch retire it exactly once.
  void retire(u64 line, LineState& st, double now_ns);
  void trip(double now_ns, RasEventKind why);
  void log(double now_ns, RasEventKind kind, u64 line);
  /// Sends an endurance crossing through the SAFER -> retire ladder.
  /// Returns {remapped, retired}.
  MigrateOutcome escalate_worn(u64 line, LineState& st, double now_ns);

  RasConfig config_;
  usize channel_;
  FaultInjector injector_;  ///< the seeded draw cascade (and its config)
  std::optional<LifetimeEngine> life_;  ///< aging (lifetime.enabled() only)
  std::unordered_map<u64, LineState> lines_;
  std::vector<u64> touched_;  ///< first-touch order: the scrub scan list
  usize scrub_cursor_ = 0;
  double remap_depth_ = 0.0;    ///< remapping-queue fill (drains linearly)
  double remap_last_ns_ = 0.0;  ///< last drain timestamp
  RasStats stats_;
  std::vector<RasEvent> events_;
  u64 dropped_ = 0;
};

// -------------------------------------------------------------- engine --

inline LifetimeEngine::LifetimeEngine(const LifetimeConfig& config,
                                      usize channel)
    : config_{config}, channel_{channel} {
  config_.validate();
}

inline LifetimeEngine::LineLife& LifetimeEngine::touch(u64 line) {
  auto [it, inserted] = lines_.try_emplace(line);
  if (inserted) {
    if (config_.endurance_mean_flips > 0.0) {
      Xoshiro256 rng =
          lifetime_rng(config_.seed, channel_, line, 0, kSaltEndurance);
      it->second.limit =
          config_.endurance_mean_flips *
          std::exp(config_.endurance_sigma * standard_normal(rng));
    } else {
      it->second.limit = std::numeric_limits<double>::infinity();
    }
    ++stats_.lines_tracked;
  }
  return it->second;
}

inline LifetimeEngine::WearOutcome LifetimeEngine::on_write(u64 line,
                                                            double flips,
                                                            double now_ns) {
  WearOutcome out;
  LineLife& life = touch(line);
  const double add = flips * config_.age_multiplier;
  const bool was_below = life.wear < life.limit;
  life.wear += add;
  life.last_write_ns = now_ns;
  ++life.writes;
  ++stats_.wear_writes;
  stats_.wear_flips += add;
  if (std::isfinite(life.limit) && life.limit > 0.0) {
    stats_.max_wear_frac =
        std::max(stats_.max_wear_frac, life.wear / life.limit);
  }
  if (was_below && life.wear >= life.limit) {
    out.worn = true;
    ++stats_.worn_lines;
    if (stats_.first_wearout_ns <= 0.0) stats_.first_wearout_ns = now_ns;
  }
  return out;
}

inline bool LifetimeEngine::drift_on_read(u64 line, double now_ns) {
  if (config_.retention_tau_ns <= 0.0) return false;
  LineLife& life = touch(line);
  const u64 seq = (static_cast<u64>(life.writes) << 32) | life.reads;
  ++life.reads;
  // Lines never written in the run count as written at t = 0 (the
  // pre-run image), so cold data drifts too.
  const double age = (now_ns - life.last_write_ns) * config_.age_multiplier;
  if (age <= 0.0) return false;
  const double p = 1.0 - std::exp(-age / config_.retention_tau_ns);
  Xoshiro256 rng = lifetime_rng(config_.seed, channel_, line, seq, kSaltDrift);
  if (!rng.next_bool(p)) return false;
  ++stats_.drift_errors;
  return true;
}

inline void LifetimeEngine::refresh(u64 line, double now_ns) {
  touch(line).last_write_ns = now_ns;
}

inline void LifetimeEngine::relieve(u64 line) {
  LineLife& life = touch(line);
  if (std::isfinite(life.limit)) {
    life.limit *= 1.0 + kSaferRelief;
  }
  ++stats_.wear_safer;
}

inline double LifetimeEngine::limit_flips(u64 line) {
  return touch(line).limit;
}

// ---------------------------------------------------------- translator --

inline WearLevelTranslator::WearLevelTranslator(const LifetimeConfig& config,
                                                const MemOrg& org,
                                                usize channel)
    : config_{config}, org_{org}, channel_{channel} {
  config_.validate();
  require(config_.leveler != WearLevelerKind::kNone,
          "translator needs a leveler");
  require(kRowBytes % kLineBytes == 0,
          "row size must be a whole number of lines");
}

inline WearLeveler& WearLevelTranslator::region(u64 region_id) {
  auto it = regions_.find(region_id);
  if (it == regions_.end()) {
    std::unique_ptr<WearLeveler> leveler;
    if (config_.leveler == WearLevelerKind::kStartGap) {
      leveler = std::make_unique<StartGapLeveler>(config_.wl_region_lines,
                                                  config_.wl_interval);
    } else {
      // Keyed (seed, channel, region) so the mapping never depends on the
      // order regions are first touched.
      const u64 key = SplitMix64{config_.seed ^ 0x5ec5eedull}.next() ^
                      SplitMix64{(static_cast<u64>(channel_) << 40) ^
                                 region_id}
                          .next();
      leveler = std::make_unique<SecurityRefreshLeveler>(
          config_.wl_region_lines, config_.wl_interval, kLineBits / 2, key);
    }
    it = regions_.emplace(region_id, std::move(leveler)).first;
  }
  return *it->second;
}

inline u64 WearLevelTranslator::translate(u64 line_addr) {
  NVMENC_DCHECK(channel_of_line(org_, line_addr) == channel_,
                "translating a line homed on another channel");
  const u64 index = channel_local_line_index(org_, line_addr);
  const u64 region_id = index / config_.wl_region_lines;
  const u64 inner = index % config_.wl_region_lines;
  const usize slot = region(region_id).map(inner * kLineBytes);
  // Regions stride by region_lines + 1 physical slots: Start-Gap's spare
  // slot gets its own address, keeping the global map injective.
  const u64 physical =
      region_id * (config_.wl_region_lines + 1) + slot;
  return channel_local_line_addr(org_, channel_, physical);
}

inline const std::vector<u64>& WearLevelTranslator::on_write(u64 line_addr) {
  dests_.clear();
  const u64 index = channel_local_line_index(org_, line_addr);
  const u64 region_id = index / config_.wl_region_lines;
  const u64 inner = index % config_.wl_region_lines;
  WearLeveler& leveler = region(region_id);
  leveler.on_write(inner * kLineBytes,
                   static_cast<usize>(config_.wear_per_write_flips));
  ++demand_writes_;
  slots_.clear();
  leveler.drain_migrations(slots_);
  for (const usize slot : slots_) {
    dests_.push_back(channel_local_line_addr(
        org_, channel_,
        region_id * (config_.wl_region_lines + 1) + slot));
  }
  migrations_ += dests_.size();
  return dests_;
}

inline double WearLevelTranslator::uniformity() const {
  u64 sum = 0;
  u64 max = 0;
  usize slots = 0;
  for (const auto& [id, leveler] : regions_) {
    for (const u64 w : leveler->physical_wear()) {
      sum += w;
      max = std::max(max, w);
      ++slots;
    }
  }
  if (max == 0 || slots == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(slots) /
         static_cast<double>(max);
}

inline FaultDomain::FaultDomain(const RasConfig& config, usize channel)
    : config_{config}, channel_{channel}, injector_{config.inject} {
  config_.validate();
  if (config_.lifetime.enabled()) {
    life_.emplace(config_.lifetime, channel);
  }
  stats_.spares_left = config_.spare_lines;
  events_.reserve(kMaxEventsPerShard);
}

inline FaultDomain::LineState& FaultDomain::touch(u64 line) {
  auto [it, inserted] = lines_.try_emplace(line);
  if (inserted) touched_.push_back(line);
  return it->second;
}

inline void FaultDomain::log(double now_ns, RasEventKind kind, u64 line) {
  if (events_.size() >= kMaxEventsPerShard) {
    ++dropped_;
    return;
  }
  events_.push_back({now_ns, static_cast<u32>(channel_), kind, line});
}

inline void FaultDomain::trip(double now_ns, RasEventKind why) {
  if (stats_.degraded != 0) return;
  stats_.degraded = 1;
  stats_.degraded_at_ns = now_ns;
  log(now_ns, why, 0);
}

inline void FaultDomain::retire(u64 line, LineState& st, double now_ns) {
  if (st.retired) return;  // idempotent: one spare per line, ever
  st.retired = true;
  ++stats_.retired_lines;
  log(now_ns, RasEventKind::kRetire, line);
  if (stats_.spares_left > 0) {
    --stats_.spares_left;
    if (stats_.spares_left == 0) {
      trip(now_ns, RasEventKind::kDegradeSpares);
    }
  } else {
    trip(now_ns, RasEventKind::kDegradeSpares);
  }
}

inline FaultDomain::WriteOutcome FaultDomain::on_array_write(u64 line,
                                                             double now_ns) {
  poll(now_ns);
  WriteOutcome out;
  LineState& st = touch(line);
  const u64 seq = st.write_seq++;
  if (st.retired) {
    // Already living in the spare pool: spares are modelled as pristine
    // media, so the write lands cleanly (and is counted as such).
    ++stats_.spare_writes;
    out.spare = true;
    return out;
  }
  Xoshiro256 rng =
      injector_.event_rng(line, seq, ras_salt(channel_, kSaltWrite));

  // Program-and-verify pulse ladder: the initial pulse plus up to
  // retry_limit re-pulses, each an independent failure draw. The shard
  // charges each re-pulse exponentially more bank time.
  bool landed = !rng.next_bool(config_.inject.write_fail_rate);
  if (!landed) {
    ++stats_.faulty_writes;
    while (!landed && out.retries < config_.retry_limit) {
      ++out.retries;
      ++stats_.write_retries;
      landed = !rng.next_bool(config_.inject.write_fail_rate);
    }
    if (!landed) {
      out.exhausted = true;
      ++stats_.retry_exhausted;
    }
  }
  // Wear: each write may weld a cell shut, independent of pulse success.
  if (rng.next_bool(config_.inject.stuck_rate)) {
    st.stuck = static_cast<u8>(std::min<u32>(st.stuck + 1u, 255u));
    ++stats_.stuck_cells;
  }
  // Endurance: the write accrues the per-scheme flip cost; the re-pulses
  // above stress cells too but are already priced in the retry ladder.
  if (life_) {
    out.worn =
        life_
            ->on_write(line, config_.lifetime.wear_per_write_flips, now_ns)
            .worn;
  }

  // Escalation: a ladder that ran dry, more stuck cells than the encoder
  // can mask, or an endurance crossing goes to SAFER re-partition; a line
  // out of SAFER budget is retired into the spare pool.
  if (out.exhausted || st.stuck > kStuckCellBudget || out.worn) {
    if (st.remaps < kSaferRemapLimit) {
      st.remaps = static_cast<u8>(st.remaps + 1);
      ++stats_.safer_remaps;
      out.remapped = true;
      log(now_ns, RasEventKind::kSaferRemap, line);
      // Re-partitioning spreads the hot positions into fresh cells, so a
      // worn line buys itself a slice of extra endurance.
      if (out.worn) life_->relieve(line);
    } else {
      retire(line, st, now_ns);
      out.retired = true;
      if (out.worn) life_->note_retired();
    }
  }
  return out;
}

inline FaultDomain::MigrateOutcome FaultDomain::escalate_worn(u64 line,
                                                              LineState& st,
                                                              double now_ns) {
  MigrateOutcome out;
  if (st.remaps < kSaferRemapLimit) {
    st.remaps = static_cast<u8>(st.remaps + 1);
    ++stats_.safer_remaps;
    out.remapped = true;
    log(now_ns, RasEventKind::kSaferRemap, line);
    life_->relieve(line);
  } else {
    retire(line, st, now_ns);
    out.retired = true;
    life_->note_retired();
  }
  return out;
}

inline FaultDomain::MigrateOutcome FaultDomain::on_migration_write(
    u64 line, double now_ns) {
  MigrateOutcome out;
  if (!life_) return out;
  LineState& st = touch(line);
  if (st.retired) {
    ++stats_.spare_writes;
    return out;
  }
  if (life_->on_write(line, kMigrationWearFlips, now_ns).worn) {
    out = escalate_worn(line, st, now_ns);
  }
  return out;
}

inline FaultDomain::ReadOutcome FaultDomain::on_demand_read(u64 line,
                                                            double now_ns) {
  poll(now_ns);
  ReadOutcome out;
  LineState& st = touch(line);
  const u64 seq = st.read_seq++;
  if (st.retired) return out;  // spares read cleanly
  Xoshiro256 rng =
      injector_.event_rng(line, seq, ras_salt(channel_, kSaltRead));
  u32 hits = rng.next_bool(config_.inject.read_disturb_rate) ? 1u : 0u;
  // Retention drift reads back as a disturb-equivalent error: the cell
  // relaxed since the last write, SECDED sees a flipped bit.
  if (life_ && life_->drift_on_read(line, now_ns)) ++hits;
  if (hits == 0) return out;
  out.disturbed = true;
  stats_.read_disturbs += hits;
  st.disturbs = static_cast<u8>(std::min<u32>(st.disturbs + hits, 255u));
  if (st.disturbs >= 2) {
    // SECDED(72,64) corrects one error; two accumulated disturbs are
    // detected but uncorrectable. Recover from the spare pool.
    out.uncorrectable = true;
    ++stats_.ue_demand;
    log(now_ns, RasEventKind::kUncorrectable, line);
    retire(line, st, now_ns);
    if (stats_.uncorrectable() >= config_.degrade_ue_threshold) {
      trip(now_ns, RasEventKind::kDegradeUes);
    }
  }
  return out;
}

inline FaultDomain::ScrubOutcome FaultDomain::on_scrub_read(u64 line,
                                                            double now_ns) {
  ScrubOutcome out;
  ++stats_.scrub_reads;
  LineState& st = touch(line);
  const u64 seq = st.read_seq++;
  if (st.retired) return out;
  // A scrub read is still an array read: it can disturb the line it is
  // trying to clean (same keyed draw stream as demand reads), and it sees
  // retention drift exactly like a demand read does.
  Xoshiro256 rng =
      injector_.event_rng(line, seq, ras_salt(channel_, kSaltRead));
  u32 hits = rng.next_bool(config_.inject.read_disturb_rate) ? 1u : 0u;
  if (life_ && life_->drift_on_read(line, now_ns)) ++hits;
  stats_.read_disturbs += hits;
  st.disturbs = static_cast<u8>(std::min<u32>(st.disturbs + hits, 255u));
  if (st.disturbs >= 2) {
    out.uncorrectable = true;
    ++stats_.ue_scrub;
    log(now_ns, RasEventKind::kUncorrectable, line);
    retire(line, st, now_ns);
    if (stats_.uncorrectable() >= config_.degrade_ue_threshold) {
      trip(now_ns, RasEventKind::kDegradeUes);
    }
  } else if (st.disturbs == 1) {
    // SECDED corrects the single flip; write the clean image back so the
    // disturb count restarts from zero — the whole point of scrubbing.
    st.disturbs = 0;
    ++stats_.scrub_corrections;
    out.corrected = true;
    if (life_) {
      // The write-back restarts the drift clock (on_write stamps the
      // line) but is itself an array write: it wears the line, and a
      // crossing escalates right here.
      if (life_
              ->on_write(line, config_.lifetime.wear_per_write_flips,
                         now_ns)
              .worn) {
        const MigrateOutcome esc = escalate_worn(line, st, now_ns);
        out.remapped = esc.remapped;
        out.retired_worn = esc.retired;
      }
    }
  }
  return out;
}

inline std::optional<u64> FaultDomain::next_scrub_target() {
  for (usize scanned = 0; scanned < touched_.size(); ++scanned) {
    if (scrub_cursor_ >= touched_.size()) scrub_cursor_ = 0;
    const u64 line = touched_[scrub_cursor_++];
    const auto it = lines_.find(line);
    if (it != lines_.end() && !it->second.retired) return line;
  }
  return std::nullopt;
}

inline double FaultDomain::on_remap_in(double now_ns) {
  ++stats_.remapped_in;
  // Token-bucket queue in virtual time: depth decays at one slot per
  // remap_drain_ns since the last arrival, then this arrival takes a slot.
  const double drained = (now_ns - remap_last_ns_) / kRemapDrainNs;
  remap_depth_ = std::max(0.0, remap_depth_ - drained) + 1.0;
  remap_last_ns_ = now_ns;
  const double cap = static_cast<double>(kRemapQueueCapacity);
  if (remap_depth_ <= cap) return 0.0;
  ++stats_.remap_backoff;
  // Congestion backoff: the charge doubles with each slot of overflow,
  // capped so one hot survivor cannot stall virtual time indefinitely.
  const u64 over = std::min<u64>(
      static_cast<u64>(remap_depth_ - cap), 6);
  return kRemapPenaltyNs *
         static_cast<double>(u64{1} << (over > 0 ? over - 1 : 0));
}

inline void FaultDomain::poll(double now_ns) {
  if (config_.kill_channel >= 0 &&
      static_cast<usize>(config_.kill_channel) == channel_ &&
      now_ns >= config_.kill_at_ns) {
    trip(now_ns, RasEventKind::kDegradeKilled);
  }
}

}  // namespace nvmenc::testutil
