#include "memsys/lifetime.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace nvmenc {

namespace {

// Draw-key salts of the lifetime cascade. The cascade is seeded from
// LifetimeConfig::seed, independent of the FaultInjector's, so endurance
// and drift draws can never alias the RAS fault stream.
constexpr u64 kSaltEndurance = 0;
constexpr u64 kSaltDrift = 1;

[[nodiscard]] Xoshiro256 lifetime_rng(u64 seed, usize channel, u64 line,
                                      u64 seq, u64 salt,
                                      u64 high = 0) noexcept {
  // Three independent SplitMix64 streams folded together, the same
  // cascade shape as FaultInjector::event_rng: any change in (channel,
  // line, seq, salt) decorrelates the whole draw. A non-zero `high`
  // (a drift key past 2^32, see drift_key) folds in a fourth stream.
  SplitMix64 a{seed};
  SplitMix64 b{line + 0x9e3779b97f4a7c15ull * (seq + 1)};
  SplitMix64 c{(static_cast<u64>(channel) << 8) | salt};
  const u64 d = high != 0 ? SplitMix64{high}.next() : 0;
  return Xoshiro256{a.next() ^ b.next() ^ c.next() ^ d};
}

/// Standard normal via Box-Muller; u1 is mapped into (0, 1] so log never
/// sees zero.
[[nodiscard]] double standard_normal(Xoshiro256& rng) noexcept {
  const double u1 = 1.0 - rng.next_double();
  const double u2 = rng.next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace

const char* wear_leveler_name(WearLevelerKind kind) {
  switch (kind) {
    case WearLevelerKind::kNone:
      return "none";
    case WearLevelerKind::kStartGap:
      return "start-gap";
    case WearLevelerKind::kSecurityRefresh:
      return "security-refresh";
  }
  return "?";
}

WearLevelerKind wear_leveler_by_name(const std::string& name) {
  if (name == "none") return WearLevelerKind::kNone;
  if (name == "start-gap") return WearLevelerKind::kStartGap;
  if (name == "security-refresh") return WearLevelerKind::kSecurityRefresh;
  throw std::invalid_argument{"unknown wear leveler: " + name +
                              " (none, start-gap, security-refresh)"};
}

void LifetimeConfig::validate() const {
  require(endurance_mean_flips >= 0.0, "endurance must be non-negative");
  require(endurance_sigma >= 0.0, "endurance sigma must be non-negative");
  require(wear_per_write_flips > 0.0, "wear per write must be positive");
  require(age_multiplier > 0.0, "age multiplier must be positive");
  require(retention_tau_ns >= 0.0, "retention tau must be non-negative");
  require(safer_relief >= 0.0, "SAFER relief must be non-negative");
  if (leveler != WearLevelerKind::kNone) {
    require(wl_interval > 0, "wear-leveling interval must be positive");
    require(wl_region_lines >= 2, "wear-leveling region needs >= 2 lines");
    if (leveler == WearLevelerKind::kSecurityRefresh) {
      require(is_pow2(wl_region_lines),
              "Security Refresh region must be a power of 2");
    }
  }
}

void LifetimeStats::merge(const LifetimeStats& other) noexcept {
  lines_tracked += other.lines_tracked;
  wear_writes += other.wear_writes;
  wear_flips += other.wear_flips;
  max_wear_frac = std::max(max_wear_frac, other.max_wear_frac);
  worn_lines += other.worn_lines;
  wear_safer += other.wear_safer;
  wear_retired += other.wear_retired;
  drift_errors += other.drift_errors;
  wl_writes += other.wl_writes;
  wl_moves += other.wl_moves;
  wl_busy_ns += other.wl_busy_ns;
  wl_energy_pj += other.wl_energy_pj;
  // Worst channel dominates the leveling figure of merit.
  if (other.wl_uniformity > 0.0) {
    wl_uniformity = wl_uniformity > 0.0
                        ? std::min(wl_uniformity, other.wl_uniformity)
                        : other.wl_uniformity;
  }
  if (other.first_wearout_ns > 0.0) {
    first_wearout_ns = first_wearout_ns > 0.0
                           ? std::min(first_wearout_ns, other.first_wearout_ns)
                           : other.first_wearout_ns;
  }
}

// -------------------------------------------------------------- engine --

LifetimeEngine::LifetimeEngine(const LifetimeConfig& config, usize channel)
    : config_{config}, channel_{channel} {
  config_.validate();
}

LineLife& LifetimeEngine::track(u64 line, LineLife& life) {
  if (!life.tracked) {
    life.tracked = true;
    if (config_.endurance_mean_flips > 0.0) {
      Xoshiro256 rng =
          lifetime_rng(config_.seed, channel_, line, 0, kSaltEndurance);
      life.limit = config_.endurance_mean_flips *
                   std::exp(config_.endurance_sigma * standard_normal(rng));
    } else {
      life.limit = std::numeric_limits<double>::infinity();
    }
    ++stats_.lines_tracked;
  }
  return life;
}

bool LifetimeEngine::on_write(u64 line, LineLife& life, double flips,
                              double now_ns) {
  track(line, life);
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
  if (!was_below || life.wear < life.limit) return false;
  ++stats_.worn_lines;
  if (stats_.first_wearout_ns <= 0.0) stats_.first_wearout_ns = now_ns;
  return true;
}

bool LifetimeEngine::drift_on_read(u64 line, LineLife& life, double now_ns) {
  if (config_.retention_tau_ns <= 0.0) return false;
  track(line, life);
  const DriftKey key = drift_key(life.writes, life.reads);
  ++life.reads;
  // Lines never written in the run count as written at t = 0 (the
  // pre-run image), so cold data drifts too.
  const double age = (now_ns - life.last_write_ns) * config_.age_multiplier;
  if (age <= 0.0) return false;
  const double p = 1.0 - std::exp(-age / config_.retention_tau_ns);
  Xoshiro256 rng = lifetime_rng(config_.seed, channel_, line, key.seq,
                                kSaltDrift, key.high);
  if (!rng.next_bool(p)) return false;
  ++stats_.drift_errors;
  return true;
}

void LifetimeEngine::relieve(u64 line, LineLife& life) {
  track(line, life);
  if (std::isfinite(life.limit)) {
    life.limit *= 1.0 + config_.safer_relief;
  }
  ++stats_.wear_safer;
}

double LifetimeEngine::limit_flips(u64 line, LineLife& life) {
  return track(line, life).limit;
}

// ---------------------------------------------------------- translator --

WearLevelTranslator::WearLevelTranslator(const LifetimeConfig& config,
                                         const MemOrg& org, usize channel)
    : config_{config}, org_{org}, channel_{channel} {
  config_.validate();
  require(config_.leveler != WearLevelerKind::kNone,
          "translator needs a leveler");
  require(org_.row_bytes % kLineBytes == 0,
          "row size must be a whole number of lines");
}

WearLeveler& WearLevelTranslator::region(u64 region_id) {
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

u64 WearLevelTranslator::physical(u64 region_id, usize slot) const noexcept {
  // Regions stride by region_lines + 1 physical slots: Start-Gap's spare
  // slot gets its own address, keeping the global map injective.
  return channel_local_line_addr(
      org_, channel_, region_id * (config_.wl_region_lines + 1) + slot);
}

u64 WearLevelTranslator::translate(u64 line_addr) {
  NVMENC_DCHECK(channel_of_line(org_, line_addr) == channel_,
                "translating a line homed on another channel");
  const u64 index = channel_local_line_index(org_, line_addr);
  const u64 region_id = index / config_.wl_region_lines;
  const u64 inner = index % config_.wl_region_lines;
  return physical(region_id, region(region_id).map(inner * kLineBytes));
}

u64 WearLevelTranslator::translate_write(u64 line_addr) {
  const u64 index = channel_local_line_index(org_, line_addr);
  const u64 region_id = index / config_.wl_region_lines;
  const u64 inner = index % config_.wl_region_lines;
  WearLeveler& leveler = region(region_id);
  const u64 landed = physical(region_id, leveler.map(inner * kLineBytes));
  leveler.on_write(inner * kLineBytes,
                   static_cast<usize>(config_.wear_per_write_flips));
  ++demand_writes_;
  slots_.clear();
  leveler.drain_migrations(slots_);
  dests_.clear();
  for (const usize slot : slots_) dests_.push_back(physical(region_id, slot));
  migrations_ += dests_.size();
  return landed;
}

double WearLevelTranslator::uniformity() const {
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

}  // namespace nvmenc
