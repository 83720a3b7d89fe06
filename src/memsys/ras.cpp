#include "memsys/ras.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nvmenc {

namespace {

// Draw-key salts. The controller-path injector uses salts 0 (store) and
// 1 (load); the RAS layer shifts the channel id above a kind byte so no
// (line, seq, salt) triple can collide across channels or with the
// synchronous path.
constexpr u64 kSaltWrite = 2;
constexpr u64 kSaltRead = 3;
[[nodiscard]] constexpr u64 ras_salt(usize channel, u64 kind) noexcept {
  return (static_cast<u64>(channel) << 8) | kind;
}

// Per-shard event-log cap: enough to show how a channel died without
// letting a pathological fault rate grow the log without bound. Overflow
// is counted, never silently dropped.
constexpr usize kMaxEventsPerShard = 32;

// Aging records per block of FaultDomain::lives_ (a power of two).
constexpr u32 kLifeBlock = 256;

}  // namespace

void RasConfig::validate() const {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  require(rate_ok(inject.write_fail_rate) &&
              rate_ok(inject.read_disturb_rate) && rate_ok(inject.stuck_rate),
          "fault rates must be probabilities in [0, 1]");
  require(scrub_interval_ns >= 0.0, "scrub interval must be non-negative");
  require(degrade_ue_threshold >= 1,
          "degrade threshold must be at least one uncorrectable error");
  require(remap_queue_capacity >= 1, "remap queue must hold something");
  require(kill_at_ns >= 0.0, "kill time must be non-negative");
  lifetime.validate();
}

const char* ras_event_name(RasEventKind kind) {
  switch (kind) {
    case RasEventKind::kSaferRemap:
      return "safer-remap";
    case RasEventKind::kRetire:
      return "retire";
    case RasEventKind::kUncorrectable:
      return "uncorrectable";
    case RasEventKind::kDegradeSpares:
      return "degraded (spares exhausted)";
    case RasEventKind::kDegradeUes:
      return "degraded (UE threshold)";
    case RasEventKind::kDegradeKilled:
      return "degraded (media failure)";
  }
  return "?";
}

void RasStats::merge(const RasStats& other) noexcept {
  faulty_writes += other.faulty_writes;
  write_retries += other.write_retries;
  retry_exhausted += other.retry_exhausted;
  safer_remaps += other.safer_remaps;
  retired_lines += other.retired_lines;
  spare_writes += other.spare_writes;
  stuck_cells += other.stuck_cells;
  read_disturbs += other.read_disturbs;
  scrub_reads += other.scrub_reads;
  scrub_corrections += other.scrub_corrections;
  ue_demand += other.ue_demand;
  ue_scrub += other.ue_scrub;
  remapped_in += other.remapped_in;
  remap_backoff += other.remap_backoff;
  spares_left += other.spares_left;
  degraded += other.degraded;
  ras_busy_ns += other.ras_busy_ns;
  degraded_at_ns = std::max(degraded_at_ns, other.degraded_at_ns);
}

RasStats RasReport::totals() const noexcept {
  RasStats out;
  for (const RasStats& s : channels) out.merge(s);
  return out;
}

LifetimeStats RasReport::lifetime_totals() const noexcept {
  LifetimeStats out;
  for (const LifetimeStats& s : lifetime) out.merge(s);
  return out;
}

u64 ras_remap_line(const MemOrg& org, u64 addr,
                   const std::vector<u8>& degraded) noexcept {
  const usize home = channel_of_line(org, addr);
  usize survivors = 0;
  for (usize c = 0; c < org.channels; ++c) {
    if (c >= degraded.size() || degraded[c] == 0) ++survivors;
  }
  if (survivors == 0) return addr;  // nowhere to go: serve in place
  // Spread displaced lines over survivors by address hash — deterministic,
  // stateless, and uniform enough that no single survivor absorbs the
  // whole degraded channel's footprint.
  u64 pick = SplitMix64{addr}.next() % survivors;
  for (usize c = 0; c < org.channels; ++c) {
    if (c < degraded.size() && degraded[c] != 0) continue;
    if (pick == 0) {
      return c == home ? addr : pin_line_to_channel(org, addr, c);
    }
    --pick;
  }
  return addr;  // unreachable
}

double FaultDomain::Outcome::bank_ns(const MemOrg& org) const noexcept {
  const double tw = org.t_write_ns;
  double ns = 0.0;
  if (retries > 0) ns += tw * static_cast<double>((u64{1} << retries) - 1);
  if (corrected) ns += tw;
  if (remapped) ns += tw;
  if (retired) ns += org.t_read_ns + tw;
  return ns;
}

FaultDomain::FaultDomain(const RasConfig& config, usize channel)
    : config_{config}, channel_{channel}, injector_{config.inject} {
  config_.validate();
  if (config_.lifetime.enabled()) life_.emplace(config_.lifetime, channel);
  stats_.spares_left = config_.spare_lines;
  events_.reserve(kMaxEventsPerShard);
}

FaultDomain::LineState& FaultDomain::touch(u64 line) {
  const auto [it, inserted] = lines_.try_emplace(line);
  if (inserted) {
    require(touched_.size() < (u64{1} << 32), "too many lines on one channel");
    it->second.slot = static_cast<u32>(touched_.size());
    touched_.push_back(line);
    if (life_ && it->second.slot % kLifeBlock == 0) {
      lives_.push_back(std::make_unique<LineLife[]>(kLifeBlock));
    }
  }
  return it->second;
}

LineLife& FaultDomain::life_of(const LineState& st) noexcept {
  return lives_[st.slot / kLifeBlock][st.slot % kLifeBlock];
}

void FaultDomain::log(double now_ns, RasEventKind kind, u64 line) {
  if (events_.size() >= kMaxEventsPerShard) {
    ++dropped_;
    return;
  }
  events_.push_back({now_ns, static_cast<u32>(channel_), kind, line});
}

void FaultDomain::trip(double now_ns, RasEventKind why) {
  if (stats_.degraded != 0) return;
  stats_.degraded = 1;
  stats_.degraded_at_ns = now_ns;
  log(now_ns, why, 0);
}

void FaultDomain::retire(u64 line, LineState& st, double now_ns,
                         Outcome& out) {
  if (st.retired) return;  // idempotent: one spare per line, ever
  st.retired = true;
  out.retired = true;
  ++stats_.retired_lines;
  log(now_ns, RasEventKind::kRetire, line);
  if (stats_.spares_left > 0) --stats_.spares_left;
  if (stats_.spares_left == 0) trip(now_ns, RasEventKind::kDegradeSpares);
}

void FaultDomain::escalate(u64 line, LineState& st, double flips,
                           bool faulted, double now_ns, Outcome& out) {
  // Endurance: the write accrues its flip cost (re-pulses stress cells
  // too but are already priced in the pulse ladder).
  if (life_) out.worn = life_->on_write(line, life_of(st), flips, now_ns);
  if (!faulted && !out.worn) return;
  if (st.remaps < config_.safer_remap_limit) {
    st.remaps = static_cast<u8>(st.remaps + 1);
    ++stats_.safer_remaps;
    out.remapped = true;
    log(now_ns, RasEventKind::kSaferRemap, line);
    // Re-partitioning spreads the hot positions into fresh cells, so a
    // worn line buys itself a slice of extra endurance.
    if (out.worn) life_->relieve(line, life_of(st));
  } else {
    retire(line, st, now_ns, out);
    if (out.worn) life_->note_retired();
  }
}

FaultDomain::Outcome FaultDomain::on_array_write(u64 line, double now_ns) {
  poll(now_ns);
  Outcome out;
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
  // A ladder that ran dry or more stuck cells than the encoder can mask
  // escalates, as does an endurance crossing.
  escalate(line, st, config_.lifetime.wear_per_write_flips,
           out.exhausted || st.stuck > kStuckCellBudget, now_ns, out);
  return out;
}

FaultDomain::Outcome FaultDomain::on_migration_write(u64 line, double now_ns,
                                                     double copy_ns) {
  Outcome out;
  if (!life_) return out;
  life_->note_migration(copy_ns);
  LineState& st = touch(line);
  if (st.retired) {
    ++stats_.spare_writes;
    out.spare = true;
    return out;
  }
  escalate(line, st, kMigrationWearFlips, false, now_ns, out);
  return out;
}

FaultDomain::Outcome FaultDomain::read_array(u64 line, LineState& st, u64& ue,
                                             double now_ns) {
  Outcome out;
  const u64 seq = st.read_seq++;
  if (st.retired) {
    out.spare = true;  // spares read cleanly
    return out;
  }
  // Scrub reads are array reads too: they can disturb the line they
  // clean (same keyed draw stream as demand reads) and see retention
  // drift like demand reads do.
  Xoshiro256 rng =
      injector_.event_rng(line, seq, ras_salt(channel_, kSaltRead));
  u32 hits = rng.next_bool(config_.inject.read_disturb_rate) ? 1u : 0u;
  // Retention drift reads back as a disturb-equivalent error: the cell
  // relaxed since the last write, SECDED sees a flipped bit.
  if (life_ && life_->drift_on_read(line, life_of(st), now_ns)) ++hits;
  if (hits == 0) return out;
  out.disturbed = true;
  stats_.read_disturbs += hits;
  st.disturbs = static_cast<u8>(std::min<u32>(st.disturbs + hits, 255u));
  if (st.disturbs >= 2) {
    // SECDED(72,64) corrects one error; two accumulated disturbs are
    // detected but uncorrectable. Recover from the spare pool.
    out.uncorrectable = true;
    ++ue;
    log(now_ns, RasEventKind::kUncorrectable, line);
    retire(line, st, now_ns, out);
    if (stats_.uncorrectable() >= config_.degrade_ue_threshold) {
      trip(now_ns, RasEventKind::kDegradeUes);
    }
  }
  return out;
}

FaultDomain::Outcome FaultDomain::on_demand_read(u64 line, double now_ns) {
  poll(now_ns);
  return read_array(line, touch(line), stats_.ue_demand, now_ns);
}

FaultDomain::Outcome FaultDomain::on_scrub_read(u64 line, double now_ns) {
  ++stats_.scrub_reads;
  LineState& st = touch(line);
  Outcome out = read_array(line, st, stats_.ue_scrub, now_ns);
  if (out.spare || out.uncorrectable || st.disturbs != 1) return out;
  // SECDED corrects the single flip; write the clean image back so the
  // disturb count restarts from zero — the whole point of scrubbing. The
  // write-back restarts the drift clock but is itself an array write: it
  // wears the line, and a crossing escalates right here.
  st.disturbs = 0;
  ++stats_.scrub_corrections;
  out.corrected = true;
  escalate(line, st, config_.lifetime.wear_per_write_flips, false, now_ns,
           out);
  return out;
}

std::optional<u64> FaultDomain::next_scrub_target() {
  for (usize scanned = 0; scanned < touched_.size(); ++scanned) {
    if (scrub_cursor_ >= touched_.size()) scrub_cursor_ = 0;
    const u64 line = touched_[scrub_cursor_++];
    if (!lines_.find(line)->second.retired) return line;
  }
  return std::nullopt;
}

double FaultDomain::on_remap_in(double now_ns) {
  ++stats_.remapped_in;
  // Token-bucket queue in virtual time: depth decays at one slot per
  // kRemapDrainNs since the last arrival, then this arrival takes a slot.
  const double drained = (now_ns - remap_last_ns_) / kRemapDrainNs;
  remap_depth_ = std::max(0.0, remap_depth_ - drained) + 1.0;
  remap_last_ns_ = now_ns;
  const double cap = static_cast<double>(config_.remap_queue_capacity);
  if (remap_depth_ <= cap) return 0.0;
  ++stats_.remap_backoff;
  // Congestion backoff: the charge doubles with each slot of overflow,
  // capped so one hot survivor cannot stall virtual time indefinitely.
  const u64 over = std::min<u64>(
      static_cast<u64>(remap_depth_ - cap), 6);
  return kRemapPenaltyNs *
         static_cast<double>(u64{1} << (over > 0 ? over - 1 : 0));
}

void FaultDomain::poll(double now_ns) {
  if (config_.kill_channel >= 0 &&
      static_cast<usize>(config_.kill_channel) == channel_ &&
      now_ns >= config_.kill_at_ns) {
    trip(now_ns, RasEventKind::kDegradeKilled);
  }
}

}  // namespace nvmenc
