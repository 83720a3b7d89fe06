#include "memsys/channel_shard.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "memsys/memory_system.hpp"

namespace nvmenc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr usize kNone = ~usize{0};
// Pre-reservation so steady-state traffic never grows a container. The
// write queue is hard-bounded by capacity; reads/parked/completions grow
// to a workload high-water mark during warmup and then stay flat.
constexpr usize kReadReserve = 1024;
constexpr usize kParkedReserve = 256;
constexpr usize kCompletionReserve = 1024;
}  // namespace

ChannelShard::ChannelShard(const MemSysConfig& config, usize channel)
    : channel_{channel},
      write_queue_capacity_{config.write_queue_capacity},
      high_watermark_{config.high_watermark},
      low_watermark_{config.low_watermark},
      t_cmd_ns_{config.t_cmd_ns},
      forward_ns_{config.forward_ns},
      starvation_cap_ns_{config.starvation_cap_ns},
      opportunistic_writes_{config.opportunistic_writes},
      timing_{config.org},
      bank_reads_(config.org.ranks * config.org.banks),
      queued_lines_{config.write_queue_capacity} {
  require(channel < config.org.channels, "shard channel out of range");
  reads_.reserve(kReadReserve);
  writes_.reserve(write_queue_capacity_);
  parked_.reserve(kParkedReserve);
  completions_.reserve(kCompletionReserve);
  if (config.ras.enabled()) {
    ras_.emplace(config.ras, channel);
    if (config.ras.scrub_interval_ns > 0.0) {
      next_scrub_at_ = config.ras.scrub_interval_ns;
    }
    if (config.ras.lifetime.leveler != WearLevelerKind::kNone) {
      wl_.emplace(config.ras.lifetime, config.org, channel);
    }
  }
}

void ChannelShard::push_completion(const MemSysCompletion& completion) {
  completions_.push(completion);
  stats_.last_completion_ns =
      std::max(stats_.last_completion_ns, completion.time_ns);
}

void ChannelShard::accept_write(u64 ticket, u64 line_addr, double arrival,
                                double accept_time) {
  ++stats_.writes;
  if (queued_lines_.contains(line_addr)) {
    ++stats_.coalesced_writes;
  } else {
    writes_.push_back(
        {line_addr, accept_time, decompose(timing_.org(), line_addr)});
    queued_lines_.insert(line_addr);
    if (!draining_ && writes_.size() >= high_watermark_) {
      draining_ = true;
      ++stats_.drains;
    }
  }
  stats_.write_accept_ns.add(accept_time - arrival);
  push_completion({ticket, accept_time, ReqKind::kWrite, false});
}

void ChannelShard::maybe_arm_scrub(double now) {
  // Arm at most one pending scrub, re-checked per arrival: the scrub rate
  // is min(1 / scrub_interval, arrival rate), and because arming depends
  // only on the shard's own arrival sequence the scrub stream is
  // identical in serial and sharded runs.
  if (!ras_ || scrub_.has_value() || next_scrub_at_ <= 0.0 ||
      now < next_scrub_at_) {
    return;
  }
  if (const auto line = ras_->next_scrub_target()) {
    scrub_.emplace(
        PendingScrub{*line, now, decompose(timing_.org(), *line)});
  }
  next_scrub_at_ = now + ras_->config().scrub_interval_ns;
}

void ChannelShard::submit_with_ticket(u64 ticket, u64 line_addr,
                                      ReqKind kind, double now_ns,
                                      bool remapped) {
  NVMENC_DCHECK(channel_of_line(timing_.org(), line_addr) == channel_,
                "line routed to the wrong channel shard");
  if (!(now_ns >= last_arrival_ns_)) {
    std::string message = "channel ";
    message += std::to_string(channel_);
    message += ": arrival at ";
    message += std::to_string(now_ns);
    message += " ns precedes the previous arrival at ";
    message += std::to_string(last_arrival_ns_);
    message += " ns (arrivals must be nondecreasing)";
    throw std::invalid_argument{message};
  }
  last_arrival_ns_ = now_ns;
  if (wl_) {
    // Wear-leveling translation: channel-preserving, so the routing above
    // holds for the physical address too. A write lands on the current
    // mapping and then advances the leveler — before the mapping is
    // consulted again — so a parked or queued write keeps the slot it was
    // accepted into (real levelers quiesce in-flight lines the same way).
    if (kind == ReqKind::kWrite) {
      line_addr = wl_->translate_write(line_addr);
      charge_wl_migrations(now_ns);
    } else {
      line_addr = wl_->translate(line_addr);
    }
  }
  if (ras_) {
    ras_->poll(now_ns);
    maybe_arm_scrub(now_ns);
    if (remapped) {
      // Inflow from a degraded channel passes the bounded remapping
      // queue; congestion holds the target bank while the remap engine
      // backs off, so overload surfaces in the survivors' tail latency.
      charge_ras(decompose(timing_.org(), line_addr).bank, now_ns,
                 ras_->on_remap_in(now_ns));
    }
  }
  if (kind == ReqKind::kRead) {
    ++stats_.reads;
    if (queued_lines_.contains(line_addr)) {
      // Read-around-write: the line is still buffered on chip.
      ++stats_.forwarded_reads;
      stats_.read_latency_ns.add(forward_ns_);
      stats_.read_latency_stat.add(forward_ns_);
      push_completion({ticket, now_ns + forward_ns_, ReqKind::kRead, true});
    } else {
      const BankAddress where = decompose(timing_.org(), line_addr);
      reads_.push_back({ticket, line_addr, now_ns, where});
      if (bank_reads_[where.bank].pending++ == 0) ++read_banks_;
    }
  } else {
    if (queued_lines_.contains(line_addr) ||
        writes_.size() < write_queue_capacity_) {
      accept_write(ticket, line_addr, now_ns, now_ns);
    } else {
      // Queue full: the write (and the CPU behind it) stalls until a
      // drain frees a slot.
      ++stats_.write_stalls;
      parked_.push_back({ticket, line_addr, now_ns});
    }
  }
  refresh_wake();
}

double ChannelShard::charge_ras(usize bank, double from_ns, double ns) {
  if (ns > 0.0) {
    timing_.occupy_bank(bank, from_ns, ns);
    ras_->add_busy(ns);
  }
  return ns;
}

void ChannelShard::charge_wl_migrations(double now_ns) {
  // One migration = read the source, write the destination: the copy
  // holds the destination's bank, then any escalation of the worn
  // destination holds it longer.
  const MemOrg& org = timing_.org();
  const double copy = org.t_read_ns + org.t_write_ns;
  for (const u64 dest : wl_->migrated()) {
    const usize bank = decompose(org, dest).bank;
    timing_.occupy_bank(bank, now_ns, copy);
    charge_ras(bank, now_ns,
               ras_->on_migration_write(dest, now_ns, copy).bank_ns(org));
  }
}

LifetimeStats ChannelShard::lifetime_stats() const {
  LifetimeStats stats;
  if (const LifetimeEngine* engine = ras_ ? ras_->lifetime() : nullptr) {
    stats = engine->stats();
  }
  if (wl_) {
    stats.wl_writes = wl_->demand_writes();
    stats.wl_moves = wl_->migrations();
    stats.wl_uniformity = wl_->uniformity();
  }
  return stats;
}

u64 ChannelShard::submit(u64 line_addr, ReqKind kind, double now_ns,
                         bool remapped) {
  const u64 ticket = next_ticket_++;
  submit_with_ticket(ticket, line_addr, kind, now_ns, remapped);
  return ticket;
}

void ChannelShard::refresh_wake() {
  double wake = kInf;
  if (!drain_mode() && read_banks_ > 0) {
    // reads_ is in arrival order, so a bank's first pending read carries
    // its earliest arrival and stands for the bank: no later read to the
    // same bank can issue sooner. The scan ends once every bank holding a
    // read has been seen, or once arrivals reach the best candidate (a
    // later read cannot issue before it arrives).
    ++wake_scan_;
    usize unseen = read_banks_;
    for (const PendingRead& r : reads_) {
      if (r.arrival >= wake) break;
      BankReads& bank = bank_reads_[r.where.bank];
      if (bank.seen == wake_scan_) continue;
      bank.seen = wake_scan_;
      wake = std::min(
          wake, std::max(r.arrival, timing_.bank_free_at(r.where.bank)));
      if (--unseen == 0) break;
    }
  }
  if (write_mode()) {
    for (const QueuedWrite& w : writes_) {
      wake = std::min(
          wake, std::max(w.arrival, timing_.bank_free_at(w.where.bank)));
    }
  }
  if (scrub_.has_value()) {
    // Background scrub: a wake candidate like any other, but arbitrate()
    // only issues it when no demand request is eligible — low priority
    // under the existing FR-FCFS discipline.
    wake = std::min(
        wake, std::max(scrub_->arrival,
                       timing_.bank_free_at(scrub_->where.bank)));
  }
  wake_ = wake == kInf ? kInf : std::max(wake, slot_free_at_);
}

void ChannelShard::arbitrate(double now) {
  const bool issued = write_mode() ? issue_write(now) : issue_read(now);
  if (!issued) {
    if (scrub_.has_value() && scrub_->arrival <= now &&
        timing_.bank_free_at(scrub_->where.bank) <= now) {
      issue_scrub(now);
    } else {
      // Unreachable by the wake contract; guarantee progress regardless.
      slot_free_at_ = now + std::max(t_cmd_ns_, 1.0);
    }
  }
  refresh_wake();
}

bool ChannelShard::issue_read(double now) {
  // reads_ is in arrival order, so the first eligible read is the oldest.
  // The scan stops at the first read still to arrive (every later one is
  // too), at an oldest read past the starvation cap (it wins whatever row
  // hits follow), or at the first eligible row hit.
  usize oldest = kNone;
  usize row_hit = kNone;
  for (usize i = 0; i < reads_.size(); ++i) {
    const PendingRead& r = reads_[i];
    if (r.arrival > now) break;
    if (timing_.bank_free_at(r.where.bank) > now) continue;
    if (oldest == kNone) {
      oldest = i;
      if (now - r.arrival > starvation_cap_ns_) break;
    }
    if (timing_.row_open(r.where.bank, r.where.row)) {
      row_hit = i;
      break;
    }
  }
  if (oldest == kNone) return false;
  usize pick = oldest;
  if (row_hit != kNone &&
      now - reads_[oldest].arrival <= starvation_cap_ns_) {
    pick = row_hit;  // FR-FCFS row-hit preference, age-capped
  }
  const PendingRead r = reads_[pick];
  reads_.erase(reads_.begin() + static_cast<std::ptrdiff_t>(pick));
  if (--bank_reads_[r.where.bank].pending == 0) --read_banks_;
  double done = timing_.access(r.line_addr, MemOp::kRead, now);
  if (ras_) {
    // A SECDED double fault returns data only after the controller
    // rebuilds the line into a spare, so the UE lands in the read tail.
    done += charge_ras(
        r.where.bank, done,
        ras_->on_demand_read(r.line_addr, now).bank_ns(timing_.org()));
  }
  const double latency = done - r.arrival;
  stats_.read_latency_ns.add(latency);
  stats_.read_latency_stat.add(latency);
  push_completion({r.ticket, done, ReqKind::kRead, false});
  slot_free_at_ = now + t_cmd_ns_;
  return true;
}

bool ChannelShard::issue_write(double now) {
  usize oldest = kNone;
  usize row_hit = kNone;
  for (usize i = 0; i < writes_.size(); ++i) {
    const QueuedWrite& w = writes_[i];
    if (w.arrival > now) continue;
    if (timing_.bank_free_at(w.where.bank) > now) continue;
    if (oldest == kNone) oldest = i;
    if (row_hit == kNone &&
        timing_.row_open(w.where.bank, w.where.row)) {
      row_hit = i;
      break;  // row hits beat age for background writes
    }
  }
  if (oldest == kNone) return false;
  const usize pick = row_hit != kNone ? row_hit : oldest;
  const QueuedWrite w = writes_[pick];
  writes_.erase(writes_.begin() + static_cast<std::ptrdiff_t>(pick));
  queued_lines_.erase(w.line_addr);
  // Encode latency (MemOrg::encode_latency_ns) is charged inside: the
  // scheme's encoder occupies the bank before the array write starts.
  double done = timing_.access(w.line_addr, MemOp::kWrite, now);
  ++stats_.array_writes;
  if (ras_) {
    // Program-and-verify re-pulses and escalations (SAFER rewrite,
    // retirement copy) occupy the bank in virtual time, delaying later
    // row hits.
    done += charge_ras(
        w.where.bank, done,
        ras_->on_array_write(w.line_addr, now).bank_ns(timing_.org()));
  }
  stats_.last_completion_ns = std::max(stats_.last_completion_ns, done);
  slot_free_at_ = now + t_cmd_ns_;
  // The freed slot un-parks stalled writers (their CPUs resume now).
  while (!parked_.empty() && writes_.size() < write_queue_capacity_) {
    const ParkedWrite p = parked_.front();
    parked_.pop_front();
    // The slot may free before the parked write even arrives (arbitration
    // can run ahead of arrivals the caller already submitted).
    accept_write(p.ticket, p.line_addr, p.arrival,
                 std::max(now, p.arrival));
  }
  if (draining_ && parked_.empty() && writes_.size() <= low_watermark_) {
    draining_ = false;
  }
  return true;
}

void ChannelShard::issue_scrub(double now) {
  const PendingScrub s = *scrub_;
  scrub_.reset();
  const double done = timing_.access(s.line_addr, MemOp::kRead, now);
  // Scrub-on-read repair work (write-back, escalation) occupies the bank.
  charge_ras(s.where.bank, done,
             ras_->on_scrub_read(s.line_addr, now).bank_ns(timing_.org()));
  slot_free_at_ = now + t_cmd_ns_;
}

MemSysCompletion ChannelShard::pop_completion() {
  const MemSysCompletion top = completions_.top();
  completions_.pop();
  return top;
}

std::optional<MemSysCompletion> ChannelShard::step_until(double t_ns) {
  for (;;) {
    const double next_completion =
        completions_.empty() ? kInf : completions_.top().time_ns;
    // Arbitrating past the earliest undelivered completion is unsafe: the
    // caller's reaction to it may inject arrivals in between.
    const double limit = std::min(t_ns, next_completion);
    const double w = wake();
    if (w < kInf && w <= limit) {
      arbitrate(w);
      continue;
    }
    if (!completions_.empty() && next_completion <= t_ns) {
      return pop_completion();
    }
    return std::nullopt;
  }
}

double ChannelShard::drain_all() {
  set_flushing(true);
  while (step_until(kInf).has_value()) {
  }
  set_flushing(false);
  return stats_.last_completion_ns;
}

bool ChannelShard::idle() const noexcept {
  return completions_.empty() && reads_.empty() && writes_.empty() &&
         parked_.empty();
}

RasReport collect_ras_report(const std::vector<ChannelShard>& shards) {
  RasReport report;
  bool any = false;
  for (const ChannelShard& shard : shards) {
    if (shard.ras() != nullptr) any = true;
  }
  if (!any) return report;
  report.channels.reserve(shards.size());
  for (const ChannelShard& shard : shards) {
    const FaultDomain* domain = shard.ras();
    report.channels.push_back(domain != nullptr ? domain->stats()
                                                : RasStats{});
    if (domain != nullptr) {
      report.events.insert(report.events.end(), domain->events().begin(),
                           domain->events().end());
      report.events_dropped += domain->events_dropped();
    }
  }
  // Per-shard logs are chronological; a stable sort on time with a
  // channel tie-break yields one global order independent of worker
  // scheduling.
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const RasEvent& a, const RasEvent& b) {
                     if (a.time_ns != b.time_ns) {
                       return a.time_ns < b.time_ns;
                     }
                     return a.channel < b.channel;
                   });
  bool any_lifetime = false;
  for (const ChannelShard& shard : shards) {
    if (shard.lifetime_on()) any_lifetime = true;
  }
  if (any_lifetime) {
    report.lifetime.reserve(shards.size());
    for (const ChannelShard& shard : shards) {
      report.lifetime.push_back(shard.lifetime_stats());
    }
  }
  return report;
}

}  // namespace nvmenc
