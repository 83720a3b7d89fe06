#include "memsys/channel_shard.hpp"

#include <algorithm>
#include <limits>

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
  if (wl_) {
    // Wear-leveling translation: channel-preserving, so the routing above
    // holds for the physical address too. The leveler observes the write
    // arrival stream and advances here — before the mapping is consulted
    // again — so a parked or queued write keeps the slot it was accepted
    // into (real levelers quiesce in-flight lines the same way).
    const u64 logical = line_addr;
    line_addr = wl_->translate(logical);
    if (kind == ReqKind::kWrite) {
      charge_wl_migrations(wl_->on_write(logical), now_ns);
    }
  }
  if (ras_) {
    ras_->poll(now_ns);
    maybe_arm_scrub(now_ns);
    if (remapped) {
      // Inflow from a degraded channel passes the bounded remapping
      // queue; congestion holds the target bank while the remap engine
      // backs off, so overload surfaces in the survivors' tail latency.
      const double penalty = ras_->on_remap_in(now_ns);
      if (penalty > 0.0) {
        const BankAddress where = decompose(timing_.org(), line_addr);
        timing_.occupy_bank(where.bank, now_ns, penalty);
        ras_->add_busy(penalty);
      }
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
      reads_.push_back({ticket, line_addr, now_ns,
                        decompose(timing_.org(), line_addr)});
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
}

void ChannelShard::charge_wl_migrations(const std::vector<u64>& dests,
                                        double now_ns) {
  for (const u64 dest : dests) {
    // One migration = read the source, write the destination: the copy
    // holds the destination's bank, burns energy, and wears the
    // destination's cells (half a line of flips against unrelated data).
    const BankAddress where = decompose(timing_.org(), dest);
    const double copy = timing_.org().t_read_ns + timing_.org().t_write_ns;
    timing_.occupy_bank(where.bank, now_ns, copy);
    wl_busy_ns_ += copy;
    wl_energy_pj_ += ras_->config().lifetime.wl_migrate_pj;
    const FaultDomain::MigrateOutcome out =
        ras_->on_migration_write(dest, now_ns);
    double extra = 0.0;
    if (out.remapped) extra += timing_.org().t_write_ns;
    if (out.retired) {
      extra += timing_.org().t_read_ns + timing_.org().t_write_ns;
    }
    if (extra > 0.0) {
      timing_.occupy_bank(where.bank, now_ns, extra);
      ras_->add_busy(extra);
    }
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
  stats.wl_busy_ns = wl_busy_ns_;
  stats.wl_energy_pj = wl_energy_pj_;
  return stats;
}

u64 ChannelShard::submit(u64 line_addr, ReqKind kind, double now_ns,
                         bool remapped) {
  const u64 ticket = next_ticket_++;
  submit_with_ticket(ticket, line_addr, kind, now_ns, remapped);
  return ticket;
}

double ChannelShard::wake() const {
  const bool drain_mode = draining_ && !writes_.empty();
  const bool write_mode =
      drain_mode || (reads_.empty() && !writes_.empty() &&
                     (opportunistic_writes_ || flushing_));
  double wake = kInf;
  if (!drain_mode) {
    for (const PendingRead& r : reads_) {
      wake = std::min(
          wake, std::max(r.arrival, timing_.bank_free_at(r.where.bank)));
    }
  }
  if (write_mode) {
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
  if (wake == kInf) return kInf;
  return std::max(wake, slot_free_at_);
}

void ChannelShard::arbitrate(double now) {
  const bool drain_mode = draining_ && !writes_.empty();
  const bool write_mode =
      drain_mode || (reads_.empty() && !writes_.empty() &&
                     (opportunistic_writes_ || flushing_));
  const bool issued = write_mode ? issue_write(now) : issue_read(now);
  if (issued) return;
  if (scrub_.has_value() && scrub_->arrival <= now &&
      timing_.bank_free_at(scrub_->where.bank) <= now) {
    issue_scrub(now);
    return;
  }
  // Unreachable by the wake contract; guarantee progress regardless.
  slot_free_at_ = now + std::max(t_cmd_ns_, 1.0);
}

bool ChannelShard::issue_read(double now) {
  usize oldest = kNone;
  usize row_hit = kNone;
  for (usize i = 0; i < reads_.size(); ++i) {
    const PendingRead& r = reads_[i];
    if (r.arrival > now) continue;
    if (timing_.bank_free_at(r.where.bank) > now) continue;
    if (oldest == kNone) oldest = i;
    if (row_hit == kNone &&
        timing_.row_open(r.where.bank, r.where.row)) {
      row_hit = i;
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
  double done = timing_.access(r.line_addr, MemOp::kRead, now);
  if (ras_) {
    const FaultDomain::ReadOutcome out =
        ras_->on_demand_read(r.line_addr, now);
    if (out.uncorrectable) {
      // SECDED double fault: the data returns only after the controller
      // rebuilds the line into a spare (read + write of recovery work,
      // holding the bank), so the UE lands squarely in the read tail.
      const double recovery =
          timing_.org().t_read_ns + timing_.org().t_write_ns;
      timing_.occupy_bank(r.where.bank, done, recovery);
      ras_->add_busy(recovery);
      done += recovery;
    }
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
    // Program-and-verify: failed pulses re-issue with exponential
    // backoff (re-pulse r costs 2^(r-1) array-write times), escalations
    // rewrite the line (SAFER) or copy it to a spare (retirement). All
    // of it occupies the bank in virtual time, delaying later row hits.
    const FaultDomain::WriteOutcome out =
        ras_->on_array_write(w.line_addr, now);
    const double tw = timing_.org().t_write_ns;
    double extra = 0.0;
    if (out.retries > 0) {
      extra += tw * static_cast<double>((u64{1} << out.retries) - 1);
    }
    if (out.remapped) extra += tw;
    if (out.retired) extra += timing_.org().t_read_ns + tw;
    if (extra > 0.0) {
      timing_.occupy_bank(w.where.bank, done, extra);
      ras_->add_busy(extra);
      done += extra;
    }
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
  const FaultDomain::ScrubOutcome out =
      ras_->on_scrub_read(s.line_addr, now);
  // Scrub-on-read repair work occupies the bank: writing back a corrected
  // image costs one array write, an uncorrectable escalation costs the
  // retirement copy.
  double extra = 0.0;
  if (out.corrected) extra += timing_.org().t_write_ns;
  if (out.uncorrectable || out.retired_worn) {
    extra += timing_.org().t_read_ns + timing_.org().t_write_ns;
  }
  if (out.remapped) extra += timing_.org().t_write_ns;
  if (extra > 0.0) {
    timing_.occupy_bank(s.where.bank, done, extra);
    ras_->add_busy(extra);
  }
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
  flushing_ = true;
  while (step_until(kInf).has_value()) {
  }
  flushing_ = false;
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
