// The channel shard's arbiter as the repository shipped it before the
// incremental wake time, kept verbatim as a differential-testing oracle.
//
// ReferenceShard recomputes wake() from scratch on every query, walking
// every queued read and write, and issue_read() scans the whole read
// queue. Its FaultDomain, LifetimeEngine and WearLevelTranslator are the
// earlier media model of reference_ras.hpp (this namespace's copies), and
// it books migration time and energy itself, as that model needed.
// ReferenceSystem is MemorySystem's router over reference shards: the
// same ticket allocation, cross-shard step_until and drain_all.
// test_shard_differential.cpp feeds both engines the same streams and
// holds the production ChannelShard and MemorySystem to these
// completion for completion.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/flat_set.hpp"
#include "common/ring_buffer.hpp"
#include "memsys/memory_system.hpp"
#include "reference_ras.hpp"

namespace nvmenc::testutil {

class ReferenceShard {
 public:
  ReferenceShard(const MemSysConfig& config, usize channel)
      : channel_{channel},
        write_queue_capacity_{kWriteQueueCapacity},
        high_watermark_{kHighWatermark},
        low_watermark_{kLowWatermark},
        t_cmd_ns_{kCmdNs},
        forward_ns_{0.0},
        starvation_cap_ns_{kStarvationCapNs},
        opportunistic_writes_{true},
        timing_{config.org},
        queued_lines_{kWriteQueueCapacity} {
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

  ReferenceShard(const ReferenceShard&) = delete;
  ReferenceShard& operator=(const ReferenceShard&) = delete;
  ReferenceShard(ReferenceShard&&) = default;
  ReferenceShard& operator=(ReferenceShard&&) = default;

  void submit_with_ticket(u64 ticket, u64 line_addr, ReqKind kind,
                          double now_ns, bool remapped = false) {
    if (wl_) {
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
        ++stats_.forwarded_reads;
        stats_.read_latency_ns.add(forward_ns_);
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
        ++stats_.write_stalls;
        parked_.push_back({ticket, line_addr, now_ns});
      }
    }
  }

  u64 submit(u64 line_addr, ReqKind kind, double now_ns,
             bool remapped = false) {
    const u64 ticket = next_ticket_++;
    submit_with_ticket(ticket, line_addr, kind, now_ns, remapped);
    return ticket;
  }

  std::optional<MemSysCompletion> step_until(double t_ns) {
    for (;;) {
      const double next_completion =
          completions_.empty() ? kInf : completions_.top().time_ns;
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

  double drain_all() {
    flushing_ = true;
    while (step_until(kInf).has_value()) {
    }
    flushing_ = false;
    return stats_.last_completion_ns;
  }

  [[nodiscard]] double wake() const {
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
      wake = std::min(
          wake, std::max(scrub_->arrival,
                         timing_.bank_free_at(scrub_->where.bank)));
    }
    if (wake == kInf) return kInf;
    return std::max(wake, slot_free_at_);
  }

  void arbitrate(double now) {
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
    slot_free_at_ = now + std::max(t_cmd_ns_, 1.0);
  }

  [[nodiscard]] bool has_completion() const noexcept {
    return !completions_.empty();
  }
  [[nodiscard]] const MemSysCompletion& top_completion() const {
    return completions_.top();
  }
  MemSysCompletion pop_completion() {
    const MemSysCompletion top = completions_.top();
    completions_.pop();
    return top;
  }
  void set_flushing(bool on) noexcept { flushing_ = on; }

  [[nodiscard]] const MemSysStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TimingStats& timing_stats() const noexcept {
    return timing_.stats();
  }
  [[nodiscard]] const FaultDomain* ras() const noexcept {
    return ras_ ? &*ras_ : nullptr;
  }
  [[nodiscard]] bool ras_degraded() const noexcept {
    return ras_ && ras_->degraded();
  }
  void poll_ras(double now_ns) {
    if (ras_) ras_->poll(now_ns);
  }
  [[nodiscard]] bool lifetime_on() const noexcept {
    return ras_ && ras_->lifetime() != nullptr;
  }
  [[nodiscard]] LifetimeStats lifetime_stats() const {
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

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr usize kNone = ~usize{0};
  static constexpr usize kReadReserve = 1024;
  static constexpr usize kParkedReserve = 256;
  static constexpr usize kCompletionReserve = 1024;

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
  struct LaterCompletion {
    bool operator()(const MemSysCompletion& a,
                    const MemSysCompletion& b) const noexcept {
      if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
      return a.ticket > b.ticket;
    }
  };
  class CompletionQueue
      : public std::priority_queue<MemSysCompletion,
                                   std::vector<MemSysCompletion>,
                                   LaterCompletion> {
   public:
    void reserve(usize n) { c.reserve(n); }
  };

  void push_completion(const MemSysCompletion& completion) {
    completions_.push(completion);
    stats_.last_completion_ns =
        std::max(stats_.last_completion_ns, completion.time_ns);
  }

  void accept_write(u64 ticket, u64 line_addr, double /*arrival*/,
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
    push_completion({ticket, accept_time, ReqKind::kWrite, false});
  }

  void maybe_arm_scrub(double now) {
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

  void charge_wl_migrations(const std::vector<u64>& dests, double now_ns) {
    for (const u64 dest : dests) {
      const BankAddress where = decompose(timing_.org(), dest);
      const double copy = kReadNs + kWriteNs;
      timing_.occupy_bank(where.bank, now_ns, copy);
      wl_busy_ns_ += copy;
      wl_energy_pj_ += kMigrationEnergyPj;
      const FaultDomain::MigrateOutcome out =
          ras_->on_migration_write(dest, now_ns);
      double extra = 0.0;
      if (out.remapped) extra += kWriteNs;
      if (out.retired) {
        extra += kReadNs + kWriteNs;
      }
      if (extra > 0.0) {
        timing_.occupy_bank(where.bank, now_ns, extra);
        ras_->add_busy(extra);
      }
    }
  }

  bool issue_read(double now) {
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
      pick = row_hit;
    }
    const PendingRead r = reads_[pick];
    reads_.erase(reads_.begin() + static_cast<std::ptrdiff_t>(pick));
    double done = timing_.access(r.line_addr, MemOp::kRead, now);
    if (ras_) {
      const FaultDomain::ReadOutcome out =
          ras_->on_demand_read(r.line_addr, now);
      if (out.uncorrectable) {
        const double recovery = kReadNs + kWriteNs;
        timing_.occupy_bank(r.where.bank, done, recovery);
        ras_->add_busy(recovery);
        done += recovery;
      }
    }
    const double latency = done - r.arrival;
    stats_.read_latency_ns.add(latency);
    push_completion({r.ticket, done, ReqKind::kRead, false});
    slot_free_at_ = now + t_cmd_ns_;
    return true;
  }

  bool issue_write(double now) {
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
        break;
      }
    }
    if (oldest == kNone) return false;
    const usize pick = row_hit != kNone ? row_hit : oldest;
    const QueuedWrite w = writes_[pick];
    writes_.erase(writes_.begin() + static_cast<std::ptrdiff_t>(pick));
    queued_lines_.erase(w.line_addr);
    double done = timing_.access(w.line_addr, MemOp::kWrite, now);
    ++stats_.array_writes;
    if (ras_) {
      const FaultDomain::WriteOutcome out =
          ras_->on_array_write(w.line_addr, now);
      const double tw = kWriteNs;
      double extra = 0.0;
      if (out.retries > 0) {
        extra += tw * static_cast<double>((u64{1} << out.retries) - 1);
      }
      if (out.remapped) extra += tw;
      if (out.retired) extra += kReadNs + tw;
      if (extra > 0.0) {
        timing_.occupy_bank(w.where.bank, done, extra);
        ras_->add_busy(extra);
        done += extra;
      }
    }
    stats_.last_completion_ns = std::max(stats_.last_completion_ns, done);
    slot_free_at_ = now + t_cmd_ns_;
    while (!parked_.empty() && writes_.size() < write_queue_capacity_) {
      const ParkedWrite p = parked_.front();
      parked_.pop_front();
      accept_write(p.ticket, p.line_addr, p.arrival,
                   std::max(now, p.arrival));
    }
    if (draining_ && parked_.empty() && writes_.size() <= low_watermark_) {
      draining_ = false;
    }
    return true;
  }

  void issue_scrub(double now) {
    const PendingScrub s = *scrub_;
    scrub_.reset();
    const double done = timing_.access(s.line_addr, MemOp::kRead, now);
    const FaultDomain::ScrubOutcome out =
        ras_->on_scrub_read(s.line_addr, now);
    double extra = 0.0;
    if (out.corrected) extra += kWriteNs;
    if (out.uncorrectable || out.retired_worn) {
      extra += kReadNs + kWriteNs;
    }
    if (out.remapped) extra += kWriteNs;
    if (extra > 0.0) {
      timing_.occupy_bank(s.where.bank, done, extra);
      ras_->add_busy(extra);
    }
    slot_free_at_ = now + t_cmd_ns_;
  }

  usize channel_ = 0;
  usize write_queue_capacity_ = 0;
  usize high_watermark_ = 0;
  usize low_watermark_ = 0;
  double t_cmd_ns_ = 0.0;
  double forward_ns_ = 0.0;
  double starvation_cap_ns_ = 0.0;
  bool opportunistic_writes_ = true;
  MemoryTimingModel timing_;

  std::vector<PendingRead> reads_;
  std::vector<QueuedWrite> writes_;
  FlatSetU64 queued_lines_;
  RingBuffer<ParkedWrite> parked_;
  CompletionQueue completions_;
  MemSysStats stats_;
  bool draining_ = false;
  bool flushing_ = false;
  double slot_free_at_ = 0.0;
  u64 next_ticket_ = 0;

  std::optional<FaultDomain> ras_;
  std::optional<PendingScrub> scrub_;
  double next_scrub_at_ = 0.0;

  std::optional<WearLevelTranslator> wl_;
  double wl_busy_ns_ = 0.0;
  double wl_energy_pj_ = 0.0;
};

/// collect_ras_report over reference shards: per-channel stats, the event
/// logs merged in (time, channel) order, and the aging view.
inline RasReport collect_reference_ras_report(
    const std::vector<ReferenceShard>& shards) {
  RasReport report;
  bool any = false;
  for (const ReferenceShard& shard : shards) {
    if (shard.ras() != nullptr) any = true;
  }
  if (!any) return report;
  report.channels.reserve(shards.size());
  for (const ReferenceShard& shard : shards) {
    const FaultDomain* domain = shard.ras();
    report.channels.push_back(domain != nullptr ? domain->stats()
                                                : RasStats{});
    if (domain != nullptr) {
      report.events.insert(report.events.end(), domain->events().begin(),
                           domain->events().end());
      report.events_dropped += domain->events_dropped();
    }
  }
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const RasEvent& a, const RasEvent& b) {
                     if (a.time_ns != b.time_ns) {
                       return a.time_ns < b.time_ns;
                     }
                     return a.channel < b.channel;
                   });
  bool any_lifetime = false;
  for (const ReferenceShard& shard : shards) {
    if (shard.lifetime_on()) any_lifetime = true;
  }
  if (any_lifetime) {
    report.lifetime.reserve(shards.size());
    for (const ReferenceShard& shard : shards) {
      report.lifetime.push_back(shard.lifetime_stats());
    }
  }
  return report;
}

/// MemorySystem's router over reference shards: global tickets, the
/// cross-shard step_until that rescans every shard's wake on each pass,
/// and drain_all.
class ReferenceSystem {
 public:
  explicit ReferenceSystem(MemSysConfig config) : config_{config} {
    config_.validate();
    shards_.reserve(config_.org.channels);
    for (usize c = 0; c < config_.org.channels; ++c) {
      shards_.emplace_back(config_, c);
    }
  }

  u64 submit(u64 line_addr, ReqKind kind, double now_ns,
             bool remapped = false) {
    const u64 ticket = next_ticket_++;
    shards_[channel_of_line(config_.org, line_addr)].submit_with_ticket(
        ticket, line_addr, kind, now_ns, remapped);
    return ticket;
  }

  std::optional<MemSysCompletion> step_until(double t_ns) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr usize kNone = ~usize{0};
    for (;;) {
      usize comp_shard = kNone;
      double next_completion = kInf;
      u64 comp_ticket = 0;
      for (usize c = 0; c < shards_.size(); ++c) {
        if (!shards_[c].has_completion()) continue;
        const MemSysCompletion& top = shards_[c].top_completion();
        if (comp_shard == kNone || top.time_ns < next_completion ||
            (top.time_ns == next_completion && top.ticket < comp_ticket)) {
          comp_shard = c;
          next_completion = top.time_ns;
          comp_ticket = top.ticket;
        }
      }
      const double limit = std::min(t_ns, next_completion);
      usize best_channel = 0;
      double best_wake = kInf;
      for (usize c = 0; c < shards_.size(); ++c) {
        const double wake = shards_[c].wake();
        if (wake < best_wake) {
          best_wake = wake;
          best_channel = c;
        }
      }
      if (best_wake < kInf && best_wake <= limit) {
        shards_[best_channel].arbitrate(best_wake);
        continue;
      }
      if (comp_shard != kNone && next_completion <= t_ns) {
        return shards_[comp_shard].pop_completion();
      }
      return std::nullopt;
    }
  }

  double drain_all() {
    for (ReferenceShard& shard : shards_) shard.set_flushing(true);
    while (step_until(std::numeric_limits<double>::infinity()).has_value()) {
    }
    double last = 0.0;
    for (ReferenceShard& shard : shards_) {
      shard.set_flushing(false);
      last = std::max(last, shard.stats().last_completion_ns);
    }
    return last;
  }

  [[nodiscard]] MemSysStats stats() const {
    MemSysStats merged;
    for (const ReferenceShard& shard : shards_) merged.merge(shard.stats());
    return merged;
  }
  [[nodiscard]] TimingStats timing_stats() const {
    TimingStats merged;
    for (const ReferenceShard& shard : shards_) {
      merged.merge(shard.timing_stats());
    }
    return merged;
  }
  void poll_ras(double now_ns) {
    for (ReferenceShard& shard : shards_) shard.poll_ras(now_ns);
  }
  [[nodiscard]] std::vector<u8> degraded_mask() const {
    if (!config_.ras.enabled()) return {};
    std::vector<u8> mask(shards_.size(), 0);
    for (usize c = 0; c < shards_.size(); ++c) {
      mask[c] = shards_[c].ras_degraded() ? 1 : 0;
    }
    return mask;
  }
  [[nodiscard]] u64 route_for_degradation(u64 line_addr) const {
    if (!config_.ras.enabled()) return line_addr;
    const usize home = channel_of_line(config_.org, line_addr);
    if (!shards_[home].ras_degraded()) return line_addr;
    return ras_remap_line(config_.org, line_addr, degraded_mask());
  }
  [[nodiscard]] RasReport ras_report() const {
    return collect_reference_ras_report(shards_);
  }

 private:
  MemSysConfig config_;
  std::vector<ReferenceShard> shards_;
  u64 next_ticket_ = 0;
};

}  // namespace nvmenc::testutil
