#include "memsys/memory_system.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace nvmenc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr usize kNone = ~usize{0};
}  // namespace

void MemSysConfig::validate() const {
  org.validate();
  ras.validate();
  require(ras.kill_channel < static_cast<int>(org.channels),
          "kill channel out of range");
}

MemorySystem::MemorySystem(MemSysConfig config) : config_{config} {
  config_.validate();
  shards_.reserve(config_.org.channels);
  for (usize c = 0; c < config_.org.channels; ++c) {
    shards_.emplace_back(config_, c);
  }
}

u64 MemorySystem::submit(u64 line_addr, ReqKind kind, double now_ns,
                         bool remapped) {
  const u64 ticket = next_ticket_++;
  shards_[channel_of(line_addr)].submit_with_ticket(ticket, line_addr, kind,
                                                    now_ns, remapped);
  return ticket;
}

void MemorySystem::poll_ras(double now_ns) {
  for (ChannelShard& shard : shards_) shard.poll_ras(now_ns);
}

std::vector<u8> MemorySystem::degraded_mask() const {
  if (!config_.ras.enabled()) return {};
  std::vector<u8> mask(shards_.size(), 0);
  for (usize c = 0; c < shards_.size(); ++c) {
    mask[c] = shards_[c].ras_degraded() ? 1 : 0;
  }
  return mask;
}

u64 MemorySystem::route_for_degradation(u64 line_addr) const {
  if (!config_.ras.enabled()) return line_addr;
  const usize home = channel_of(line_addr);
  if (!shards_[home].ras_degraded()) return line_addr;
  return ras_remap_line(config_.org, line_addr, degraded_mask());
}

std::optional<MemSysCompletion> MemorySystem::step_until(double t_ns) {
  for (;;) {
    // Earliest undelivered completion across shards, in (time, ticket)
    // order — each shard's heap top is its own minimum, so the global
    // minimum is the best of the tops.
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
    // Arbitrating past the earliest undelivered completion is unsafe: the
    // caller's reaction to it may inject arrivals in between.
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

double MemorySystem::drain_all() {
  while (step_until(kInf).has_value()) {
  }
  double last = 0.0;
  for (const ChannelShard& shard : shards_) {
    last = std::max(last, shard.stats().last_completion_ns);
  }
  return last;
}

MemSysStats MemorySystem::stats() const {
  MemSysStats merged;
  for (const ChannelShard& shard : shards_) merged.merge(shard.stats());
  return merged;
}

TimingStats MemorySystem::timing_stats() const {
  TimingStats merged;
  for (const ChannelShard& shard : shards_) {
    merged.merge(shard.timing_stats());
  }
  return merged;
}

usize MemorySystem::write_queue_depth(usize channel) const {
  require(channel < shards_.size(), "channel index out of range");
  return shards_[channel].write_queue_depth();
}

bool MemorySystem::idle() const noexcept {
  for (const ChannelShard& shard : shards_) {
    if (!shard.idle()) return false;
  }
  return true;
}

}  // namespace nvmenc
