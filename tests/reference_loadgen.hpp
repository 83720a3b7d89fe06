// The three closed loops the repository shipped before the closed-loop
// engine (memsys/closed_loop.hpp), kept verbatim as differential-testing
// oracles.
//
// run_load drives every user on one MemorySystem router with one global
// request quota, polling RAS health and re-routing at every submit.
// run_request_stream is one blocking CPU over a recorded stream.
// run_load_sharded pins each user to one channel and runs each channel's
// users on their own ChannelShard, on the runner pool. Each wrote its own
// arrival heap, ticket -> user list, think draw and drain. The production
// drivers now hand their users, think time and one issue callback to
// run_closed_loop; test_loadgen_differential.cpp holds them to these
// loops result for result and rendered table for rendered table.
//
// Edits against the shipped loops: the helpers of loadgen.cpp's unnamed
// namespace live in `loadgen_detail`, and the three functions are inline.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/memory_system.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"

namespace nvmenc::testutil {

namespace loadgen_detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct UserArrival {
  double time_ns = 0.0;
  usize user = 0;
};
struct LaterArrival {
  bool operator()(const UserArrival& a, const UserArrival& b) const noexcept {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.user > b.user;  // deterministic tie-break
  }
};

/// Ticket -> user of the requests in flight. A user keeps at most one
/// outstanding, so a flat list of at most `users` entries holds them all
/// and a request costs no allocation.
class InflightUsers {
 public:
  explicit InflightUsers(usize users) { entries_.reserve(users); }

  void add(u64 ticket, usize user) { entries_.push_back({ticket, user}); }

  /// Removes `ticket`'s entry and returns its user.
  usize take(u64 ticket) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [ticket](const Entry& e) { return e.ticket == ticket; });
    ensure(it != entries_.end(), "completion for a ticket not in flight");
    const usize user = it->user;
    *it = entries_.back();
    entries_.pop_back();
    return user;
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

 private:
  struct Entry {
    u64 ticket = 0;
    usize user = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace loadgen_detail

inline LoadResult run_load(const LoadGenConfig& load,
                           const MemSysConfig& mem) {
  using namespace loadgen_detail;
  load.validate();
  MemorySystem sys{mem};
  const bool ras_on = mem.ras.enabled();
  const AddressSampler sampler{load};

  // Fork one generator per user so the per-user streams are independent of
  // interleaving order.
  SplitMix64 sm{load.seed};
  std::vector<Xoshiro256> rngs;
  rngs.reserve(load.users);
  for (usize u = 0; u < load.users; ++u) rngs.emplace_back(sm.next());

  const auto think = [&](usize u) {
    if (load.think_ns == 0.0) return 0.0;
    return -load.think_ns * std::log(1.0 - rngs[u].next_double());
  };

  std::priority_queue<UserArrival, std::vector<UserArrival>, LaterArrival>
      arrivals;
  for (usize u = 0; u < load.users; ++u) arrivals.push({think(u), u});

  InflightUsers inflight{load.users};
  u64 issued = 0;
  while (issued < load.requests || !inflight.empty()) {
    const double next_arrival = arrivals.empty() ? kInf : arrivals.top().time_ns;
    // Deliver every completion due before the next arrival; each unblocks
    // its user, whose next arrival may in turn precede the current top.
    if (const auto comp = sys.step_until(next_arrival)) {
      const usize u = inflight.take(comp->ticket);
      arrivals.push({comp->time_ns + think(u), u});
      continue;
    }
    if (arrivals.empty()) break;
    const UserArrival arr = arrivals.top();
    arrivals.pop();
    if (issued >= load.requests) continue;  // quota filled: user retires
    u64 addr = sampler.draw(rngs[arr.user], issued);
    const ReqKind kind = rngs[arr.user].next_bool(load.read_fraction)
                             ? ReqKind::kRead
                             : ReqKind::kWrite;
    bool remapped = false;
    if (ras_on) {
      // Closed-loop arrivals are already processed one at a time in
      // global time order, so the serial driver can re-route around
      // degraded channels at every submit (the single-threaded analogue
      // of the replay engines' epoch-boundary mask).
      sys.poll_ras(arr.time_ns);
      const u64 routed = sys.route_for_degradation(addr);
      remapped = routed != addr;
      addr = routed;
    }
    inflight.add(sys.submit(addr, kind, arr.time_ns, remapped), arr.user);
    ++issued;
  }

  LoadResult result;
  result.makespan_ns = sys.drain_all();
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  return result;
}

inline LoadResult run_request_stream(const std::vector<MemRequest>& requests,
                                     const MemSysConfig& mem) {
  using namespace loadgen_detail;
  MemorySystem sys{mem};
  double cpu_time = 0.0;
  for (const MemRequest& req : requests) {
    cpu_time += kCpuGapNs;
    const u64 ticket =
        sys.submit(req.line_addr,
                   req.is_write ? ReqKind::kWrite : ReqKind::kRead, cpu_time);
    // Every earlier request already completed, so the next completion is
    // this one: data returned (read) or line accepted (write).
    const auto comp = sys.step_until(kInf);
    ensure(comp.has_value() && comp->ticket == ticket,
           "request stream lost its completion");
    cpu_time = comp->time_ns;
  }
  LoadResult result;
  result.makespan_ns = std::max(cpu_time, sys.drain_all());
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  return result;
}

inline LoadResult run_load_sharded(const LoadGenConfig& load,
                                   const MemSysConfig& mem, usize jobs) {
  using namespace loadgen_detail;
  load.validate();
  mem.validate();
  const usize nch = mem.org.channels;

  // Per-user quota: split the global request budget evenly, earlier users
  // absorbing the remainder, so the total is exactly load.requests.
  std::vector<u64> quota(load.users);
  for (usize u = 0; u < load.users; ++u) {
    quota[u] = load.requests / load.users +
               (u < load.requests % load.users ? 1 : 0);
  }

  // One shared sampler sized to the largest per-user quota, so each user's
  // own issue counter drives the diurnal phase clock through all phases.
  LoadGenConfig per_user = load;
  per_user.requests = std::max<u64>(quota.empty() ? 1 : quota[0], 1);
  const AddressSampler sampler{per_user};

  // Fork every user's generator up front in user order — (seed, user)
  // keyed, independent of shard scheduling.
  SplitMix64 sm{load.seed};
  std::vector<Xoshiro256> rngs;
  rngs.reserve(load.users);
  for (usize u = 0; u < load.users; ++u) rngs.emplace_back(sm.next());

  std::vector<ChannelShard> shards;
  shards.reserve(nch);
  for (usize c = 0; c < nch; ++c) shards.emplace_back(mem, c);

  // Each shard's closed loop touches only its own users (u % nch == c),
  // their rngs, and its shard — no shared mutable state across workers.
  auto run_shard = [&](usize c) {
    ChannelShard& shard = shards[c];
    const auto think = [&](usize u) {
      if (load.think_ns == 0.0) return 0.0;
      return -load.think_ns * std::log(1.0 - rngs[u].next_double());
    };

    std::priority_queue<UserArrival, std::vector<UserArrival>, LaterArrival>
        arrivals;
    InflightUsers inflight{load.users};
    std::vector<u64> issued(load.users, 0);  // only this shard's slots used
    for (usize u = c; u < load.users; u += nch) {
      if (quota[u] > 0) arrivals.push({think(u), u});
    }
    while (!arrivals.empty() || !inflight.empty()) {
      const double next_arrival =
          arrivals.empty() ? kInf : arrivals.top().time_ns;
      if (const auto comp = shard.step_until(next_arrival)) {
        const usize u = inflight.take(comp->ticket);
        if (issued[u] < quota[u]) {
          arrivals.push({comp->time_ns + think(u), u});
        }
        continue;
      }
      if (arrivals.empty()) break;
      const UserArrival arr = arrivals.top();
      arrivals.pop();
      const usize u = arr.user;
      const u64 addr = pin_line_to_channel(
          mem.org, sampler.draw(rngs[u], issued[u]), c);
      const ReqKind kind = rngs[u].next_bool(load.read_fraction)
                               ? ReqKind::kRead
                               : ReqKind::kWrite;
      inflight.add(shard.submit(addr, kind, arr.time_ns), u);
      ++issued[u];
    }
    (void)shard.drain_all();
  };

  const auto pool = pool_for(std::min(resolve_jobs(jobs), nch));
  parallel_for(pool.get(), nch, run_shard);

  LoadResult result;
  for (usize c = 0; c < nch; ++c) {
    result.stats.merge(shards[c].stats());
    result.timing.merge(shards[c].timing_stats());
  }
  result.ras = collect_ras_report(shards);
  result.makespan_ns = result.stats.last_completion_ns;
  return result;
}

}  // namespace nvmenc::testutil
