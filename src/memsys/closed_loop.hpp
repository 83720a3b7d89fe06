// The closed-loop engine: the one user loop behind run_load (all users on
// the MemorySystem router), each channel of run_load_sharded (that
// channel's pinned users on its ChannelShard, on the runner pool) and
// run_request_stream (one CPU over a recorded stream). Open loops have
// their own engine (open_loop.hpp).
//
// A closed-loop user keeps one request outstanding: it submits, blocks
// until the completion returns, thinks, and submits again. Arrivals pop in
// (time, user) order, but only after every completion due by then: a
// completion re-arms its user at completion + think, which may precede
// the current top. Users retire at their arrival once the request budget
// is spent or the driver reports no request left. The run then drains at
// once, without pumping to arrivals that can no longer issue: those
// arrivals submit nothing, and splitting a pump never changes a shard
// (DESIGN.md §10), so popping them would only spend heap operations and
// think-time draws on the schedule drain_all issues anyway.
//
// The system is the router or one shard (both offer step_until and
// drain_all with the same contract). The driver's callback draws and
// submits each request itself (address, kind, RAS routing), so the
// per-request loop stays a template with no type erasure, as
// run_open_loop's does.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace nvmenc {

namespace closed_loop_detail {

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

}  // namespace closed_loop_detail

/// Runs `users` (distinct ids) in a closed loop on `sys` until `requests`
/// have been issued and all of them completed, then drains `sys` and
/// returns drain_all()'s time. Each user first arrives at think(user).
/// At each arrival, `issue(user, t, k)` draws and submits that user's
/// next request — request number k of the loop, arriving at or after `t`
/// — and returns its ticket, or std::nullopt when the user has no
/// request left (it then retires).
template <typename System, typename Think, typename Issue>
double run_closed_loop(System& sys, std::span<const usize> users,
                       u64 requests, Think&& think, Issue&& issue) {
  using closed_loop_detail::UserArrival;
  std::priority_queue<UserArrival, std::vector<UserArrival>,
                      closed_loop_detail::LaterArrival>
      arrivals;
  for (const usize u : users) arrivals.push({think(u), u});

  closed_loop_detail::InflightUsers inflight{users.size()};
  u64 issued = 0;
  while (issued < requests || !inflight.empty()) {
    const double next_arrival = arrivals.empty()
                                    ? std::numeric_limits<double>::infinity()
                                    : arrivals.top().time_ns;
    if (const auto comp = sys.step_until(next_arrival)) {
      const usize u = inflight.take(comp->ticket);
      arrivals.push({comp->time_ns + think(u), u});
      continue;
    }
    if (arrivals.empty()) break;
    const UserArrival arr = arrivals.top();
    arrivals.pop();
    if (issued >= requests) continue;  // budget spent: the user retires
    if (const std::optional<u64> ticket =
            issue(arr.user, arr.time_ns, issued)) {
      inflight.add(*ticket, arr.user);
      ++issued;
    }
  }
  return sys.drain_all();
}

}  // namespace nvmenc
