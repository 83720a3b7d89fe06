#include "memsys/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"

namespace nvmenc {

const char* load_pattern_name(LoadPattern pattern) {
  switch (pattern) {
    case LoadPattern::kUniform:
      return "uniform";
    case LoadPattern::kZipfian:
      return "zipfian";
    case LoadPattern::kDiurnal:
      return "diurnal";
  }
  return "?";
}

LoadPattern load_pattern_by_name(const std::string& name) {
  if (name == "uniform") return LoadPattern::kUniform;
  if (name == "zipfian") return LoadPattern::kZipfian;
  if (name == "diurnal") return LoadPattern::kDiurnal;
  throw std::invalid_argument{"unknown load pattern: " + name +
                              " (expected uniform|zipfian|diurnal)"};
}

void LoadGenConfig::validate() const {
  require(users >= 1, "load needs at least one user");
  require(requests >= 1, "load needs at least one request");
  require(footprint_lines >= 2, "footprint must exceed one line");
  require(think_ns >= 0.0, "think time must be non-negative");
  require(read_fraction >= 0.0 && read_fraction <= 1.0,
          "read fraction must be in [0, 1]");
  require(zipf_theta > 0.0 && zipf_theta < 1.0,
          "zipf theta must be in (0, 1)");
  require(diurnal_phases >= 1, "diurnal needs at least one phase");
  require(diurnal_shift >= 0.0 && diurnal_shift <= 1.0,
          "diurnal shift must be in [0, 1]");
}

ZipfianSampler::ZipfianSampler(u64 n, double theta)
    : n_{n}, theta_{theta}, alpha_{1.0 / (1.0 - theta)} {
  require(n >= 2, "zipfian needs at least two items");
  require(theta > 0.0 && theta < 1.0, "zipf theta must be in (0, 1)");
  double zetan = 0.0;
  for (u64 i = 1; i <= n; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  zetan_ = zetan;
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
}

u64 ZipfianSampler::sample(Xoshiro256& rng) const noexcept {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const u64 rank = static_cast<u64>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

AddressSampler::AddressSampler(const LoadGenConfig& config)
    : config_{config},
      zipf_{config.footprint_lines, config.zipf_theta},
      phase_len_{config.requests / config.diurnal_phases + 1} {
  config_.validate();
}

u64 AddressSampler::draw(Xoshiro256& rng, u64 issued_index) const {
  if (config_.pattern == LoadPattern::kUniform) {
    return rng.next_below(config_.footprint_lines);
  }
  const u64 rank = zipf_.sample(rng);
  // Scramble ranks across the footprint so popularity is not adjacency.
  SplitMix64 sm{rank ^ (config_.seed * 0x9e3779b97f4a7c15ull)};
  const u64 scrambled = sm.next() % config_.footprint_lines;
  if (config_.pattern == LoadPattern::kZipfian) return scrambled;
  // Diurnal: the whole popularity map rotates by `diurnal_shift` of the
  // footprint each phase, moving the hot set into previously cold lines.
  const u64 phase = issued_index / phase_len_;
  const u64 offset = static_cast<u64>(
      config_.diurnal_shift * static_cast<double>(config_.footprint_lines));
  return (scrambled + phase * offset) % config_.footprint_lines;
}

namespace {

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

}  // namespace

LoadResult run_load(const LoadGenConfig& load, const MemSysConfig& mem) {
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

LoadResult run_request_stream(const std::vector<MemRequest>& requests,
                              const MemSysConfig& mem) {
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

LoadResult run_load_sharded(const LoadGenConfig& load,
                            const MemSysConfig& mem, usize jobs) {
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

}  // namespace nvmenc
