#include "memsys/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "memsys/closed_loop.hpp"
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

void LoadGenConfig::validate() const {
  require(users >= 1, "load needs at least one user");
  require(requests >= 1, "load needs at least one request");
  require(footprint_lines >= 2, "footprint must exceed one line");
  require(think_ns >= 0.0, "think time must be non-negative");
  require(read_fraction >= 0.0 && read_fraction <= 1.0,
          "read fraction must be in [0, 1]");
  require(zipf_theta > 0.0 && zipf_theta < 1.0,
          "zipf theta must be in (0, 1)");
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
      phase_len_{config.requests / kDiurnalPhases + 1} {
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
  // Diurnal: the whole popularity map rotates by kDiurnalShift of the
  // footprint each phase, moving the hot set into previously cold lines.
  const u64 phase = issued_index / phase_len_;
  const u64 offset = static_cast<u64>(
      kDiurnalShift * static_cast<double>(config_.footprint_lines));
  return (scrambled + phase * offset) % config_.footprint_lines;
}

namespace {

/// One generator per user, forked in user order from one SplitMix64: each
/// user's stream is (seed, user)-keyed, independent of interleaving order
/// and of shard scheduling.
std::vector<Xoshiro256> fork_user_rngs(const LoadGenConfig& load) {
  SplitMix64 sm{load.seed};
  std::vector<Xoshiro256> rngs;
  rngs.reserve(load.users);
  for (usize u = 0; u < load.users; ++u) rngs.emplace_back(sm.next());
  return rngs;
}

/// Exponentially distributed think time of mean load.think_ns (a zero
/// mean draws nothing).
double draw_think(const LoadGenConfig& load, Xoshiro256& rng) {
  if (load.think_ns == 0.0) return 0.0;
  return -load.think_ns * std::log(1.0 - rng.next_double());
}

ReqKind draw_kind(const LoadGenConfig& load, Xoshiro256& rng) {
  return rng.next_bool(load.read_fraction) ? ReqKind::kRead : ReqKind::kWrite;
}

}  // namespace

LoadResult run_load(const LoadGenConfig& load, const MemSysConfig& mem) {
  load.validate();
  MemorySystem sys{mem};
  const bool ras_on = mem.ras.enabled();
  const AddressSampler sampler{load};
  std::vector<Xoshiro256> rngs = fork_user_rngs(load);
  std::vector<usize> users(load.users);
  std::iota(users.begin(), users.end(), usize{0});

  LoadResult result;
  result.makespan_ns = run_closed_loop(
      sys, users, load.requests,
      [&](usize u) { return draw_think(load, rngs[u]); },
      [&](usize u, double now, u64 k) -> std::optional<u64> {
        u64 addr = sampler.draw(rngs[u], k);
        const ReqKind kind = draw_kind(load, rngs[u]);
        bool remapped = false;
        if (ras_on) {
          // Closed-loop arrivals are already processed one at a time in
          // global time order, so the serial driver can re-route around
          // degraded channels at every submit (the single-threaded
          // analogue of the replay engines' epoch-boundary mask).
          sys.poll_ras(now);
          const u64 routed = sys.route_for_degradation(addr);
          remapped = routed != addr;
          addr = routed;
        }
        return sys.submit(addr, kind, now, remapped);
      });
  result.stats = sys.stats();
  result.timing = sys.timing_stats();
  result.ras = sys.ras_report();
  return result;
}

LoadResult run_request_stream(const std::vector<MemRequest>& requests,
                              const MemSysConfig& mem) {
  MemorySystem sys{mem};
  // The CPU decides its next request the moment the previous one
  // completes, and the request reaches memory kCpuGapNs later: the system
  // knows it is coming through the gap (a pending read holds back
  // opportunistic writes). So the CPU's think time is zero and the gap
  // rides on the arrival stamp.
  constexpr usize kCpu[] = {0};
  LoadResult result;
  result.makespan_ns = run_closed_loop(
      sys, kCpu, requests.size(), [](usize) { return 0.0; },
      [&](usize, double now, u64 k) -> std::optional<u64> {
        const MemRequest& req = requests[k];
        return sys.submit(req.line_addr,
                          req.is_write ? ReqKind::kWrite : ReqKind::kRead,
                          now + kCpuGapNs);
      });
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
  std::vector<Xoshiro256> rngs = fork_user_rngs(load);
  std::vector<u64> issued(load.users, 0);

  std::vector<ChannelShard> shards;
  shards.reserve(nch);
  for (usize c = 0; c < nch; ++c) shards.emplace_back(mem, c);

  // Each shard's closed loop touches only its own users (u % nch == c),
  // their rngs and issue counters, and its shard — no shared mutable
  // state across workers.
  auto run_shard = [&](usize c) {
    ChannelShard& shard = shards[c];
    std::vector<usize> users;
    u64 budget = 0;
    for (usize u = c; u < load.users; u += nch) {
      if (quota[u] == 0) continue;
      users.push_back(u);
      budget += quota[u];
    }
    (void)run_closed_loop(
        shard, users, budget,
        [&](usize u) { return draw_think(load, rngs[u]); },
        [&](usize u, double now, u64) -> std::optional<u64> {
          if (issued[u] == quota[u]) return std::nullopt;
          const u64 addr = pin_line_to_channel(
              mem.org, sampler.draw(rngs[u], issued[u]++), c);
          return shard.submit(addr, draw_kind(load, rngs[u]), now);
        });
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
