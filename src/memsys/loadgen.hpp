// Seeded closed-loop load generation against a MemorySystem.
//
// A fixed population of users each keeps one request outstanding: submit,
// block until the completion returns, think for an exponentially
// distributed time, repeat. Offered load is controlled by the think time
// (shorter think = closer to saturation) — the standard closed-loop knob,
// which cannot overrun the system the way an open arrival process can.
//
// Everything is drawn from named, seeded streams (per-user Xoshiro256
// generators forked from one SplitMix64), and each loop is single-threaded
// discrete-event, so a (config, seed) pair reproduces bit-identical
// results regardless of --jobs or host load. Address patterns cover the
// cases that stress a write-queue design differently: uniform (no
// locality, worst-case row misses), zipfian (hot lines -> forwarding and
// coalescing), and diurnal (zipfian whose hot set shifts in phases,
// periodically re-dirtying a cold region).
//
// All three drivers below — run_load, run_request_stream and each channel
// of run_load_sharded — run one closed-loop engine (run_closed_loop,
// memsys/closed_loop.hpp) and supply only their users, their think time
// and how a user's next request is drawn and submitted.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "memsys/memory_system.hpp"
#include "sim/collector.hpp"

namespace nvmenc {

enum class LoadPattern : u8 { kUniform = 0, kZipfian = 1, kDiurnal = 2 };

[[nodiscard]] const char* load_pattern_name(LoadPattern pattern);

/// Diurnal load: the run splits into kDiurnalPhases phases, and each phase
/// moves the hot set by kDiurnalShift of the footprint.
inline constexpr usize kDiurnalPhases = 4;
inline constexpr double kDiurnalShift = 0.25;

/// One closed-loop load: pattern, population, think time, read mix,
/// request budget, footprint and seed (the diurnal shape is constant).
struct LoadGenConfig {
  LoadPattern pattern = LoadPattern::kZipfian;
  double zipf_theta = 0.99;   ///< skew; must be in (0, 1)
  usize users = 32;           ///< closed-loop population (outstanding <= users)
  double think_ns = 200.0;    ///< mean exponential think time per user
  double read_fraction = 0.7;
  u64 requests = 100'000;     ///< total issued across all users
  u64 footprint_lines = u64{1} << 18;
  u64 seed = 42;

  void validate() const;
};

/// Zipfian rank sampler over [0, n), Gray's method as popularized by YCSB.
class ZipfianSampler {
 public:
  ZipfianSampler(u64 n, double theta);

  /// Rank in [0, n), rank 0 most popular.
  [[nodiscard]] u64 sample(Xoshiro256& rng) const noexcept;

 private:
  u64 n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Address stream of one load pattern. Popular ranks are scrambled across
/// the footprint by a SplitMix64 hash so "hot" does not mean "contiguous".
class AddressSampler {
 public:
  explicit AddressSampler(const LoadGenConfig& config);

  /// Line address of request number `issued_index` (the diurnal phase
  /// clock), drawn from `rng`.
  [[nodiscard]] u64 draw(Xoshiro256& rng, u64 issued_index) const;

 private:
  LoadGenConfig config_;
  ZipfianSampler zipf_;
  u64 phase_len_;  ///< requests per diurnal phase
};

struct LoadResult {
  MemSysStats stats;     ///< request-level counters + read-latency histogram
  TimingStats timing;    ///< array-level counters (accesses, row hits)
  RasReport ras;         ///< per-channel fault/recovery view (empty = RAS off)
  double makespan_ns = 0.0;  ///< last array operation finished

  [[nodiscard]] bool operator==(const LoadResult&) const = default;
};

/// Runs the closed loop to completion (all requests issued, system fully
/// drained) and returns the collected statistics.
[[nodiscard]] LoadResult run_load(const LoadGenConfig& load,
                                  const MemSysConfig& mem);

/// On-chip time a CPU spends between consecutive memory requests (cache
/// hits and computation) in run_request_stream.
inline constexpr double kCpuGapNs = 20.0;

/// Single-CPU closed loop over a recorded request stream (the model
/// behind `nvmenc perf` and bench/paper_claims, which checks the paper's
/// §3.4.2 claim that a 3.47 ns encode is performance-neutral). The CPU
/// spends kCpuGapNs before each request, in order. A read blocks it until
/// the data returns; a write blocks it only until the write queue accepts
/// the line, so a write parked on a full queue stalls the CPU.
/// `makespan_ns` is the later of the CPU's finish and the final drain.
[[nodiscard]] LoadResult run_request_stream(
    const std::vector<MemRequest>& requests, const MemSysConfig& mem);

/// Channel-sharded closed loop: user u is pinned to channel u % channels
/// (its addresses are remapped into that channel's row groups, keeping
/// the within-row offset and the pattern's popularity structure), and each
/// shard runs its users' closed loop independently on one of `jobs`
/// workers (0 = one per hardware context). Per-user request quotas split
/// `requests` evenly (earlier users take the remainder), and each user's
/// own issue counter drives its diurnal phase clock.
///
/// This is a different workload than run_load — pinning removes
/// cross-channel interleaving by construction — but it is deterministic
/// in the same strong sense: every stream is (seed, user)-keyed, shards
/// share nothing, and statistics merge in channel-id order, so results
/// are bit-identical for any `jobs` value. With the RAS layer enabled,
/// pinned users ride their channel through degradation (faults, scrub,
/// and the degraded-mode trip are all modelled and reported; only the
/// cross-channel re-routing of run_load is absent, since pinning is the
/// point of this driver).
[[nodiscard]] LoadResult run_load_sharded(const LoadGenConfig& load,
                                          const MemSysConfig& mem,
                                          usize jobs);

}  // namespace nvmenc
