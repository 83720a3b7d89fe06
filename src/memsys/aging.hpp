// Accelerated-aging driver: loop a workload until the media fails.
//
// The lifetime model (memsys/lifetime.hpp) makes the scheduler simulation
// age; this driver asks the question the paper's robustness claim hangs
// on: how many writes does each scheme sustain before the first line
// retires, the first channel trips, or capacity falls through a floor?
// It re-runs a trace (or a per-index keyed synthetic stream) in passes on
// the open-loop engine (memsys/open_loop.hpp), one continuous index space
// of max_passes x pass length accesses. Its own part is the engine's
// epoch hook: at every epoch boundary — after channel health is polled,
// the same deterministic control interval a replay uses — it samples
// survivor capacity, latches the failure markers and applies the stop
// rule, and emits a survivor-capacity curve plus writes-to-failure
// markers.
//
// A run is one long causal chain (traffic after a retirement depends on
// the retirement), but across channels only through the degraded-channel
// routing mask and the stop rule, which act at epoch boundaries alone —
// exactly what the engine's epoch schedule models. run_to_failure runs
// it on one worker; parallelism belongs one level up — the lifetime
// section of bench/paper_claims fans independent per-scheme cells over a
// thread pool.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "memsys/loadgen.hpp"
#include "memsys/memory_system.hpp"
#include "trace/access.hpp"

namespace nvmenc {

/// Why a run-to-failure loop ended.
enum class AgingStop : u8 {
  kMaxPasses = 0,        ///< workload budget exhausted, media still healthy
  kFirstRetirement = 1,  ///< a line retired (--until=retirement)
  kFirstTrip = 2,        ///< a channel degraded (--until=trip)
  kCapacityFloor = 3,    ///< survivor capacity fell below the floor
};

[[nodiscard]] const char* aging_stop_name(AgingStop stop);

/// Failure definition selected by --until.
enum class AgingUntil : u8 { kRetirement = 0, kTrip = 1, kFloor = 2 };

[[nodiscard]] const char* aging_until_name(AgingUntil until);
/// Parses "retirement" | "trip" | "floor"; throws std::invalid_argument.
[[nodiscard]] AgingUntil aging_until_by_name(const std::string& name);

struct AgingConfig {
  double inter_arrival_ns = 10.0;  ///< open-loop arrival spacing
  /// Accesses between health polls / stop checks — the deterministic
  /// control interval (failure markers are sampled at these boundaries).
  u64 epoch_accesses = 10'000;
  /// Workload repetitions before giving up on reaching failure.
  u64 max_passes = 1'000;
  AgingUntil until = AgingUntil::kRetirement;
  /// Survivor-capacity fraction that ends the run (--until=floor; always
  /// checked, so a collapsing array stops early regardless of `until`).
  double capacity_floor = 0.5;

  void validate() const;
};

/// One sample of the survivor-capacity curve, recorded whenever the
/// retired-line or degraded-channel count changes (plus the endpoints).
struct CapacityPoint {
  u64 array_writes = 0;  ///< total array writes issued by this time
  double time_ns = 0.0;
  u64 retired = 0;       ///< lines retired across all channels
  usize degraded = 0;    ///< channels tripped
  /// Mean over channels of the surviving-line fraction (a degraded
  /// channel contributes 0; an untouched one contributes 1).
  double capacity = 0.0;

  [[nodiscard]] bool operator==(const CapacityPoint&) const = default;
};

struct AgingResult {
  u64 accesses = 0;  ///< accesses issued before the stop
  u64 passes = 0;    ///< workload repetitions started
  u64 total_array_writes = 0;
  /// Array writes issued when the first retirement was observed (0 = no
  /// retirement happened before the stop).
  u64 writes_to_first_retirement = 0;
  double first_retirement_ns = 0.0;
  u64 writes_to_first_trip = 0;
  double first_trip_ns = 0.0;
  AgingStop stop = AgingStop::kMaxPasses;
  std::vector<CapacityPoint> curve;
  MemSysStats stats;
  TimingStats timing;
  RasReport ras;
  double makespan_ns = 0.0;

  [[nodiscard]] bool operator==(const AgingResult&) const = default;
};

/// Loops `trace` (whole passes, continuous virtual time) until the
/// configured failure condition or the pass budget (in accesses,
/// max_passes x trace size, clamped at 2^64 - 1). Requires an enabled
/// RAS/lifetime layer in `mem`.
[[nodiscard]] AgingResult run_to_failure(std::span<const MemAccess> trace,
                                         const AgingConfig& aging,
                                         const MemSysConfig& mem);

/// Same loop over a synthetic open-loop stream: access i is a pure
/// function of (load.seed, i) — AddressSampler's pattern plus the read
/// fraction — so the stream extends to as many passes as failure takes.
/// One pass = load.requests accesses.
[[nodiscard]] AgingResult run_to_failure(const LoadGenConfig& load,
                                         const AgingConfig& aging,
                                         const MemSysConfig& mem);

}  // namespace nvmenc
