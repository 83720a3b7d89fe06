// FaultInjector: seeded, deterministic cell-misbehaviour source for the
// PCM device model.
//
// Real PCM/RRAM writes fail transiently (a programmed cell reads back its
// old value and must be re-pulsed), reads disturb neighbouring cells, and
// worn cells eventually stick hard at one value. The injector models all
// three at configurable per-event rates. Every draw is keyed by
// (seed, line address, per-line event sequence number), never by global
// call order, so a fault trace is bit-identical no matter how many runner
// workers interleave their device accesses (--jobs=1 == --jobs=4) and no
// matter how other lines are accessed in between.
//
// The injector is a passive oracle: NvmDevice asks it which cells of a
// store failed or stuck and which cell a load disturbed, then applies the
// damage itself. One injector serves one device; neither is thread-safe
// (each replay cell owns a private device + injector pair).
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc {

struct FaultInjectorConfig {
  /// Probability that one programmed cell (data or metadata) fails to
  /// switch and retains its previous value, per program pulse. WIRE-style
  /// iterative writes re-pulse such cells under program-and-verify.
  double write_fail_rate = 0.0;
  /// Probability per line read that one uniformly chosen cell of the
  /// stored image (data + metadata) drifts to its complement.
  double read_disturb_rate = 0.0;
  /// Probability that one programmed *data* cell becomes hard stuck at
  /// the value it now holds, per program pulse (the SAFER fault model).
  double stuck_rate = 0.0;
  u64 seed = 1;

  /// True when any rate is non-zero; a disabled injector costs one branch
  /// per device access and changes no behaviour.
  [[nodiscard]] bool any() const noexcept {
    return write_fail_rate > 0.0 || read_disturb_rate > 0.0 ||
           stuck_rate > 0.0;
  }
};

/// Faults drawn for one store event. Cell positions use the combined index
/// space of a stored line: [0, kLineBits) are data cells, kLineBits + i is
/// metadata cell i.
struct WriteFaults {
  std::vector<usize> failed_cells;     ///< transient: pulse did not land
  std::vector<usize> new_stuck_cells;  ///< hard: data cells now frozen
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorConfig config);

  [[nodiscard]] bool enabled() const noexcept { return config_.any(); }
  [[nodiscard]] const FaultInjectorConfig& config() const noexcept {
    return config_;
  }

  /// Draws the faults of write event `seq` on `line_addr`: every cell that
  /// differs between `prev` and `next` receives one program pulse and may
  /// transiently fail and/or (data cells only) become hard stuck.
  [[nodiscard]] WriteFaults on_store(u64 line_addr, u64 seq,
                                     const StoredLine& prev,
                                     const StoredLine& next);

  /// Draws the read-disturb outcome of read event `seq` on `line_addr`:
  /// the combined-space position of the disturbed cell (uniform over
  /// `cells`), or nullopt for a clean read.
  [[nodiscard]] std::optional<usize> on_load(u64 line_addr, u64 seq,
                                             usize cells);

  [[nodiscard]] u64 transient_faults() const noexcept { return transient_; }
  [[nodiscard]] u64 read_disturbs() const noexcept { return disturbs_; }
  [[nodiscard]] u64 hard_faults() const noexcept { return hard_; }

  /// Generator for one (line, event) pair: a splitmix64 cascade over the
  /// seed, the address and the sequence number, so draws are independent
  /// of any other line's history. Public because the memory-system RAS
  /// layer (memsys/ras.hpp) keys its own draws through the same cascade
  /// with channel-bearing salts — (seed, channel, line, seq) — to keep
  /// fault streams identical between serial and sharded runs.
  [[nodiscard]] Xoshiro256 event_rng(u64 line_addr, u64 seq,
                                     u64 salt) const noexcept;

 private:
  FaultInjectorConfig config_;
  u64 transient_ = 0;
  u64 disturbs_ = 0;
  u64 hard_ = 0;
};

/// Longest program-and-verify pulse ladder. Re-pulse r costs 2^(r-1)
/// pulses, so the 16th alone costs 32768; past 63 the pulse count no
/// longer fits a 64-bit shift. FaultPlan (the controllers) and RasConfig
/// (the memory system) are both held to it before any work runs.
inline constexpr usize kMaxRetryLimit = 16;

/// Throws std::invalid_argument naming `retry_limit` and kMaxRetryLimit
/// when the ladder is longer than the bound.
void check_retry_limit(usize retry_limit);

/// Full resilience configuration of one replay: the injected fault rates
/// plus the controller's response policy. Everything off (the default)
/// keeps the exact legacy write path, bit-identical stats included.
struct FaultPlan {
  FaultInjectorConfig inject;
  /// Program-and-verify retry budget per write (re-pulses of the failed
  /// cells with exponentially escalating energy) before escalating to
  /// SAFER remap and line retirement.
  usize retry_limit = 3;
  /// Protect the per-line metadata region with SECDED(72,64) check cells.
  bool protect_meta = false;
  /// Run program-and-verify even with every rate zero: baseline costing
  /// (the verify reads are then the only overhead) and differential tests.
  bool force_verify = false;
  /// Power-failure atomicity: run every write-back through the redo-log
  /// commit protocol (log image -> commit record -> home line -> clear,
  /// priced per write) so a power cut at any pulse boundary recovers to
  /// the full old or full new line image.
  bool atomic_writes = false;

  /// Resilience machinery active? Off => controllers take the legacy path.
  [[nodiscard]] bool active() const noexcept {
    return inject.any() || protect_meta || force_verify || atomic_writes;
  }
  void validate() const { check_retry_limit(retry_limit); }
};

}  // namespace nvmenc
