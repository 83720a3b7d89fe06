// Replays a collected write-back trace through one encoding scheme: the
// second half of the functional pipeline (collector.hpp is the first).
//
// A hardware scheme gets a fresh NvmDevice and one MemoryController over
// it: the controller applies the warm-up write-backs to reach steady
// stored/tag state, resets its statistics, then plays the measured window.
// A paper-model scheme runs its accounting model over a logical image
// instead. Either way the result carries the measured window's statistics
// with its demand-read energy folded in, so energy totals are comparable
// the way Section 4.2.2 compares them.
#pragma once

#include <optional>

#include "common/cancel.hpp"
#include "core/schemes.hpp"
#include "fault/fault_injector.hpp"
#include "nvm/controller.hpp"
#include "sim/collector.hpp"

namespace nvmenc {

/// Structured failure record of one matrix cell: the phase that threw
/// ("collect" or "replay") and the exception message. Cells carrying an
/// error hold empty statistics and are excluded from normalized tables.
struct CellError {
  std::string phase;
  std::string message;
};

struct ReplayResult {
  std::string benchmark;
  std::string scheme;
  ControllerStats stats;
  usize meta_bits = 0;
  u64 device_flips = 0;  ///< device-side cross-check of stats.flips.total()
  std::optional<CellError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// The trace's `initial_line` function must still be valid (i.e. the
/// workload that produced it must be alive).
///
/// `fault` configures the resilience experiment: non-zero injection rates
/// attach a FaultInjector to the device and the controller write path runs
/// program-and-verify (`FaultPlan::retry_limit`, SAFER escalation, line
/// retirement); `protect_meta` adds SECDED check cells to the metadata
/// region. The injector is seeded with splitmix64(plan seed ^
/// `fault_seed_salt`), so per-cell salts give every matrix cell a
/// decorrelated, worker-count-independent fault stream. The default
/// (inactive) plan takes the exact legacy path — statistics are
/// bit-identical to a replay without the fault layer. Paper-model schemes
/// (is_paper_model) have no device and ignore the plan.
///
/// `cancel`, when non-null, is polled once per write-back; a requested
/// stop aborts the replay by throwing CancelledRun (deliberately not a
/// std::exception, so graceful-degradation handlers cannot misfile a user
/// interrupt as a cell failure).
[[nodiscard]] ReplayResult replay_scheme(
    const WritebackTrace& trace, Scheme scheme, const EnergyParams& energy = {},
    const FaultPlan& fault = {}, u64 fault_seed_salt = 0,
    const CancellationToken* cancel = nullptr);

/// replay_scheme's device path for an encoder that is not a registry
/// scheme, e.g. READ+SAE at another tag budget or FNW stacked over DEUCE;
/// replay_scheme runs every hardware scheme through it. One controller
/// owns `encoder` for both windows, and `charge_encode_logic` adds the
/// encode energy to every non-silent write. The result's `scheme` is the
/// encoder's name().
[[nodiscard]] ReplayResult replay_encoder(
    const WritebackTrace& trace, EncoderPtr encoder,
    bool charge_encode_logic = false, const EnergyParams& energy = {},
    const FaultPlan& fault = {}, u64 fault_seed_salt = 0,
    const CancellationToken* cancel = nullptr);

}  // namespace nvmenc
