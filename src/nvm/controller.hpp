// MemoryController: the encoding front-end of the NVM main memory.
//
// Sits between the cache hierarchy (LineBackend interface) and the
// NvmDevice. Every dirty-line write-back is read-before-write (DCW),
// passed through the configured Encoder, and stored differentially; every
// demand fetch is decoded. The controller keeps the statistics the paper's
// evaluation reports: flip breakdowns (Figures 9/11), the energy ledger
// (Figure 10), and the dirty-word histogram / tag-utilization numbers
// (Figure 2).
//
// When a resilience policy is configured (a FaultPlan), the write path
// becomes program-and-verify: store, read back, re-pulse the cells that
// failed (bounded exponential escalation), then — for cells that never
// land — escalate to a SAFER re-partition of the line and finally to
// retirement onto a spare line via a remap table. The metadata region can
// additionally be protected by SECDED(72,64) check cells. With the policy
// off (the default) the controller takes the exact legacy path and its
// statistics are bit-identical to a build without the fault layer.
#pragma once

#include <memory>
#include <unordered_map>

#include "cache/hierarchy.hpp"
#include "common/stats.hpp"
#include "encoding/encoder.hpp"
#include "fault/fault_injector.hpp"
#include "nvm/device.hpp"
#include "nvm/energy_model.hpp"
#include "nvm/recovery.hpp"
#include "trace/access.hpp"

namespace nvmenc {

/// Spare lines live far above any workload address; retirement allocates
/// them sequentially.
inline constexpr u64 kSpareRegionBase = u64{1} << 62;

/// The atomic-write redo log lives in its own region, below the spares and
/// far above any workload address: one line holding a copy of the image
/// being written and one line holding the commit record.
inline constexpr u64 kLogRegionBase = u64{1} << 61;
inline constexpr u64 kLogImageAddr = kLogRegionBase;
inline constexpr u64 kLogRecordAddr = kLogRegionBase + kLineBytes;

struct ControllerConfig {
  EnergyParams energy;
  /// Charge the encoder-logic energy/latency per write. The paper accounts
  /// it for READ and READ+SAE only (Section 4.2.2).
  bool charge_encode_logic = false;
  /// The response policy to misbehaving cells: program-and-verify with its
  /// retry ladder, SECDED metadata and atomic writes (FaultPlan). The
  /// injected rates themselves act on the device, not here.
  FaultPlan fault;
};

/// Counters of the resilience path (all zero when the plan is off).
struct ResilienceStats {
  u64 verified_writes = 0;    ///< writes that ran the verify loop
  u64 write_retries = 0;      ///< re-program pulses issued
  u64 retry_exhaustions = 0;  ///< writes that escalated past the budget
  u64 safer_remaps = 0;       ///< escalations absorbed by a re-partition
  u64 line_retirements = 0;   ///< lines moved to a spare
  u64 sdc_detected = 0;       ///< writes left corrupt after every escalation
  u64 meta_corrected = 0;     ///< SECDED single-flip corrections
  u64 meta_uncorrectable = 0; ///< SECDED double-flip detections
  u64 check_flips = 0;        ///< SECDED check-cell writes (capacity cost)
  u64 atomic_log_flips = 0;   ///< redo-log cell writes (atomicity cost)

  // Counters of the post-crash recovery scan (recover()).
  u64 recovery_scans = 0;     ///< recover() invocations
  u64 recovered_clean = 0;    ///< lines the scan found intact
  u64 rolled_forward = 0;     ///< committed redo-log replayed onto home
  u64 rolled_back = 0;        ///< torn uncommitted write discarded
  u64 recovery_retired = 0;   ///< lines retired by the scan (SECDED double
                              ///< error with no committed log to replay)

  [[nodiscard]] u64 escalations() const noexcept {
    return safer_remaps + line_retirements;
  }
};

struct ControllerStats {
  u64 demand_reads = 0;
  u64 writebacks = 0;
  u64 silent_writebacks = 0;  ///< write-backs with zero modified words
  FlipBreakdown flips;
  Histogram dirty_words{kWordsPerLine};  ///< modified words per write-back
  EnergyLedger energy;
  ResilienceStats resilience;

  /// Figure 2's utilization metric: the fraction of per-word tag bits a
  /// conventional encoder would actually use = E[dirty words] / 8.
  [[nodiscard]] double tag_utilization() const {
    return dirty_words.total() == 0
               ? 0.0
               : dirty_words.mean() / static_cast<double>(kWordsPerLine);
  }
};

/// Long-lived fault-recovery state of one device: the SAFER layer's known
/// stuck cells and active encodings, plus the spare-line remap table.
/// Shared by every controller over the device's lifetime (a controller
/// rebooted after a power cut must still find the lines retired before
/// it).
struct FaultContext {
  explicit FaultContext(NvmDevice& device, SaferCodec codec = SaferCodec{5})
      : safer{device, std::move(codec)} {}

  FaultTolerantStore safer;
  std::unordered_map<u64, u64> remap;  ///< logical line addr -> spare addr
  u64 spares_used = 0;
};

class MemoryController final : public LineBackend {
 public:
  /// The controller owns the encoder; the device must outlive the
  /// controller. `fault` carries the SAFER / remap state shared across
  /// controllers of one device; when null and the verify policy is active,
  /// the controller owns a private context.
  MemoryController(ControllerConfig config, EncoderPtr encoder,
                   NvmDevice& device, FaultContext* fault = nullptr);

  [[nodiscard]] CacheLine read_line(u64 line_addr) override;
  void write_line(u64 line_addr, const CacheLine& data) override;

  /// Post-crash recovery scan. Classifies every stored line as clean /
  /// roll-forward / roll-back (counters in ResilienceStats):
  ///
  ///   - a valid commit record means the redo log holds a complete new
  ///     image whose home store may be torn — it is replayed onto the
  ///     home line (roll-forward), then the record is cleared;
  ///   - an invalid (garbage or partially programmed) record means the
  ///     log write itself was torn, so the home line still holds the full
  ///     old image and nothing needs repair (roll-back);
  ///   - under protect_meta, every other line's SECDED syndrome is
  ///     checked: single flips are corrected and scrubbed back, a double
  ///     error with no committed log covering the line escalates — the
  ///     line is retired with its best-effort decode, never silently
  ///     "corrected".
  ///
  /// Idempotent: a scan interrupted by another power cut can simply run
  /// again. Requires an active FaultPlan.
  void recover();

  [[nodiscard]] const ControllerStats& stats() const noexcept {
    return stats_;
  }
  /// Clears the statistics (e.g. after a warm-up window); stored state and
  /// device wear are unaffected.
  void reset_stats() { stats_ = ControllerStats{}; }
  [[nodiscard]] const Encoder& encoder() const noexcept { return *encoder_; }
  [[nodiscard]] NvmDevice& device() noexcept { return *device_; }

 private:
  /// The legacy differential store (no verify/SECDED/atomicity): the body
  /// of write_line when the verify policy is off.
  void write_line_plain(u64 line_addr, const CacheLine& data);
  /// Physical location of a logical line (identity until retired).
  [[nodiscard]] u64 resolve(u64 line_addr) const;
  /// Decodes a raw device image: SECDED-corrects the metadata (counting
  /// corrections) and strips the line's SAFER inversions.
  [[nodiscard]] StoredLine decode_raw(u64 phys, const StoredLine& raw);
  /// The raw cell image `image` should occupy at `phys` (SAFER applied).
  [[nodiscard]] StoredLine expected_raw(u64 phys,
                                        const StoredLine& image) const;
  /// Program-and-verify store of `image` (metadata already protected).
  void store_verified(u64 phys, u64 logical, const StoredLine& image,
                      usize flips);
  /// Retry budget exhausted: SAFER re-partition, then retirement.
  void escalate(u64 phys, u64 logical, const StoredLine& image,
                const StoredLine& readback);
  /// Moves the line to a fresh spare and updates the remap table.
  void retire(u64 logical, const StoredLine& image);
  /// Differential store of `want` at `addr` for the atomic-write protocol:
  /// prices the changed cells into the energy ledger and the
  /// atomic_log_flips counter, returns the flip count.
  usize program_log(u64 addr, const StoredLine& want);
  /// Phases 1+2 of the commit protocol: log the raw image, then program a
  /// checksummed commit record naming the *logical* line `target` (so
  /// recovery re-resolves through the remap table and lands on the right
  /// physical line even if the write retired mid-flight).
  void log_begin(u64 target, const StoredLine& raw);
  /// Phase 4: invalidate the commit record (all-zero data cells).
  void log_clear();

  ControllerConfig config_;
  EncoderPtr encoder_;
  NvmDevice* device_;
  ControllerStats stats_;
  std::unique_ptr<FaultContext> owned_fault_;
  FaultContext* fault_ = nullptr;
  bool resilient_ = false;
  bool program_and_verify_ = false;
  usize sensed_bits_ = kLineBits;
};

}  // namespace nvmenc
