// FaultTolerantStore: SAFER recovery layered under an encoder's stored
// images.
//
// Composition order (Section 1's endurance story): the write-encoding
// scheme minimizes flips; when cells eventually stick, SAFER re-partitions
// the line so the stuck cells' values coincide with the data to store.
// The SAFER metadata (selection id + group inversion flags) lives beside
// the line like the encoder's tags would.
//
// This layer mediates data-region faults only: the encoder's metadata
// region is assumed fault-free here (its wear is studied separately in
// bench/paper_claims' metadata-wear section).
#pragma once

#include <optional>
#include <unordered_map>

#include "nvm/device.hpp"
#include "nvm/safer.hpp"

namespace nvmenc {

class FaultTolerantStore {
 public:
  /// The device must outlive the store. `faults` per line are discovered
  /// via the device's stuck-cell reporting (bit-wear tracking must be on
  /// for endurance-driven faults) or injected for testing.
  explicit FaultTolerantStore(NvmDevice& device,
                              SaferCodec codec = SaferCodec{5});

  /// Registers a stuck cell of `line_addr` (data region). Subsequent
  /// stores will route around it.
  void report_fault(u64 line_addr, usize bit, bool stuck_value);

  /// Stores `image`, applying a SAFER encoding when the line has known
  /// faults. Returns false when the fault pattern is unrecoverable (the
  /// line must be retired).
  [[nodiscard]] bool store(u64 line_addr, const StoredLine& image,
                           usize flips);

  /// Loads the stored image with SAFER inversions removed.
  [[nodiscard]] StoredLine load(u64 line_addr);

  /// Removes (== applies: it is an involution) the line's active SAFER
  /// inversions from raw data cells already read from the device; identity
  /// when the line has none. Lets callers that hold the raw image avoid a
  /// second device read (the controller's program-and-verify path).
  [[nodiscard]] CacheLine strip(u64 line_addr, const CacheLine& raw) const;

  /// The line's active SAFER encoding, nullptr when none.
  [[nodiscard]] const SaferEncoding* encoding_of(u64 line_addr) const;

  [[nodiscard]] const SaferCodec& codec() const noexcept { return codec_; }

  [[nodiscard]] usize faulty_lines() const noexcept {
    return faults_.size();
  }
  [[nodiscard]] u64 unrecoverable_lines() const noexcept {
    return unrecoverable_;
  }

 private:
  NvmDevice* device_;
  SaferCodec codec_;
  std::unordered_map<u64, std::vector<StuckCell>> faults_;
  std::unordered_map<u64, SaferEncoding> encodings_;
  u64 unrecoverable_ = 0;
};

}  // namespace nvmenc
