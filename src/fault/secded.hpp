// SECDED(72,64): single-error-correct, double-error-detect Hamming code
// protecting the per-line metadata region.
//
// The encoders' metadata cells (tag / dirty-flag / granularity bits) are
// as vulnerable as data cells, and a flipped SAE granularity flag silently
// corrupts the whole decoded line. DRAM-style SECDED closes that hole: the
// classic (72,64) extended Hamming code stores 8 check bits per 64-bit
// chunk of metadata, corrects any single flipped cell (payload or check)
// and detects any double flip. The controller appends the check cells to
// the stored metadata region when FaultPlan::protect_meta is on, so the
// scheme comparison can price protection: extra sensed bits per read,
// extra check-cell flips per write, both reported in ControllerStats.
#pragma once

#include "common/bit_buf.hpp"
#include "common/types.hpp"

namespace nvmenc {

enum class SecdedStatus : u8 {
  kClean,          ///< syndrome zero, overall parity even
  kCorrected,      ///< single flipped bit located and repaired
  kUncorrectable,  ///< double flip detected; data returned as read
};

/// The 8 check bits of one 64-bit payload word: bits 0..6 are the Hamming
/// parities over codeword positions 1..71 (parity p_i covers positions
/// with index bit i set), bit 7 is the overall parity of the extended
/// code.
[[nodiscard]] u8 secded_encode(u64 data) noexcept;

struct SecdedDecode {
  u64 data = 0;  ///< payload after correction (as read if uncorrectable)
  SecdedStatus status = SecdedStatus::kClean;
};

/// Decodes a (payload, check) pair as read from the array.
[[nodiscard]] SecdedDecode secded_decode(u64 data, u8 check) noexcept;

/// Check cells appended for an `payload_bits`-wide metadata region: 8 per
/// (partial) 64-bit chunk.
[[nodiscard]] constexpr usize secded_check_bits(usize payload_bits) noexcept {
  return (payload_bits + 63) / 64 * 8;
}

/// `payload` followed by its per-chunk check bits (partial final chunks
/// are zero-padded for the checksum, costing no extra cells).
[[nodiscard]] BitBuf secded_protect(const BitBuf& payload);

struct SecdedMetaDecode {
  BitBuf payload;
  u64 corrected = 0;      ///< chunks repaired from a single flip
  u64 uncorrectable = 0;  ///< chunks with a detected double flip
};

/// Splits a protected region back into payload + verdicts. `stored` must
/// be exactly payload_bits + secded_check_bits(payload_bits) wide.
[[nodiscard]] SecdedMetaDecode secded_unprotect(const BitBuf& stored,
                                                usize payload_bits);

}  // namespace nvmenc
