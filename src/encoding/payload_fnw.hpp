// Flip-N-Write over one compressed word payload: the inner step AFNW and
// COEF share.
//
// Both schemes spread a word's four tag bits over its FPC payload, one tag
// per quarter. Every FPC payload width is a multiple of four (checked
// below), so the quarters are equal: segment k is payload bits
// [k*s, (k+1)*s) with s = payload_bits / 4. A segment is stored inverted
// iff that is STRICTLY cheaper than storing it plain, counting its tag
// cell's flip; a zero-width payload has no segments and keeps its tags.
#pragma once

#include "common/bitops.hpp"
#include "compress/fpc.hpp"

namespace nvmenc {

inline constexpr usize kPayloadSegments = 4;

static_assert(
    [] {
      for (u8 p = 0; p < 8; ++p) {
        if (fpc_payload_bits(p) % kPayloadSegments != 0) return false;
      }
      return true;
    }(),
    "every FPC payload width must split into equal segments");

/// XOR mask over a `payload_bits`-wide payload that inverts segment k iff
/// bit k of `tags` is set.
[[nodiscard]] constexpr u64 payload_flip_mask(usize payload_bits,
                                              u64 tags) noexcept {
  const usize s = payload_bits / kPayloadSegments;
  u64 mask = 0;
  for (usize k = 0; k < kPayloadSegments; ++k) {
    if ((tags >> k) & 1) mask |= low_mask(s) << (k * s);
  }
  return mask;
}

struct PayloadFnw {
  u64 cells;  ///< the payload region's new cells (low payload_bits bits)
  u64 tags;   ///< the new tags, bit k for segment k
};

/// Encodes `payload` over the stored payload region `old_cells` (bits at
/// or above `payload_bits` are ignored) whose segments carry `old_tags`.
[[nodiscard]] constexpr PayloadFnw payload_fnw_encode(
    u64 old_cells, u64 payload, usize payload_bits, u64 old_tags) noexcept {
  if (payload_bits == 0) return {0, old_tags};
  const usize s = payload_bits / kPayloadSegments;
  const u64 diff = old_cells ^ payload;
  u64 tags = 0;
  for (usize k = 0; k < kPayloadSegments; ++k) {
    const usize h = popcount((diff >> (k * s)) & low_mask(s));
    const usize t = (old_tags >> k) & 1;
    if (s - h + (1 - t) < h + t) tags |= u64{1} << k;
  }
  return {(payload ^ payload_flip_mask(payload_bits, tags)) &
              low_mask(payload_bits),
          tags};
}

/// Recovers the payload from its stored region and tags.
[[nodiscard]] constexpr u64 payload_fnw_decode(u64 cells, usize payload_bits,
                                               u64 tags) noexcept {
  return (cells ^ payload_flip_mask(payload_bits, tags)) &
         low_mask(payload_bits);
}

}  // namespace nvmenc
