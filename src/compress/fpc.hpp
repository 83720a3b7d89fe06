// Frequent-Pattern Compression (FPC), adapted to 64-bit words.
//
// AFNW [Palangappa & Mohanram, GLSVLSI'15] compresses each word before
// assigning Flip-N-Write tags to the compressed bits; COE [Xu et al.,
// DATE'18] compresses the whole line and stores encoding tags in the saved
// space. Both need a word-granularity compressor with a small fixed prefix.
//
// Each 64-bit word is classified into one of eight patterns (3-bit prefix)
// with a variable payload; compressed size = 3 + payload bits:
//
//   pattern 0: all zeros                          payload  0
//   pattern 1: 4-bit sign-extended                payload  4
//   pattern 2: 8-bit sign-extended                payload  8
//   pattern 3: 16-bit sign-extended               payload 16
//   pattern 4: 32-bit sign-extended               payload 32
//   pattern 5: one byte repeated eight times      payload  8
//   pattern 6: two 32-bit halves, each 16-bit     payload 32
//              sign-extended
//   pattern 7: uncompressed                       payload 64
#pragma once

#include <stdexcept>

#include "common/bit_buf.hpp"
#include "common/cache_line.hpp"
#include "common/types.hpp"

namespace nvmenc {

struct FpcWord {
  u8 pattern = 7;
  u64 payload = 0;
  usize payload_bits = 64;

  /// Prefix + payload.
  [[nodiscard]] usize total_bits() const noexcept { return 3 + payload_bits; }
};

/// Number of payload bits pattern `p` (0..7) carries; throws
/// std::invalid_argument on a bad pattern id.
[[nodiscard]] constexpr usize fpc_payload_bits(u8 pattern) {
  switch (pattern) {
    case 0: return 0;
    case 1: return 4;
    case 2: return 8;
    case 3: return 16;
    case 4: return 32;
    case 5: return 8;
    case 6: return 32;
    case 7: return 64;
    default: throw std::invalid_argument("FPC pattern out of range");
  }
}

/// Classifies `value` into its cheapest pattern.
[[nodiscard]] FpcWord fpc_compress_word(u64 value) noexcept;

/// Inverse of fpc_compress_word; throws std::invalid_argument on a bad
/// pattern id.
[[nodiscard]] u64 fpc_decompress_word(u8 pattern, u64 payload);

/// Compresses a full line into a prefix+payload stream, word 0 first.
/// Always succeeds (worst case 8 * 67 = 536 bits, larger than the line).
[[nodiscard]] BitBuf fpc_compress_line(const CacheLine& line);

/// Inverse of fpc_compress_line; throws std::invalid_argument when the
/// stream is truncated.
[[nodiscard]] CacheLine fpc_decompress_line(const BitBuf& stream);

}  // namespace nvmenc
