#include "compress/fpc.hpp"

#include "common/error.hpp"

namespace nvmenc {

namespace {

/// True when `value` equals its low `bits` bits sign-extended to 64.
constexpr bool sign_extends(u64 value, usize bits) noexcept {
  const u64 low = value & low_mask(bits);
  const bool sign = (low >> (bits - 1)) & 1;
  const u64 extended = sign ? (low | ~low_mask(bits)) : low;
  return extended == value;
}

constexpr u64 sign_extend(u64 payload, usize bits) noexcept {
  const u64 low = payload & low_mask(bits);
  const bool sign = (low >> (bits - 1)) & 1;
  return sign ? (low | ~low_mask(bits)) : low;
}

}  // namespace

FpcWord fpc_compress_word(u64 value) noexcept {
  if (value == 0) return {0, 0, 0};
  if (sign_extends(value, 4)) return {1, value & low_mask(4), 4};
  if (sign_extends(value, 8)) return {2, value & low_mask(8), 8};
  if (sign_extends(value, 16)) return {3, value & low_mask(16), 16};
  if (sign_extends(value, 32)) return {4, value & low_mask(32), 32};

  const u64 byte = value & 0xff;
  u64 repeated = byte;
  for (int i = 0; i < 3; ++i) repeated |= repeated << (8 << i);
  if (value == repeated) return {5, byte, 8};

  const u64 lo_half = value & low_mask(32);
  const u64 hi_half = value >> 32;
  auto half_sign_extends = [](u64 half) {
    const u64 low = half & low_mask(16);
    const bool sign = (low >> 15) & 1;
    const u64 ext = sign ? (low | (low_mask(32) & ~low_mask(16))) : low;
    return ext == half;
  };
  if (half_sign_extends(lo_half) && half_sign_extends(hi_half)) {
    return {6, (hi_half & low_mask(16)) << 16 | (lo_half & low_mask(16)), 32};
  }
  return {7, value, 64};
}

u64 fpc_decompress_word(u8 pattern, u64 payload) {
  switch (pattern) {
    case 0: return 0;
    case 1: return sign_extend(payload, 4);
    case 2: return sign_extend(payload, 8);
    case 3: return sign_extend(payload, 16);
    case 4: return sign_extend(payload, 32);
    case 5: {
      u64 v = payload & 0xff;
      for (int i = 0; i < 3; ++i) v |= v << (8 << i);
      return v;
    }
    case 6: {
      auto extend_half = [](u64 half16) {
        const bool sign = (half16 >> 15) & 1;
        return sign ? (half16 | (low_mask(32) & ~low_mask(16))) : half16;
      };
      const u64 lo = extend_half(payload & low_mask(16));
      const u64 hi = extend_half((payload >> 16) & low_mask(16));
      return (hi << 32) | lo;
    }
    case 7: return payload;
    default: throw std::invalid_argument("FPC pattern out of range");
  }
}

BitBuf fpc_compress_line(const CacheLine& line) {
  BitBuf stream;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const FpcWord cw = fpc_compress_word(line.word(w));
    stream.push_bits(cw.pattern, 3);
    stream.push_bits(cw.payload, cw.payload_bits);
  }
  return stream;
}

CacheLine fpc_decompress_line(const BitBuf& stream) {
  CacheLine line;
  usize pos = 0;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    require(pos + 3 <= stream.size(), "FPC stream truncated (prefix)");
    const u8 pattern = static_cast<u8>(stream.bits(pos, 3));
    pos += 3;
    const usize len = fpc_payload_bits(pattern);
    require(pos + len <= stream.size(), "FPC stream truncated (payload)");
    const u64 payload = len == 0 ? 0 : stream.bits(pos, len);
    pos += len;
    line.set_word(w, fpc_decompress_word(pattern, payload));
  }
  return line;
}

}  // namespace nvmenc
