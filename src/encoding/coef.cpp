#include "encoding/coef.hpp"

#include "compress/fpc.hpp"
#include "encoding/payload_fnw.hpp"

namespace nvmenc {

namespace {

constexpr usize kTagOffset = 60;  // tag bits at the top of the slot
static_assert(CoefEncoder::kTagsPerWord == kPayloadSegments);

}  // namespace

bool CoefEncoder::word_compressible(u64 value) {
  return fpc_compress_word(value).payload_bits <= kMaxPayloadBits;
}

StoredLine CoefEncoder::make_stored(const CacheLine& line) const {
  StoredLine stored;
  stored.meta = BitBuf{meta_bits()};
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const FpcWord cw = fpc_compress_word(line.word(w));
    if (cw.payload_bits > kMaxPayloadBits) {
      stored.data.set_word(w, line.word(w));  // raw slot, flag stays 0
      continue;
    }
    u64 slot = 0;
    deposit_bits({&slot, 1}, 0, kPatternBits, cw.pattern);
    if (cw.payload_bits > 0) {
      deposit_bits({&slot, 1}, kPatternBits, cw.payload_bits, cw.payload);
    }
    stored.data.set_word(w, slot);  // tags zero: payload unflipped
    stored.meta.set_bit(w, true);
  }
  return stored;
}

void CoefEncoder::encode_impl(StoredLine& stored,
                              const CacheLine& new_line) const {
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const FpcWord cw = fpc_compress_word(new_line.word(w));
    const u64 old_slot = stored.data.word(w);

    if (cw.payload_bits > kMaxPayloadBits) {
      stored.data.set_word(w, new_line.word(w));  // raw: plain DCW
      stored.meta.set_bit(w, false);
      continue;
    }

    const PayloadFnw enc =
        payload_fnw_encode(old_slot >> kPatternBits, cw.payload,
                           cw.payload_bits, old_slot >> kTagOffset);
    // One masked merge: pattern, payload and tags are rewritten, the cells
    // between payload and tags are retained.
    const u64 fields = low_mask(kPatternBits) |
                       low_mask(cw.payload_bits) << kPatternBits |
                       low_mask(kTagsPerWord) << kTagOffset;
    stored.data.set_word(w, (old_slot & ~fields) | cw.pattern |
                                enc.cells << kPatternBits |
                                enc.tags << kTagOffset);
    stored.meta.set_bit(w, true);
  }
}

CacheLine CoefEncoder::decode(const StoredLine& stored) const {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const u64 slot = stored.data.word(w);
    if (!stored.meta.bit(w)) {
      line.set_word(w, slot);  // raw slot
      continue;
    }
    const u8 pattern = static_cast<u8>(slot & low_mask(kPatternBits));
    const u64 payload =
        payload_fnw_decode(slot >> kPatternBits, fpc_payload_bits(pattern),
                           slot >> kTagOffset);
    line.set_word(w, fpc_decompress_word(pattern, payload));
  }
  return line;
}

}  // namespace nvmenc
