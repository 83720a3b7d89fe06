#include "encoding/afnw.hpp"

#include "compress/fpc.hpp"
#include "encoding/payload_fnw.hpp"

namespace nvmenc {

static_assert(AfnwEncoder::kTagsPerWord == kPayloadSegments);

StoredLine AfnwEncoder::make_stored(const CacheLine& line) const {
  StoredLine stored;
  stored.meta = BitBuf{meta_bits()};
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const FpcWord cw = fpc_compress_word(line.word(w));
    u64 slot = 0;
    if (cw.payload_bits > 0) slot = cw.payload & low_mask(cw.payload_bits);
    stored.data.set_word(w, slot);
    stored.meta.set_bits(w * kMetaPerWord, kPatternBits, cw.pattern);
    // tag bits stay zero: payload stored unflipped
  }
  return stored;
}

void AfnwEncoder::encode_impl(StoredLine& stored,
                              const CacheLine& new_line) const {
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const FpcWord cw = fpc_compress_word(new_line.word(w));
    const u64 old_slot = stored.data.word(w);
    const usize meta_base = w * kMetaPerWord;
    const PayloadFnw enc = payload_fnw_encode(
        old_slot, cw.payload, cw.payload_bits,
        stored.meta.bits(meta_base + kPatternBits, kTagsPerWord));
    // Cells beyond the payload retain their old values.
    stored.data.set_word(
        w, (old_slot & ~low_mask(cw.payload_bits)) | enc.cells);
    stored.meta.set_bits(meta_base, kMetaPerWord,
                         cw.pattern | enc.tags << kPatternBits);
  }
}

CacheLine AfnwEncoder::decode(const StoredLine& stored) const {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    const u64 field = stored.meta.bits(w * kMetaPerWord, kMetaPerWord);
    const u8 pattern = static_cast<u8>(field & low_mask(kPatternBits));
    const u64 payload =
        payload_fnw_decode(stored.data.word(w), fpc_payload_bits(pattern),
                           field >> kPatternBits);
    line.set_word(w, fpc_decompress_word(pattern, payload));
  }
  return line;
}

}  // namespace nvmenc
