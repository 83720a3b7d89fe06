#include "core/fnw.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nvmenc {

FnwEncoder::FnwEncoder(usize granularity)
    : name_{"FNW" + std::to_string(granularity)},
      seg_bits_{granularity},
      chunk_segs_{0},
      chunk_words_{0},
      tier_{default_simd_tier()} {
  require(seg_bits_ >= 1 && seg_bits_ <= 64, "block size must be 1..64 bits");
  require(kLineBits % seg_bits_ == 0, "block size must divide 512");
  chunk_segs_ = std::min<usize>(64, kLineBits / seg_bits_);
  chunk_words_ = chunk_segs_ * seg_bits_ / kWordBits;
}

void FnwEncoder::encode_impl(StoredLine& stored,
                             const CacheLine& new_line) const {
  const std::span<u64> cells = stored.data.words();
  const std::span<const u64> data = new_line.words();
  u32 h[64];
  for (usize c = 0; c * chunk_words_ < kWordsPerLine; ++c) {
    const std::span<u64> chunk = cells.subspan(c * chunk_words_, chunk_words_);
    const std::span<const u64> next =
        data.subspan(c * chunk_words_, chunk_words_);
    segment_hamming(chunk, next, chunk_segs_, seg_bits_, h, tier_);
    const u64 sel = segment_flip_select(h, stored.meta.word_at(c),
                                        chunk_segs_, seg_bits_, tier_);
    std::copy(next.begin(), next.end(), chunk.begin());
    flip_selected_segments(chunk, sel, chunk_segs_, seg_bits_);
    stored.meta.set_word_at(c, sel);
  }
}

CacheLine FnwEncoder::decode(const StoredLine& stored) const {
  CacheLine line = stored.data;
  const std::span<u64> cells = line.words();
  for (usize c = 0; c * chunk_words_ < kWordsPerLine; ++c) {
    flip_selected_segments(cells.subspan(c * chunk_words_, chunk_words_),
                           stored.meta.word_at(c), chunk_segs_, seg_bits_);
  }
  return line;
}

EncoderPtr make_fnw(usize granularity) {
  return std::make_unique<FnwEncoder>(granularity);
}

}  // namespace nvmenc
