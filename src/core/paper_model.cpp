#include "core/paper_model.hpp"

#include <array>

#include "compress/fpc.hpp"
#include "encoding/payload_fnw.hpp"

namespace nvmenc {

static_assert(PaperModelAfnw::kTagsPerWord == kPayloadSegments);

FlipBreakdown PaperModelAfnw::write(PaperModelAfnwState& state,
                                    const CacheLine& old_line,
                                    const CacheLine& new_line) const {
  FlipBreakdown fb;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    if (old_line.word(w) == new_line.word(w)) continue;  // clean word
    const FpcWord cw = fpc_compress_word(new_line.word(w));
    // The payload is Flip-N-Written over the PLAIN old word's low bits:
    // the data cells hold plaintext between writes in this accounting.
    const u64 old_plain = old_line.word(w);
    const usize tag_shift = w * kTagsPerWord;
    const u64 old_tags = (state.tags >> tag_shift) & low_mask(kTagsPerWord);
    const PayloadFnw enc =
        payload_fnw_encode(old_plain, cw.payload, cw.payload_bits, old_tags);
    const u64 diff = (old_plain ^ enc.cells) & low_mask(cw.payload_bits);
    fb.data += popcount(diff);
    fb.sets += popcount(diff & enc.cells);
    fb.resets += popcount(diff & old_plain);
    const u64 tag_delta = old_tags ^ enc.tags;
    fb.tag += popcount(tag_delta);
    fb.sets += popcount(tag_delta & enc.tags);
    fb.resets += popcount(tag_delta & old_tags);
    state.tags &= ~(low_mask(kTagsPerWord) << tag_shift);
    state.tags |= enc.tags << tag_shift;

    const usize pattern_shift = w * kPatternBits;
    const u64 old_pattern =
        (state.patterns >> pattern_shift) & low_mask(kPatternBits);
    const u64 delta = old_pattern ^ cw.pattern;
    fb.flag += popcount(delta);
    fb.sets += popcount(delta & cw.pattern);
    fb.resets += popcount(delta & old_pattern);
    state.patterns &=
        static_cast<u32>(~(low_mask(kPatternBits) << pattern_shift));
    state.patterns |=
        static_cast<u32>(static_cast<u64>(cw.pattern) << pattern_shift);
  }
  return fb;
}

PaperModelReadSae::PaperModelReadSae(AdaptiveConfig config)
    : config_{config} {
  config_.validate();
  tier_ = config_.simd.value_or(default_simd_tier());
  if (tier_ > detect_simd_tier()) tier_ = detect_simd_tier();
}

usize PaperModelReadSae::meta_bits() const noexcept {
  return config_.tag_budget +
         (config_.redundant_word_aware ? kDirtyFlagBits : 0) +
         (config_.granularity_levels > 1 ? kGranularityFlagBits : 0);
}

FlipBreakdown PaperModelReadSae::write(PaperModelLineState& state,
                                       const CacheLine& old_line,
                                       const CacheLine& new_line) const {
  const u8 dirty = config_.redundant_word_aware
                       ? new_line.dirty_mask(old_line)
                       : u8{0xff};
  if (dirty == 0) return {};

  // The dirty words' XOR, densely packed in ascending word order: the
  // vector the shared cost tree is built over, as in ReadSaeEncoder. The
  // stored reference for the data cells is the plain old data (the paper
  // model's idealization).
  std::array<u64, kWordsPerLine> old_words{};
  std::array<u64, kWordsPerLine> xor_words{};
  usize n = 0;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    if ((dirty >> w) & 1) {
      old_words[n] = old_line.word(w);
      xor_words[n++] = old_line.word(w) ^ new_line.word(w);
    }
  }
  const usize total_bits = n * kWordBits;

  // Leaf level of the cost tree (the paper's Figure 6/7 parallel
  // evaluation): per-segment Hamming distances at the finest granularity;
  // each coarser level is the pairwise sum of the one below.
  std::array<u32, kWordBits> h{};
  segment_popcount({xor_words.data(), n}, config_.tag_budget,
                   total_bits / config_.tag_budget, h.data(), tier_);
  const std::array<u32, kWordBits> h0 = h;

  usize best_f = 0;
  usize best_cost = ~usize{0};
  for (usize f = 0; f < config_.granularity_levels; ++f) {
    const usize tags = config_.tag_budget >> f;
    usize cost =
        segment_min_cost(h.data(), state.tags, tags, total_bits / tags, tier_);
    if (config_.granularity_levels > 1) {
      cost += hamming(static_cast<u64>(state.gran_flag), static_cast<u64>(f));
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_f = f;
    }
    for (usize s = 0; 2 * s + 1 < tags; ++s) h[s] = h[2 * s] + h[2 * s + 1];
  }

  // Apply the winning level: rebuild its sums from the leaves, pick the
  // flipped segments, and XOR their flips into the packed vector, which
  // then holds exactly the data cells that change.
  h = h0;
  for (usize f = 0; f < best_f; ++f) {
    const usize level = config_.tag_budget >> f;
    for (usize s = 0; 2 * s + 1 < level; ++s) h[s] = h[2 * s] + h[2 * s + 1];
  }
  const usize tags = config_.tag_budget >> best_f;
  const usize seg_bits = total_bits / tags;
  const u64 sel =
      segment_flip_select(h.data(), state.tags, tags, seg_bits, tier_);
  flip_selected_segments({xor_words.data(), n}, sel, tags, seg_bits);

  FlipBreakdown fb;
  for (usize i = 0; i < n; ++i) {
    const u64 diff = xor_words[i];
    fb.data += popcount(diff);
    fb.sets += popcount(diff & ~old_words[i]);
    fb.resets += popcount(diff & old_words[i]);
  }
  const u64 used = low_mask(tags);
  const u64 tag_delta = (state.tags ^ sel) & used;
  fb.tag += popcount(tag_delta);
  fb.sets += popcount(tag_delta & sel);
  fb.resets += popcount(tag_delta & state.tags);
  state.tags = (state.tags & ~used) | sel;

  if (config_.redundant_word_aware) {
    const u8 delta = static_cast<u8>(state.dirty_flag ^ dirty);
    fb.flag += popcount(delta);
    fb.sets += popcount(static_cast<u8>(delta & dirty));
    fb.resets += popcount(static_cast<u8>(delta & state.dirty_flag));
    state.dirty_flag = dirty;
  }
  if (config_.granularity_levels > 1) {
    const u64 delta = static_cast<u64>(state.gran_flag) ^ best_f;
    fb.flag += popcount(delta);
    fb.sets += popcount(delta & best_f);
    fb.resets += popcount(delta & state.gran_flag);
    state.gran_flag = static_cast<u8>(best_f);
  }
  return fb;
}

}  // namespace nvmenc
