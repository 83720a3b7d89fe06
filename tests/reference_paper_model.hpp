// The paper-model accounting the repository shipped before it ran on the
// shared segment kernels, kept verbatim as a differential-testing oracle.
//
// PaperModelReadSae gathers the dirty words into bit vectors and walks each
// segment's direction split chunk by chunk; PaperModelAfnw spreads a word's
// four tags over its FPC payload with per-segment extract/Hamming loops.
// replay_paper_model keeps one logical-image map plus one state map per
// model and branches per write on the scheme. The production models
// (core/paper_model.hpp) and replay_scheme's paper-model path are held to
// these by test_paper_model_differential.cpp, after every write and field
// for field.
#pragma once

#include <array>
#include <unordered_map>

#include "common/bit_buf.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "compress/fpc.hpp"
#include "core/paper_model.hpp"
#include "core/read_sae.hpp"
#include "core/schemes.hpp"
#include "sim/replay.hpp"

namespace nvmenc::testutil {

/// Concatenates the words of `line` selected by `mask` (ascending index)
/// into one popcount(mask) * 64-bit vector.
[[nodiscard]] inline BitBuf gather_words(const CacheLine& line, u8 mask) {
  BitBuf out{popcount(mask) * kWordBits};
  usize i = 0;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    if ((mask >> w) & 1) out.set_word_at(i++, line.word(w));
  }
  return out;
}

class PaperModelAfnw {
 public:
  static constexpr usize kTagsPerWord = 4;
  static constexpr usize kPatternBits = 3;

  FlipBreakdown write(PaperModelAfnwState& state, const CacheLine& old_line,
                      const CacheLine& new_line) const {
    FlipBreakdown fb;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      if (old_line.word(w) == new_line.word(w)) continue;  // clean word
      const FpcWord cw = fpc_compress_word(new_line.word(w));
      const u64 old_plain = old_line.word(w);
      const u64 old_tags = (state.tags >> (w * kTagsPerWord)) &
                           low_mask(kTagsPerWord);

      u64 new_tags = old_tags;
      usize pos = 0;
      for (usize k = 0; k < kTagsPerWord; ++k) {
        const usize len = cw.payload_bits / kTagsPerWord +
                          (k < cw.payload_bits % kTagsPerWord ? 1 : 0);
        if (len == 0) continue;
        const u64 old_seg = extract_bits({&old_plain, 1}, pos, len);
        const u64 data_seg = (cw.payload >> pos) & low_mask(len);
        const bool old_tag = (old_tags >> k) & 1;
        const usize cost_plain =
            hamming(old_seg, data_seg) + (old_tag ? 1 : 0);
        const usize cost_flip =
            hamming(old_seg, ~data_seg & low_mask(len)) + (old_tag ? 0 : 1);
        const bool flip = cost_flip < cost_plain;
        const u64 seg = flip ? (~data_seg & low_mask(len)) : data_seg;
        fb.data += hamming(old_seg, seg);
        fb.sets += popcount(~old_seg & seg);
        fb.resets += popcount(old_seg & ~seg & low_mask(len));
        if (flip != old_tag) {
          ++fb.tag;
          if (flip) {
            ++fb.sets;
          } else {
            ++fb.resets;
          }
        }
        if (flip) {
          new_tags |= u64{1} << k;
        } else {
          new_tags &= ~(u64{1} << k);
        }
        pos += len;
      }
      state.tags &= ~(low_mask(kTagsPerWord) << (w * kTagsPerWord));
      state.tags |= new_tags << (w * kTagsPerWord);

      const u64 old_pattern = (state.patterns >> (w * kPatternBits)) &
                              low_mask(kPatternBits);
      const u64 delta = old_pattern ^ cw.pattern;
      fb.flag += popcount(delta);
      fb.sets += popcount(delta & cw.pattern);
      fb.resets += popcount(delta & old_pattern);
      state.patterns &= static_cast<u32>(~(low_mask(kPatternBits)
                                           << (w * kPatternBits)));
      state.patterns |= static_cast<u32>(static_cast<u64>(cw.pattern)
                                         << (w * kPatternBits));
    }
    return fb;
  }

  [[nodiscard]] usize meta_bits() const noexcept {
    return kWordsPerLine * (kTagsPerWord + kPatternBits);
  }
};

class PaperModelReadSae {
 public:
  explicit PaperModelReadSae(AdaptiveConfig config) : config_{config} {
    config_.validate();
    tier_ = config_.simd.value_or(default_simd_tier());
    if (tier_ > detect_simd_tier()) tier_ = detect_simd_tier();
  }

  FlipBreakdown write(PaperModelLineState& state, const CacheLine& old_line,
                      const CacheLine& new_line) const {
    const u8 dirty = config_.redundant_word_aware
                         ? new_line.dirty_mask(old_line)
                         : u8{0xff};
    const usize dirty_words = popcount(dirty);
    if (dirty_words == 0) return {};

    const BitBuf old_bits = gather_words(old_line, dirty);
    const BitBuf new_bits = gather_words(new_line, dirty);
    const usize total_bits = dirty_words * kWordBits;

    // Leaf level of the shared cost tree (the paper's Figure 6/7 parallel
    // evaluation): per-segment Hamming distances at the finest
    // granularity, computed in one pass; coarser levels are pairwise sums.
    const usize seg0 = total_bits / config_.tag_budget;
    std::array<u32, kWordBits> h0{};
    segment_hamming(old_bits.words(), new_bits.words(), config_.tag_budget,
                    seg0, h0.data(), tier_);

    usize best_f = 0;
    usize best_cost = ~usize{0};
    {
      std::array<u32, kWordBits> h = h0;
      for (usize f = 0; f < config_.granularity_levels; ++f) {
        const usize tags = config_.tag_budget >> f;
        const usize seg_bits = total_bits / tags;
        usize cost = 0;
        for (usize s = 0; s < tags; ++s) {
          const usize hs = h[s];
          const bool old_tag = (state.tags >> s) & 1;
          const usize cost_plain = hs + (old_tag ? 1 : 0);
          const usize cost_flip = (seg_bits - hs) + (old_tag ? 0 : 1);
          cost += cost_plain < cost_flip ? cost_plain : cost_flip;
        }
        if (config_.granularity_levels > 1) {
          cost += hamming(static_cast<u64>(state.gran_flag),
                          static_cast<u64>(f));
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_f = f;
        }
        for (usize s = 0; 2 * s + 1 < tags; ++s) {
          h[s] = h[2 * s] + h[2 * s + 1];
        }
      }
    }

    // Apply: account flips with direction split. The "stored" reference
    // for data cells is the plain old data (the paper model's
    // idealization).
    FlipBreakdown fb;
    const usize tags = config_.tag_budget >> best_f;
    const usize seg_bits = total_bits / tags;
    const usize group = usize{1} << best_f;
    u64 new_tags = state.tags;
    for (usize s = 0; s < tags; ++s) {
      const usize pos = s * seg_bits;
      usize h = 0;
      for (usize k = 0; k < group; ++k) h += h0[s * group + k];
      const bool old_tag = (state.tags >> s) & 1;
      const usize cost_plain = h + (old_tag ? 1 : 0);
      const usize cost_flip = (seg_bits - h) + (old_tag ? 0 : 1);
      const bool flip = cost_flip < cost_plain;

      // Direction-split the data flips of this segment.
      usize p = pos;
      usize remaining = seg_bits;
      while (remaining > 0) {
        const usize chunk = remaining < 64 ? remaining : 64;
        const u64 o = old_bits.bits_unchecked(p, chunk);
        u64 n = new_bits.bits_unchecked(p, chunk);
        if (flip) n = ~n & low_mask(chunk);
        fb.sets += popcount(~o & n);
        fb.resets += popcount(o & ~n);
        fb.data += popcount(o ^ n);
        p += chunk;
        remaining -= chunk;
      }
      if (flip != old_tag) {
        ++fb.tag;
        if (flip) {
          ++fb.sets;
        } else {
          ++fb.resets;
        }
      }
      if (flip) {
        new_tags |= u64{1} << s;
      } else {
        new_tags &= ~(u64{1} << s);
      }
    }
    state.tags = new_tags;

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

  [[nodiscard]] const AdaptiveConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] usize meta_bits() const noexcept {
    return config_.tag_budget +
           (config_.redundant_word_aware ? kDirtyFlagBits : 0) +
           (config_.granularity_levels > 1 ? kGranularityFlagBits : 0);
  }

 private:
  AdaptiveConfig config_;
  SimdTier tier_ = SimdTier::kScalar;
};

/// Abandon the replay if a stop was requested.
inline void check_cancel(const CancellationToken* cancel) {
  if (cancel != nullptr && cancel->stop_requested()) throw CancelledRun{};
}

/// Replays through the paper's idealized accounting (no Encoder, no
/// device): a flat logical image plus per-line tag/flag state.
inline ReplayResult replay_paper_model(const WritebackTrace& trace,
                                       Scheme scheme,
                                       const EnergyParams& energy,
                                       const CancellationToken* cancel) {
  AdaptiveConfig config;
  config.granularity_levels = scheme == Scheme::kReadSaePaper ? 4 : 1;
  const PaperModelReadSae read_model{config};
  const PaperModelAfnw afnw_model;

  std::unordered_map<u64, CacheLine> image;
  std::unordered_map<u64, PaperModelLineState> read_states;
  std::unordered_map<u64, PaperModelAfnwState> afnw_states;
  auto line_of = [&](u64 addr) -> CacheLine& {
    auto it = image.find(addr);
    if (it == image.end()) {
      it = image.emplace(addr, trace.initial_line(addr)).first;
    }
    return it->second;
  };
  auto model_write = [&](u64 addr, const CacheLine& old_line,
                         const CacheLine& new_line) {
    if (scheme == Scheme::kAfnwPaper) {
      return afnw_model.write(afnw_states[addr], old_line, new_line);
    }
    return read_model.write(read_states[addr], old_line, new_line);
  };

  ReplayResult result;
  result.benchmark = trace.benchmark;
  result.scheme = scheme_name(scheme);
  result.meta_bits = scheme == Scheme::kAfnwPaper ? afnw_model.meta_bits()
                                                  : read_model.meta_bits();

  for (const WriteBack& wb : trace.warmup) {
    check_cancel(cancel);
    CacheLine& old_line = line_of(wb.line_addr);
    (void)model_write(wb.line_addr, old_line, wb.data);
    old_line = wb.data;
  }
  ControllerConfig cc;
  cc.energy = energy;
  cc.charge_encode_logic = charges_encode_logic(scheme);
  for (const WriteBack& wb : trace.measured) {
    check_cancel(cancel);
    CacheLine& old_line = line_of(wb.line_addr);
    const usize dirty_words = popcount(wb.data.dirty_mask(old_line));
    const FlipBreakdown fb = model_write(wb.line_addr, old_line, wb.data);
    old_line = wb.data;

    ++result.stats.writebacks;
    if (dirty_words == 0) ++result.stats.silent_writebacks;
    result.stats.dirty_words.add(dirty_words);
    result.stats.flips += fb;
    result.stats.energy.add_write(
        cc.energy, kLineBits, fb.sets, fb.resets,
        cc.charge_encode_logic && dirty_words > 0);
  }
  result.device_flips = result.stats.flips.total();
  result.stats.energy.add_reads(cc.energy, kLineBits,
                                trace.demand_reads);
  result.stats.demand_reads = trace.demand_reads;
  return result;
}

}  // namespace nvmenc::testutil
