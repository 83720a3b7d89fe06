// Reference AFNW, COEF and CAFO: the bit-at-a-time implementations the
// repository shipped before the word-level encoders, kept verbatim as
// differential-testing oracles.
//
// Each class reproduces its production encoder's name-independent
// contract — metadata width and layout, tag/flag split, make_stored — and
// its original encode and decode loops: AFNW and COEF extract, cost and
// deposit every payload segment on its own (segment lengths from the
// general split rule, not the equal-quarters shortcut), and CAFO walks
// its 32x16 matrix one row extract and one bit per column cell at a time.
// test_baseline_differential.cpp asserts bit-identical stored images,
// metadata, flip ledgers and decodes between each pair.
#pragma once

#include <array>

#include "compress/fpc.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc::testutil {

class ReferenceAfnw final : public Encoder {
 public:
  static constexpr usize kPatternBits = 3;
  static constexpr usize kTagsPerWord = 4;
  static constexpr usize kMetaPerWord = kPatternBits + kTagsPerWord;

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return kWordsPerLine * kMetaPerWord;
  }
  [[nodiscard]] bool is_tag_bit(usize i) const noexcept override {
    return (i % kMetaPerWord) >= kPatternBits;
  }

  [[nodiscard]] StoredLine make_stored(const CacheLine& line) const override {
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

  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      const usize meta_base = w * kMetaPerWord;
      const u8 pattern =
          static_cast<u8>(stored.meta.bits(meta_base, kPatternBits));
      const u64 tags =
          stored.meta.bits(meta_base + kPatternBits, kTagsPerWord);
      const usize payload_bits = fpc_payload_bits(pattern);

      const u64 slot = stored.data.word(w);
      u64 payload = 0;
      usize pos = 0;
      for (usize k = 0; k < kTagsPerWord; ++k) {
        const usize len = segment_len(payload_bits, k);
        if (len == 0) continue;
        u64 seg = extract_bits({&slot, 1}, pos, len);
        if ((tags >> k) & 1) seg = ~seg & low_mask(len);
        payload |= seg << pos;
        pos += len;
      }
      line.set_word(w, fpc_decompress_word(pattern, payload));
    }
    return line;
  }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override {
    for (usize w = 0; w < kWordsPerLine; ++w) {
      const FpcWord cw = fpc_compress_word(new_line.word(w));
      const u64 old_slot = stored.data.word(w);
      const usize meta_base = w * kMetaPerWord;
      const u64 old_tags =
          stored.meta.bits(meta_base + kPatternBits, kTagsPerWord);

      u64 new_slot = old_slot;  // cells beyond the payload retain old values
      u64 new_tags = old_tags;
      usize pos = 0;
      for (usize k = 0; k < kTagsPerWord; ++k) {
        const usize len = segment_len(cw.payload_bits, k);
        if (len == 0) continue;  // unused tag keeps its stored value
        const u64 old_seg = extract_bits({&old_slot, 1}, pos, len);
        const u64 data_seg = (cw.payload >> pos) & low_mask(len);
        const bool old_tag = (old_tags >> k) & 1;
        const usize cost_plain =
            hamming(old_seg, data_seg) + (old_tag ? 1 : 0);
        const usize cost_flip =
            hamming(old_seg, ~data_seg & low_mask(len)) + (old_tag ? 0 : 1);
        const bool flip = cost_flip < cost_plain;
        deposit_bits({&new_slot, 1}, pos, len,
                     flip ? (~data_seg & low_mask(len)) : data_seg);
        if (flip) {
          new_tags |= u64{1} << k;
        } else {
          new_tags &= ~(u64{1} << k);
        }
        pos += len;
      }

      stored.data.set_word(w, new_slot);
      stored.meta.set_bits(meta_base, kPatternBits, cw.pattern);
      stored.meta.set_bits(meta_base + kPatternBits, kTagsPerWord, new_tags);
    }
  }

 private:
  /// Length of FNW segment k (0..3) over an L-bit compressed payload: the
  /// payload is split into four nearly-equal pieces, longer ones first.
  static constexpr usize segment_len(usize payload_bits, usize k) noexcept {
    return payload_bits / kTagsPerWord +
           (k < payload_bits % kTagsPerWord ? 1 : 0);
  }

  std::string name_ = "ReferenceAfnw";
};

class ReferenceCoef final : public Encoder {
 public:
  static constexpr usize kPatternBits = 3;
  static constexpr usize kTagsPerWord = 4;
  static constexpr usize kMaxPayloadBits = 32;

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return kWordsPerLine;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return false;
  }

  [[nodiscard]] StoredLine make_stored(const CacheLine& line) const override {
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

  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      const u64 slot = stored.data.word(w);
      if (!stored.meta.bit(w)) {
        line.set_word(w, slot);  // raw slot
        continue;
      }
      const u8 pattern =
          static_cast<u8>(extract_bits({&slot, 1}, 0, kPatternBits));
      const u64 tags = extract_bits({&slot, 1}, kTagOffset, kTagsPerWord);
      const usize payload_bits = fpc_payload_bits(pattern);
      u64 payload = 0;
      usize pos = 0;
      for (usize k = 0; k < kTagsPerWord; ++k) {
        const usize len = segment_len(payload_bits, k);
        if (len == 0) continue;
        u64 seg = extract_bits({&slot, 1}, kPatternBits + pos, len);
        if ((tags >> k) & 1) seg = ~seg & low_mask(len);
        payload |= seg << pos;
        pos += len;
      }
      line.set_word(w, fpc_decompress_word(pattern, payload));
    }
    return line;
  }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override {
    for (usize w = 0; w < kWordsPerLine; ++w) {
      const FpcWord cw = fpc_compress_word(new_line.word(w));
      const u64 old_slot = stored.data.word(w);

      if (cw.payload_bits > kMaxPayloadBits) {
        stored.data.set_word(w, new_line.word(w));  // raw: plain DCW
        stored.meta.set_bit(w, false);
        continue;
      }

      const u64 old_tags =
          extract_bits({&old_slot, 1}, kTagOffset, kTagsPerWord);
      u64 slot = old_slot;  // cells between payload and tags retained
      deposit_bits({&slot, 1}, 0, kPatternBits, cw.pattern);
      u64 new_tags = old_tags;
      usize pos = 0;
      for (usize k = 0; k < kTagsPerWord; ++k) {
        const usize len = segment_len(cw.payload_bits, k);
        if (len == 0) continue;  // unused tag keeps its stored value
        const u64 old_seg =
            extract_bits({&old_slot, 1}, kPatternBits + pos, len);
        const u64 data_seg = (cw.payload >> pos) & low_mask(len);
        const bool old_tag = (old_tags >> k) & 1;
        const usize cost_plain =
            hamming(old_seg, data_seg) + (old_tag ? 1 : 0);
        const usize cost_flip =
            hamming(old_seg, ~data_seg & low_mask(len)) + (old_tag ? 0 : 1);
        const bool flip = cost_flip < cost_plain;
        deposit_bits({&slot, 1}, kPatternBits + pos, len,
                     flip ? (~data_seg & low_mask(len)) : data_seg);
        if (flip) {
          new_tags |= u64{1} << k;
        } else {
          new_tags &= ~(u64{1} << k);
        }
        pos += len;
      }
      deposit_bits({&slot, 1}, kTagOffset, kTagsPerWord, new_tags);
      stored.data.set_word(w, slot);
      stored.meta.set_bit(w, true);
    }
  }

 private:
  static constexpr usize kTagOffset = 60;  // tag bits at the top of the slot

  /// Length of FNW segment k (0..3) over an L-bit payload.
  static constexpr usize segment_len(usize payload_bits, usize k) noexcept {
    return payload_bits / kTagsPerWord +
           (k < payload_bits % kTagsPerWord ? 1 : 0);
  }

  std::string name_ = "ReferenceCoef";
};

class ReferenceCafo final : public Encoder {
 public:
  static constexpr usize kRows = 32;
  static constexpr usize kCols = 16;

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return kRows + kCols;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return true;
  }

  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override {
    const u64 row_tags = stored.meta.bits(0, kRows);
    const u64 col_tags = stored.meta.bits(kRows, kCols);
    CacheLine line;
    for (usize r = 0; r < kRows; ++r) {
      const u64 flip = ((row_tags >> r) & 1 ? low_mask(kCols) : 0) ^ col_tags;
      deposit_bits(line.words(), r * kCols, kCols,
                   row(stored.data, r) ^ flip);
    }
    return line;
  }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override {
    // error[r] bit j == 1 iff writing logical bit (r, j) unmodified would
    // flip the stored cell: stored ^ new.
    std::array<u64, kRows> error{};
    for (usize r = 0; r < kRows; ++r) {
      error[r] = row(stored.data, r) ^ row(new_line, r);
    }

    const u64 old_row_tags = stored.meta.bits(0, kRows);
    const u64 old_col_tags = stored.meta.bits(kRows, kCols);

    // Greedy alternating optimization, seeded with the stored tags so that
    // a silent rewrite converges immediately at zero cost.
    u64 row_tags = old_row_tags;
    u64 col_tags = old_col_tags;
    for (int pass = 0; pass < 1024; ++pass) {
      bool changed = false;

      // Optimal row tags given the column tags.
      for (usize r = 0; r < kRows; ++r) {
        const usize ones = popcount((error[r] ^ col_tags) & low_mask(kCols));
        const bool old_tag = (old_row_tags >> r) & 1;
        const bool cur = (row_tags >> r) & 1;
        const usize cost0 = ones + (old_tag ? 1 : 0);
        const usize cost1 = (kCols - ones) + (old_tag ? 0 : 1);
        // Ties keep the current value: every change strictly lowers the
        // cost, which guarantees termination of the alternating passes.
        const bool best = cost1 < cost0 || (cost1 == cost0 && cur);
        if (best != cur) {
          row_tags ^= u64{1} << r;
          changed = true;
        }
      }

      // Optimal column tags given the row tags.
      for (usize c = 0; c < kCols; ++c) {
        usize ones = 0;
        for (usize r = 0; r < kRows; ++r) {
          ones += ((error[r] >> c) ^ (row_tags >> r)) & 1;
        }
        const bool old_tag = (old_col_tags >> c) & 1;
        const bool cur = (col_tags >> c) & 1;
        const usize cost0 = ones + (old_tag ? 1 : 0);
        const usize cost1 = (kRows - ones) + (old_tag ? 0 : 1);
        const bool best = cost1 < cost0 || (cost1 == cost0 && cur);
        if (best != cur) {
          col_tags ^= u64{1} << c;
          changed = true;
        }
      }

      if (!changed) break;
    }

    // Materialize: stored(r, j) = logical(r, j) ^ row_tag[r] ^ col_tag[j].
    for (usize r = 0; r < kRows; ++r) {
      const u64 flip = ((row_tags >> r) & 1 ? low_mask(kCols) : 0) ^ col_tags;
      deposit_bits(stored.data.words(), r * kCols, kCols,
                   row(new_line, r) ^ flip);
    }
    stored.meta.set_bits(0, kRows, row_tags);
    stored.meta.set_bits(kRows, kCols, col_tags);
  }

 private:
  /// Row r of a line: bits [r*16, r*16+16).
  [[nodiscard]] static u64 row(const CacheLine& line, usize r) noexcept {
    return extract_bits(line.words(), r * kCols, kCols);
  }

  std::string name_ = "ReferenceCafo";
};

}  // namespace nvmenc::testutil
