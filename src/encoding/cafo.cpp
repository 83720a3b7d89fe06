#include "encoding/cafo.hpp"

#include <array>

namespace nvmenc {

namespace {

constexpr usize kLanes = 4;  // 16-bit rows per 64-bit word
static_assert(CafoEncoder::kCols * kLanes == kWordBits);
static_assert(CafoEncoder::kRows == kWordsPerLine * kLanes);

constexpr u64 kLaneOnes = 0x0001000100010001ull;  // bit 0 of every lane

/// What word w's cells hold on top of the logical bits: every lane XORs
/// the column tags, and lane k is inverted when the tag of row 4w + k
/// (bit k of `row_nibble`) is set.
constexpr u64 flip_pattern(u64 col_tags, u64 row_nibble) noexcept {
  // The multiply moves nibble bit k to bit 16k; its other partial
  // products land on distinct bits outside the lane-0 mask, so no carry
  // disturbs the result. Then each lane's bit widens to 0xFFFF.
  const u64 rows =
      ((row_nibble * 0x0000200040008001ull) & kLaneOnes) * 0xFFFFu;
  return (col_tags * kLaneOnes) ^ rows;
}

}  // namespace

void CafoEncoder::encode_impl(StoredLine& stored,
                              const CacheLine& new_line) const {
  // err[w] bit j == 1 iff writing logical bit j of word w unmodified would
  // flip the stored cell: stored ^ new.
  std::array<u64, kWordsPerLine> err{};
  for (usize w = 0; w < kWordsPerLine; ++w) {
    err[w] = stored.data.word(w) ^ new_line.word(w);
  }
  // The same matrix column-major: bit r of col_err[c] is cell (r, c).
  // Column c of word w sits at bits c, c+16, c+32, c+48; one multiply
  // gathers them into bits 48..51 (the partial products land on distinct
  // bits, so nothing carries into the nibble), i.e. rows 4w..4w+3.
  std::array<u64, kCols> col_err{};
  for (usize w = 0; w < kWordsPerLine; ++w) {
    for (usize c = 0; c < kCols; ++c) {
      const u64 nibble =
          (((err[w] >> c) & kLaneOnes) * 0x0001000200040008ull) >> 48;
      col_err[c] |= nibble << (kLanes * w);
    }
  }

  const u64 old_row_tags = stored.meta.bits(0, kRows);
  const u64 old_col_tags = stored.meta.bits(kRows, kCols);

  // Greedy alternating optimization, seeded with the stored tags so that a
  // silent rewrite converges immediately at zero cost.
  u64 row_tags = old_row_tags;
  u64 col_tags = old_col_tags;
  // Each pass that changes anything strictly lowers the integer cost
  // (bounded by 512 + 48), so the loop always exits via `!changed` well
  // inside the bound.
  for (int pass = 0; pass < 1024; ++pass) {
    bool changed = false;

    // Optimal row tags given the column tags.
    for (usize r = 0; r < kRows; ++r) {
      const u64 lane = err[r / kLanes] >> (kCols * (r % kLanes));
      const usize ones = popcount((lane ^ col_tags) & low_mask(kCols));
      const bool old_tag = (old_row_tags >> r) & 1;
      const bool cur = (row_tags >> r) & 1;
      const usize cost0 = ones + (old_tag ? 1 : 0);
      const usize cost1 = (kCols - ones) + (old_tag ? 0 : 1);
      // Ties keep the current value: every change strictly lowers the cost,
      // which guarantees termination of the alternating passes.
      const bool best = cost1 < cost0 || (cost1 == cost0 && cur);
      if (best != cur) {
        row_tags ^= u64{1} << r;
        changed = true;
      }
    }

    // Optimal column tags given the row tags.
    for (usize c = 0; c < kCols; ++c) {
      const usize ones = popcount(col_err[c] ^ row_tags);
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
  for (usize w = 0; w < kWordsPerLine; ++w) {
    stored.data.set_word(
        w, new_line.word(w) ^
               flip_pattern(col_tags, (row_tags >> (kLanes * w)) & 0xF));
  }
  stored.meta.set_bits(0, kRows, row_tags);
  stored.meta.set_bits(kRows, kCols, col_tags);
}

CacheLine CafoEncoder::decode(const StoredLine& stored) const {
  const u64 row_tags = stored.meta.bits(0, kRows);
  const u64 col_tags = stored.meta.bits(kRows, kCols);
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    line.set_word(
        w, stored.data.word(w) ^
               flip_pattern(col_tags, (row_tags >> (kLanes * w)) & 0xF));
  }
  return line;
}

}  // namespace nvmenc
