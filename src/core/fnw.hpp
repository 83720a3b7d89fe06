// Flip-N-Write [Cho & Lee, MICRO'09] on the shared segment kernels.
//
// The line is split into fixed blocks of `g` data bits, each with one tag
// bit; a block is stored inverted (tag set) iff that is STRICTLY cheaper
// than storing it plain, counting the tag cell's own flip. That is exactly
// the READ family's per-segment decision with a fixed segment width and no
// dirty-word pooling, so the encoder is three kernel calls (core/simd.hpp):
// segment_hamming -> segment_flip_select -> flip_selected_segments.
//
// The kernels select over at most 64 segments (one u64 of decisions), so
// the line is walked in chunks of min(64, 512/g) blocks: one chunk for
// g >= 8, 512/(64g) chunks for g in {1, 2, 4}. Metadata bit b tags block
// b, hence chunk c owns metadata word c. This is the layout (and the
// tie-break) of MaskCosetEncoder with masks {0, low_mask(g)}, the test
// oracle in tests/reference_mask_coset.hpp that
// tests/test_baseline_differential.cpp holds it to bit for bit.
#pragma once

#include "core/simd.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc {

class FnwEncoder final : public Encoder {
 public:
  /// `granularity` data bits per tag bit; must divide 512 and be <= 64.
  /// The kernels' SIMD tier is the process default at construction.
  explicit FnwEncoder(usize granularity);

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return kLineBits / seg_bits_;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return true;  // every metadata bit is a block's flip tag
  }
  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override;

  /// The SIMD tier this encoder's kernels run on.
  [[nodiscard]] SimdTier simd_tier() const noexcept { return tier_; }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override;

 private:
  std::string name_;
  usize seg_bits_;
  usize chunk_segs_;   ///< blocks per chunk: min(64, 512 / g)
  usize chunk_words_;  ///< data words per chunk
  SimdTier tier_;
};

/// Flip-N-Write at `granularity` data bits per tag bit (paper config: 8).
[[nodiscard]] EncoderPtr make_fnw(usize granularity = 8);

}  // namespace nvmenc
