// MaskCosetEncoder: a fixed-granularity mask-set encoder, kept as
// Flip-N-Write's differential-testing oracle.
//
// The line is divided into fixed blocks of `block_bits`; each block carries
// `index_bits` of metadata selecting one of 2^index_bits XOR masks. The
// stored block is data ^ mask[index]; the encoder picks, per block, the
// index minimizing (data-cell flips + index-bit flips) against the current
// stored image, one extract/deposit round trip per block.
//
// With masks {0, low_mask(g)} it is Flip-N-Write [Cho & Lee, MICRO'09] at
// granularity g. The production FNW runs on the segment kernels instead
// (core/fnw.hpp); test_baseline_differential.cpp holds the two to the same
// stored images, metadata and flip ledgers bit for bit.
#pragma once

#include <bit>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc::testutil {

class MaskCosetEncoder : public Encoder {
 public:
  /// `block_bits` must divide 512 and be <= 64; `masks` must have a
  /// power-of-two size >= 2, fit in block_bits, contain distinct entries,
  /// and have masks[0] == 0 (so a zero-metadata image decodes to itself).
  MaskCosetEncoder(std::string name, usize block_bits, std::vector<u64> masks)
      : name_{std::move(name)},
        block_bits_{block_bits},
        blocks_{0},
        masks_{std::move(masks)} {
    require(block_bits_ >= 1 && block_bits_ <= 64,
            "block size must be 1..64 bits");
    require(kLineBits % block_bits_ == 0, "block size must divide 512");
    blocks_ = kLineBits / block_bits_;
    require(masks_.size() >= 2 && is_pow2(masks_.size()),
            "mask set size must be a power of two >= 2");
    require(masks_[0] == 0, "masks[0] must be the identity mask");
    std::unordered_set<u64> seen;
    for (u64 m : masks_) {
      require((m & ~low_mask(block_bits_)) == 0, "mask wider than block");
      require(seen.insert(m).second, "masks must be distinct");
    }
    index_bits_ = static_cast<usize>(std::bit_width(masks_.size() - 1));
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return blocks_ * index_bits_;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return true;  // every metadata bit is flip-direction state
  }

  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override {
    CacheLine line = stored.data;
    for (usize b = 0; b < blocks_; ++b) {
      const usize pos = b * block_bits_;
      const u64 index = stored.meta.bits(b * index_bits_, index_bits_);
      const u64 cells = extract_bits(line.words(), pos, block_bits_);
      deposit_bits(line.words(), pos, block_bits_,
                   cells ^ masks_[static_cast<usize>(index)]);
    }
    return line;
  }

  [[nodiscard]] usize block_bits() const noexcept { return block_bits_; }
  [[nodiscard]] usize index_bits() const noexcept { return index_bits_; }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override {
    for (usize b = 0; b < blocks_; ++b) {
      const usize pos = b * block_bits_;
      const u64 old_cells =
          extract_bits(stored.data.words(), pos, block_bits_);
      const u64 data = extract_bits(new_line.words(), pos, block_bits_);
      const u64 old_index = stored.meta.bits(b * index_bits_, index_bits_);

      usize best_index = 0;
      usize best_cost = ~usize{0};
      for (usize i = 0; i < masks_.size(); ++i) {
        const usize cost = hamming(old_cells, data ^ masks_[i]) +
                           hamming(old_index, static_cast<u64>(i));
        if (cost < best_cost) {
          best_cost = cost;
          best_index = i;
        }
      }

      deposit_bits(stored.data.words(), pos, block_bits_,
                   data ^ masks_[best_index]);
      stored.meta.set_bits(b * index_bits_, index_bits_,
                           static_cast<u64>(best_index));
    }
  }

 private:
  std::string name_;
  usize block_bits_;
  usize blocks_;
  usize index_bits_;
  std::vector<u64> masks_;
};

}  // namespace nvmenc::testutil
