// MaskCosetEncoder: the unified fixed-granularity encoder family.
//
// The line is divided into fixed blocks of `block_bits`; each block carries
// `index_bits` of metadata selecting one of 2^index_bits XOR masks. The
// stored block is data ^ mask[index]; the encoder picks, per block, the
// index minimizing (data-cell flips + index-bit flips) against the current
// stored image.
//
// The family instantiates the coset-coding comparison points, FlipMin
// [Jacobvitz et al., HPCA'13] and PRES [Seyedzadeh et al., DAC'15]: a
// larger, diverse mask set approximating coset selection. With masks
// {0, all-ones} it is Flip-N-Write [Cho & Lee, MICRO'09]; the production
// FNW runs on the segment kernels instead (core/fnw.hpp), and this
// two-mask instance is its bit-exact test oracle.
#pragma once

#include <vector>

#include "encoding/encoder.hpp"

namespace nvmenc {

class MaskCosetEncoder : public Encoder {
 public:
  /// `block_bits` must divide 512 and be <= 64; `masks` must have a
  /// power-of-two size >= 2, fit in block_bits, contain distinct entries,
  /// and have masks[0] == 0 (so a zero-metadata image decodes to itself).
  MaskCosetEncoder(std::string name, usize block_bits,
                   std::vector<u64> masks);

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return blocks_ * index_bits_;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return true;  // every metadata bit is flip-direction state
  }
  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override;

  [[nodiscard]] usize block_bits() const noexcept { return block_bits_; }
  [[nodiscard]] usize index_bits() const noexcept { return index_bits_; }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override;

 private:
  std::string name_;
  usize block_bits_;
  usize blocks_;
  usize index_bits_;
  std::vector<u64> masks_;
};

/// FlipMin-style coset encoder: 16-bit blocks, 4 index bits, nibble-
/// replicated mask set {0x0000, 0x1111, ..., 0xFFFF}.
[[nodiscard]] EncoderPtr make_flipmin();

/// PRES-style encoder [Seyedzadeh et al., DAC'15]: pseudo-random coset
/// candidates. 16-bit blocks, 4 index bits; mask 0 is the identity, the
/// other 15 are pseudo-random 16-bit patterns derived from `seed`, which
/// both spreads the candidate space (more reduction than plain FNW) and
/// randomizes the stored image.
[[nodiscard]] EncoderPtr make_pres(u64 seed = 0x9e3779b97f4a7c15ull);

}  // namespace nvmenc
