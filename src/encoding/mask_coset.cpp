#include "encoding/mask_coset.hpp"

#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace nvmenc {

MaskCosetEncoder::MaskCosetEncoder(std::string name, usize block_bits,
                                   std::vector<u64> masks)
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

void MaskCosetEncoder::encode_impl(StoredLine& stored,
                                   const CacheLine& new_line) const {
  for (usize b = 0; b < blocks_; ++b) {
    const usize pos = b * block_bits_;
    const u64 old_cells = extract_bits(stored.data.words(), pos, block_bits_);
    const u64 data = extract_bits(new_line.words(), pos, block_bits_);
    const u64 old_index = stored.meta.bits(b * index_bits_, index_bits_);

    usize best_index = 0;
    usize best_cost = ~usize{0};
    for (usize i = 0; i < masks_.size(); ++i) {
      const usize cost =
          hamming(old_cells, data ^ masks_[i]) +
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

CacheLine MaskCosetEncoder::decode(const StoredLine& stored) const {
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

EncoderPtr make_flipmin() {
  std::vector<u64> masks;
  masks.reserve(16);
  for (u64 i = 0; i < 16; ++i) masks.push_back(i * 0x1111u);
  return std::make_unique<MaskCosetEncoder>("FlipMin", 16, std::move(masks));
}

EncoderPtr make_pres(u64 seed) {
  std::vector<u64> masks{0};
  SplitMix64 sm{seed};
  std::unordered_set<u64> seen{0};
  while (masks.size() < 16) {
    const u64 mask = sm.next() & low_mask(16);
    if (seen.insert(mask).second) masks.push_back(mask);
  }
  return std::make_unique<MaskCosetEncoder>("PRES", 16, std::move(masks));
}

}  // namespace nvmenc
