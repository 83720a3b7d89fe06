// CAFO [Maddah et al., HPCA'15]: cost-aware flip optimization.
//
// The 512-bit line is viewed as a 32x16 matrix (paper Section 4.1). Every
// row and every column carries one flip tag; a stored bit is the logical
// bit XOR its row tag XOR its column tag. Choosing the 48 tags is a
// 2-coloring optimization; CAFO solves it by alternating greedy passes —
// fix the columns and choose each row's best tag, then fix the rows and
// choose each column's best tag — until a fixpoint. Tag-bit flips against
// the previously stored tags are part of the cost, exactly like the data
// cells.
//
// Row r is bits [16r, 16r + 16): the 16-bit lane r % 4 of line word r / 4,
// so every pass works on whole words. Metadata: row tags in bits [0, 32),
// column tags in bits [32, 48).
#pragma once

#include "encoding/encoder.hpp"

namespace nvmenc {

class CafoEncoder final : public Encoder {
 public:
  static constexpr usize kRows = 32;
  static constexpr usize kCols = 16;

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  /// 32 row tags + 16 column tags = 48 bits (9.4% overhead).
  [[nodiscard]] usize meta_bits() const noexcept override {
    return kRows + kCols;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return true;
  }
  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override;

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override;

 private:
  std::string name_ = "CAFO";
};

}  // namespace nvmenc
