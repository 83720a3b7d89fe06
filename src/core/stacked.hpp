// StackedEncoder: Flip-N-Write layered over another encoder's stored
// image.
//
// Motivation: encryption (DEUCE) produces high-entropy ciphertext whose
// re-keyed words flip ~50 % of their cells; that is exactly the
// random-data regime where Flip-N-Write's theoretical gains (Figure 3)
// are largest. Stacking works on any inner encoder whose stored image is
// what actually needs to reach the cells:
//
//   cells     = FNW(inner_stored_image)        [outer tags in metadata]
//   decode    = inner.decode(FNW^-1(cells))
//
// The outer layer is an FnwEncoder of the outer granularity: it sees the
// inner image as its plaintext and minimizes the physical flips of writing
// it; the inner layer never knows. Metadata is the concatenation
// [inner meta][outer tags]; the outer tags are copied in and out of the
// FnwEncoder's own metadata region.
#pragma once

#include "core/fnw.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc {

class StackedEncoder final : public Encoder {
 public:
  /// `granularity` is the outer FNW block size (must divide 512).
  StackedEncoder(EncoderPtr inner, usize granularity = 8);

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override {
    return inner_->meta_bits() + outer_.meta_bits();
  }
  /// Outer tag bits are tags; inner metadata keeps its own split.
  [[nodiscard]] bool is_tag_bit(usize i) const noexcept override {
    return i < inner_->meta_bits() ? inner_->is_tag_bit(i) : true;
  }
  [[nodiscard]] StoredLine make_stored(const CacheLine& line) const override;
  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override;

  [[nodiscard]] const Encoder& inner() const noexcept { return *inner_; }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override;

 private:
  /// The outer FNW's view of a stacked line: its cells and its tags.
  [[nodiscard]] StoredLine outer_view(const StoredLine& stored) const;
  /// The inner encoder's view: the image under the outer tags, and the
  /// inner metadata.
  [[nodiscard]] StoredLine inner_view(const StoredLine& stored,
                                      const StoredLine& outer) const;

  EncoderPtr inner_;
  FnwEncoder outer_;
  std::string name_;
};

}  // namespace nvmenc
