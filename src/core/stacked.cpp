#include "core/stacked.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nvmenc {

namespace {

usize outer_granularity(usize granularity) {
  require(granularity >= 2 && granularity <= 64 &&
              kLineBits % granularity == 0,
          "outer granularity must divide 512 and be 2..64");
  return granularity;
}

/// Copies bits [from_pos, from_pos + n) of `from` to [to_pos, to_pos + n)
/// of `to`.
void copy_bits(const BitBuf& from, usize from_pos, BitBuf& to, usize to_pos,
               usize n) {
  for (usize i = 0; i < n; i += 64) {
    const usize len = std::min<usize>(64, n - i);
    to.set_bits(to_pos + i, len, from.bits(from_pos + i, len));
  }
}

}  // namespace

StackedEncoder::StackedEncoder(EncoderPtr inner, usize granularity)
    : inner_{std::move(inner)}, outer_{outer_granularity(granularity)} {
  require(inner_ != nullptr, "stack needs an inner encoder");
  name_ = inner_->name() + "+" + outer_.name();
}

StoredLine StackedEncoder::outer_view(const StoredLine& stored) const {
  StoredLine outer{stored.data, BitBuf{outer_.meta_bits()}};
  copy_bits(stored.meta, inner_->meta_bits(), outer.meta, 0,
            outer_.meta_bits());
  return outer;
}

StoredLine StackedEncoder::inner_view(const StoredLine& stored,
                                      const StoredLine& outer) const {
  StoredLine inner{outer_.decode(outer), BitBuf{inner_->meta_bits()}};
  copy_bits(stored.meta, 0, inner.meta, 0, inner_->meta_bits());
  return inner;
}

StoredLine StackedEncoder::make_stored(const CacheLine& line) const {
  const StoredLine inner = inner_->make_stored(line);
  // Outer tags all zero: the cells hold the inner image as is.
  StoredLine stored{inner.data, BitBuf{meta_bits()}};
  copy_bits(inner.meta, 0, stored.meta, 0, inner_->meta_bits());
  return stored;
}

CacheLine StackedEncoder::decode(const StoredLine& stored) const {
  return inner_->decode(inner_view(stored, outer_view(stored)));
}

void StackedEncoder::encode_impl(StoredLine& stored,
                                 const CacheLine& new_line) const {
  // The inner encoder writes its new image, then the outer FNW writes that
  // image onto the cells.
  StoredLine outer = outer_view(stored);
  StoredLine inner = inner_view(stored, outer);
  (void)inner_->encode(inner, new_line);
  (void)outer_.encode(outer, inner.data);
  stored.data = outer.data;
  copy_bits(inner.meta, 0, stored.meta, 0, inner_->meta_bits());
  copy_bits(outer.meta, 0, stored.meta, inner_->meta_bits(),
            outer_.meta_bits());
}

}  // namespace nvmenc
