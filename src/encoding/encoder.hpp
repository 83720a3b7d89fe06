// Encoder: the common interface of every NVM write-encoding scheme.
//
// An encoder owns the stored representation of one cache line: 512 data
// bits (possibly transformed) plus a fixed-width per-line metadata region
// (tag bits, dirty flags, granularity flags, compression prefixes — each
// scheme defines its own layout). Writes are differential: the device only
// toggles cells whose value changes, so the cost of a write is the Hamming
// distance between the old and new stored images. The base class measures
// that distance itself — derived classes cannot misreport flips — and
// splits it into data / tag / auxiliary-flag components using the scheme's
// declared metadata layout, matching the accounting of Section 4.2.1.
#pragma once

#include <memory>
#include <string>

#include "common/bit_buf.hpp"
#include "common/cache_line.hpp"
#include "common/types.hpp"

namespace nvmenc {

/// Bit flips of one encoded write, split the way the paper reports them:
/// data-cell flips, tag-bit flips (Figure 11), and auxiliary-flag flips
/// (compression tags, dirty flags, granularity flags).
struct FlipBreakdown {
  usize data = 0;
  usize tag = 0;
  usize flag = 0;
  /// Direction split for the asymmetric-energy model: total() == sets +
  /// resets always holds.
  usize sets = 0;    ///< 0 -> 1 transitions
  usize resets = 0;  ///< 1 -> 0 transitions

  [[nodiscard]] usize total() const noexcept { return data + tag + flag; }

  FlipBreakdown& operator+=(const FlipBreakdown& other) noexcept {
    data += other.data;
    tag += other.tag;
    flag += other.flag;
    sets += other.sets;
    resets += other.resets;
    return *this;
  }
};

/// The NVM-resident image of one cache line under some encoder.
struct StoredLine {
  CacheLine data;  ///< the 512 data cells
  BitBuf meta;     ///< the scheme's metadata cells (size = Encoder::meta_bits)
};

class Encoder {
 public:
  virtual ~Encoder() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Width of the per-line metadata region in bits. Capacity overhead is
  /// meta_bits() / 512 (Section 3.4.1).
  [[nodiscard]] virtual usize meta_bits() const noexcept = 0;

  /// True when metadata bit `i` is a *tag* bit (flip-direction state), as
  /// opposed to an auxiliary flag. Drives the tag/flag flip split.
  [[nodiscard]] virtual bool is_tag_bit(usize i) const noexcept = 0;

  /// Builds the initial stored image of a pristine line whose logical
  /// contents are `line` (identity encoding, zeroed metadata).
  [[nodiscard]] virtual StoredLine make_stored(const CacheLine& line) const;

  /// Encodes a write of `new_line` over the current stored image, updating
  /// `stored` in place and returning the measured flip breakdown.
  /// Postcondition: decode(stored) == new_line.
  FlipBreakdown encode(StoredLine& stored, const CacheLine& new_line) const;

  /// Recovers the logical line from a stored image.
  [[nodiscard]] virtual CacheLine decode(const StoredLine& stored) const = 0;

  /// Capacity overhead as a fraction of the 512 data bits.
  [[nodiscard]] double capacity_overhead() const noexcept {
    return static_cast<double>(meta_bits()) /
           static_cast<double>(kLineBits);
  }

 protected:
  /// Scheme-specific write transform. Must leave `stored` such that
  /// decode(stored) == new_line; the base class measures the flips.
  virtual void encode_impl(StoredLine& stored,
                           const CacheLine& new_line) const = 0;
};

using EncoderPtr = std::unique_ptr<Encoder>;

}  // namespace nvmenc
