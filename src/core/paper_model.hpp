// The paper's accounting model for READ / READ+SAE.
//
// Reproduction finding (DESIGN.md §5, EXPERIMENTS.md): implemented with
// bit-exact stored state, READ's tag re-assignment leaves previously
// flipped words undecodable unless they are normalized or re-tagged, and
// that bookkeeping consumes most of the scheme's advantage (see
// ReadSaeEncoder, the stateful implementation). The paper's evaluation
// does not model this: its per-write cost is computed directly from the
// (old logical line, new logical line) pair — the classic Flip-N-Write
// formula min(H, g - H + tag-bit delta) per segment — with only the tag
// bits, dirty flag and granularity flag persisting between writes.
//
// This evaluator reproduces that accounting exactly, so the repository can
// regenerate the paper's Figures 9-12 while the stateful encoder shows
// what a hardware implementation would actually pay. It is not an Encoder:
// it has no decodable stored image by construction. Both models run on the
// kernels their stateful encoders use: READ+SAE on the segment cost tree of
// core/simd.hpp, AFNW on payload_fnw_encode (encoding/payload_fnw.hpp).
// replay_scheme (sim/replay.hpp) replays a write-back trace through them.
#pragma once

#include "common/cache_line.hpp"
#include "core/read_sae.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc {

/// Per-line evaluation state of the paper's model.
struct PaperModelLineState {
  u64 tags = 0;       ///< the N persistent tag bits
  u8 dirty_flag = 0;  ///< last write's dirty-word mask
  u8 gran_flag = 0;   ///< last write's granularity selection
};

/// Per-line state of the idealized AFNW evaluation: persistent pattern
/// prefixes and tag bits, plaintext-resident data.
struct PaperModelAfnwState {
  u64 tags = 0;      ///< 8 words x 4 tag bits (word-major)
  u32 patterns = 0;  ///< 8 words x 3 pattern bits
};

/// AFNW under the paper's plaintext-resident accounting: each write's
/// cost is the Hamming distance between the PLAIN old word and the
/// FNW-encoded compressed new word (plus pattern/tag deltas). This is the
/// only accounting under which the paper's Section 4.2.1 claim —
/// "compression results in more bit flips than DCW", AFNW worse than FNW —
/// holds; the stateful AfnwEncoder (compressed image persists) is better
/// than FNW. See EXPERIMENTS.md.
class PaperModelAfnw {
 public:
  using State = PaperModelAfnwState;

  static constexpr usize kTagsPerWord = 4;
  static constexpr usize kPatternBits = 3;

  FlipBreakdown write(PaperModelAfnwState& state, const CacheLine& old_line,
                      const CacheLine& new_line) const;

  [[nodiscard]] usize meta_bits() const noexcept {
    return kWordsPerLine * (kTagsPerWord + kPatternBits);
  }
};

class PaperModelReadSae {
 public:
  using State = PaperModelLineState;

  explicit PaperModelReadSae(AdaptiveConfig config);

  /// Accounts one write-back of `new_line` over `old_line` (both logical),
  /// updating the persistent tag/flag state. The breakdown follows the
  /// paper's Section 4.2.1 accounting (data + tag + dirty/granularity
  /// flag flips, with direction split for the energy model).
  FlipBreakdown write(PaperModelLineState& state, const CacheLine& old_line,
                      const CacheLine& new_line) const;

  [[nodiscard]] const AdaptiveConfig& config() const noexcept {
    return config_;
  }
  /// Metadata width for energy accounting (same layout as the encoder).
  [[nodiscard]] usize meta_bits() const noexcept;

 private:
  AdaptiveConfig config_;
  SimdTier tier_ = SimdTier::kScalar;
};

}  // namespace nvmenc
