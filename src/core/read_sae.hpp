// READ and SAE: the paper's contribution (Sections 3.1-3.3).
//
// READ (REdundant-word-Aware Data encoding) pools the line's 32-bit tag
// budget and spends it only on the words the write actually modifies. The
// M dirty words are concatenated into an M*64-bit vector, sliced into T
// equal segments, and each segment is Flip-N-Write-encoded with one tag
// bit. An 8-bit dirty flag records which words are encoded.
//
// SAE (Sequential-flips-Aware Encoding) chooses T adaptively: instead of
// always using the full budget (T = N), it evaluates T = N, N/2, N/4, N/8
// in parallel and keeps the granularity with the fewest total flips,
// recording the choice in a 2-bit granularity flag. Segment sizes follow
// the paper's Table 1 exactly: 2^f * 64 * M / N data bits per tag.
//
// Correctness note (DESIGN.md §5): the paper's decode (Figure 8) passes
// clean words through unchanged, which is only sound if every word outside
// the current dirty flag is stored in plaintext. A word that was
// FNW-flipped while dirty and then drops out of the dirty set therefore
// needs handling the paper does not discuss. This implementation evaluates
// two plans per write and takes the cheaper: *normalize* (rewrite such
// words in plain form, paying the flips) or *re-tag* (keep them inside the
// dirty flag so their flipped form stays decodable, at the price of a
// coarser granularity for everyone). Either way decode(encode(x)) == x
// holds unconditionally and every flip is counted; EXPERIMENTS.md
// quantifies the impact.
#pragma once

#include <optional>

#include "core/simd.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc {

struct AdaptiveConfig {
  /// Shared tag-bit budget per 512-bit line (paper: 32).
  usize tag_budget = kTagBudget;
  /// READ: detect clean words and assign tags only to dirty ones. When
  /// false every word is treated as dirty (the SAE-only ablation).
  bool redundant_word_aware = true;
  /// SAE: number of granularity options evaluated (1, 2, 3 or 4 = tag
  /// budgets N, N/2, N/4, N/8). 1 disables SAE (the READ-only scheme).
  usize granularity_levels = 4;
  /// Extension (ours): rotate which physical tag cells the segments use,
  /// by a per-line write counter stored in the metadata. Costs
  /// kRotationBits of extra metadata and a ~1-bit/write counter update,
  /// and spreads tag-cell wear across the whole budget — the fix for the
  /// metadata-wear concentration bench/paper_claims measures.
  bool rotate_tags = false;
  /// SIMD tier for the shared-cost kernels. Unset (the default) captures
  /// the process default (default_simd_tier()) at construction; set it to
  /// run scalar and vector encoders side by side in one process (the
  /// differential fuzz harness does). Requests above the host's capability
  /// are capped to the best available tier. Every tier is bit-identical.
  std::optional<SimdTier> simd{};

  void validate() const;
};

class ReadSaeEncoder final : public Encoder {
 public:
  explicit ReadSaeEncoder(AdaptiveConfig config, std::string name = {});

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] usize meta_bits() const noexcept override;
  [[nodiscard]] bool is_tag_bit(usize i) const noexcept override {
    return i < config_.tag_budget;
  }
  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override;

  [[nodiscard]] const AdaptiveConfig& config() const noexcept {
    return config_;
  }

  /// The SIMD tier this encoder's kernels actually run on (the config
  /// request resolved against the host at construction).
  [[nodiscard]] SimdTier simd_tier() const noexcept { return tier_; }

  /// Encoding granularity (data bits per tag bit) of Table 1: dirty words
  /// M, granularity flag f, tag budget N.
  [[nodiscard]] static usize granularity_bits(usize dirty_words,
                                              usize tag_budget,
                                              usize gran_flag) {
    return (dirty_words * kWordBits) / (tag_budget >> gran_flag);
  }

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override;

 private:
  /// Width of the rotation counter (enough to index every tag cell).
  static constexpr usize kRotationBits = 5;

  /// Bit offsets of the metadata fields.
  [[nodiscard]] usize dirty_flag_offset() const noexcept {
    return config_.tag_budget;
  }
  [[nodiscard]] usize gran_flag_offset() const noexcept {
    return config_.tag_budget +
           (config_.redundant_word_aware ? kDirtyFlagBits : 0);
  }
  [[nodiscard]] usize rotation_offset() const noexcept {
    return gran_flag_offset() +
           (config_.granularity_levels > 1 ? kGranularityFlagBits : 0);
  }
  [[nodiscard]] u8 stored_dirty_mask(const StoredLine& stored) const;
  [[nodiscard]] usize stored_gran_flag(const StoredLine& stored) const;
  [[nodiscard]] usize stored_rotation(const StoredLine& stored) const;
  /// Physical tag cell used by logical segment index s under rotation.
  [[nodiscard]] usize tag_cell(usize s, usize rotation) const noexcept {
    return (s + rotation) % config_.tag_budget;
  }
  /// The stored tag window as seen by logical segment indices: bit s of
  /// the result is the stored value of tag_cell(s, rotation). This lets
  /// the SIMD cost kernels index tags by plain bit position.
  [[nodiscard]] u64 rotated_window(u64 tag_state,
                                   usize rotation) const noexcept;

  /// One candidate mask's scan state: the densely packed XOR vector of
  /// the covered words plus the finest-granularity per-segment Hamming
  /// distances (the shared popcount tree's leaf level — every coarser
  /// granularity is derived from these by pairwise addition, never by
  /// rescanning the bits).
  struct MaskEval;

  /// XORs `mask`'s words from both lines and fills the leaf level of the
  /// cost tree in a single pass over the covered bits.
  void scan_mask(MaskEval& eval, const StoredLine& stored,
                 const CacheLine& new_line, u8 mask) const;

  /// Applies the winning (mask, granularity) plan using the precomputed
  /// leaf costs — no rescan of the data bits.
  void apply_plan(StoredLine& stored, const MaskEval& eval,
                  const CacheLine& new_line, usize best_f,
                  usize rotation) const;

  /// The logical line behind a stored image, reconstructing only the
  /// words inside `dirty` (words outside it are plaintext by the Fig. 8
  /// invariant; untagged images skip the gather entirely).
  [[nodiscard]] CacheLine reconstruct_logical(const StoredLine& stored,
                                              u8 dirty) const;

  AdaptiveConfig config_;
  std::string name_;
  SimdTier tier_ = SimdTier::kScalar;
};

/// The paper's READ scheme: 32-bit shared tag, dirty-word pooling, fixed
/// (finest) granularity. Capacity overhead 7.8%.
[[nodiscard]] EncoderPtr make_read(usize tag_budget = kTagBudget);

/// The paper's READ+SAE scheme: READ plus adaptive granularity selection.
/// Capacity overhead 8.2%.
[[nodiscard]] EncoderPtr make_read_sae(usize tag_budget = kTagBudget);

/// Ablation: adaptive granularity without dirty-word pooling.
[[nodiscard]] EncoderPtr make_sae_only(usize tag_budget = kTagBudget);

/// Extension: READ+SAE with rotating tag-cell assignment (wear-spreading
/// for the metadata region). Capacity overhead 9.2%.
[[nodiscard]] EncoderPtr make_read_sae_rotate(usize tag_budget = kTagBudget);

}  // namespace nvmenc
