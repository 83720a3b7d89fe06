// Tests of the paper-accounting model (core/paper_model.hpp): the
// idealized READ/SAE evaluator used to regenerate the paper's figures.
#include "core/paper_model.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/schemes.hpp"

namespace nvmenc {
namespace {

PaperModelReadSae read_model() {
  return PaperModelReadSae{{.tag_budget = 32,
                            .redundant_word_aware = true,
                            .granularity_levels = 1}};
}

PaperModelReadSae read_sae_model() {
  return PaperModelReadSae{{.tag_budget = 32,
                            .redundant_word_aware = true,
                            .granularity_levels = 4}};
}

CacheLine random_line(Xoshiro256& rng) {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
  return line;
}

TEST(PaperModel, SilentWriteIsFree) {
  const PaperModelReadSae model = read_sae_model();
  PaperModelLineState state;
  Xoshiro256 rng{1};
  const CacheLine line = random_line(rng);
  EXPECT_EQ(model.write(state, line, line).total(), 0u);
}

TEST(PaperModel, MetaBitsMatchEncoderLayout) {
  EXPECT_EQ(read_model().meta_bits(), 40u);
  EXPECT_EQ(read_sae_model().meta_bits(), 42u);
}

TEST(PaperModel, SetsPlusResetsEqualsTotal) {
  const PaperModelReadSae model = read_sae_model();
  PaperModelLineState state;
  Xoshiro256 rng{2};
  CacheLine line = random_line(rng);
  for (int i = 0; i < 200; ++i) {
    CacheLine next = line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      if (rng.next_bool(0.4)) next.set_word(w, rng.next());
    }
    const FlipBreakdown fb = model.write(state, line, next);
    EXPECT_EQ(fb.sets + fb.resets, fb.total());
    line = next;
  }
}

TEST(PaperModel, SequentialFlipPicksCoarseGranularity) {
  // The Figure 5 case: a full complement costs only the coarse tags.
  const PaperModelReadSae model = read_sae_model();
  PaperModelLineState state;
  Xoshiro256 rng{3};
  const CacheLine line = random_line(rng);
  const FlipBreakdown fb = model.write(state, line, ~line);
  EXPECT_EQ(fb.data, 0u);
  EXPECT_LE(fb.tag, 4u);
  EXPECT_EQ(state.gran_flag, 3u);
}

TEST(PaperModel, ReadOnlyUsesFinestGranularityAlways) {
  const PaperModelReadSae model = read_model();
  PaperModelLineState state;
  Xoshiro256 rng{4};
  const CacheLine line = random_line(rng);
  const FlipBreakdown fb = model.write(state, line, ~line);
  // No SAE: 32 tags all flip, 0 data flips.
  EXPECT_EQ(fb.data, 0u);
  EXPECT_EQ(fb.tag, 32u);
  EXPECT_EQ(state.gran_flag, 0u);
}

TEST(PaperModel, NoNormalizationCharge) {
  // The defining idealization: a word that leaves the dirty set costs
  // nothing, even though its last encoding flipped it.
  const PaperModelReadSae model = read_model();
  PaperModelLineState state;
  CacheLine a;
  a.set_word(0, 0x00FF00FF00FF00FFull);
  CacheLine b = a;
  b.set_word(0, ~a.word(0));  // dense flip: tags get set
  (void)model.write(state, a, b);
  CacheLine c = b;
  c.set_word(1, 7);  // word 0 clean now
  const FlipBreakdown fb = model.write(state, b, c);
  // Only word 1's change and flag deltas are charged; no word-0 cost.
  EXPECT_LE(fb.data, 3u + 0u);
  EXPECT_LE(fb.total(), 3u + 32u + 8u);
}

TEST(PaperModel, DirtyFlagFlipsAccounted) {
  const PaperModelReadSae model = read_model();
  PaperModelLineState state;
  CacheLine a;
  CacheLine b = a;
  b.set_word(3, 1);
  const FlipBreakdown fb = model.write(state, a, b);
  EXPECT_GE(fb.flag, 1u);  // dirty flag bit 3 sets
  EXPECT_EQ(state.dirty_flag, 0b1000u);
}

TEST(PaperModel, SchemeRegistryIntegration) {
  EXPECT_TRUE(is_paper_model(Scheme::kReadPaper));
  EXPECT_TRUE(is_paper_model(Scheme::kReadSaePaper));
  EXPECT_FALSE(is_paper_model(Scheme::kRead));
  EXPECT_EQ(scheme_name(Scheme::kReadPaper), "READ*");
  EXPECT_EQ(scheme_name(Scheme::kReadSaePaper), "READ+SAE*");
  EXPECT_THROW((void)make_encoder(Scheme::kReadPaper), std::invalid_argument);
  EXPECT_TRUE(charges_encode_logic(Scheme::kReadSaePaper));
  EXPECT_EQ(figure_schemes().size(), 10u);
  EXPECT_TRUE(is_paper_model(Scheme::kAfnwPaper));
  EXPECT_EQ(scheme_name(Scheme::kAfnwPaper), "AFNW*");
}

TEST(PaperModelAfnw, CleanWordsAreFree) {
  const PaperModelAfnw model;
  PaperModelAfnwState state;
  Xoshiro256 rng{11};
  const CacheLine line = random_line(rng);
  EXPECT_EQ(model.write(state, line, line).total(), 0u);
}

TEST(PaperModelAfnw, MetaBitsMatchStatefulEncoder) {
  EXPECT_EQ(PaperModelAfnw{}.meta_bits(), 56u);
}

TEST(PaperModelAfnw, DirectionSplitConsistent) {
  const PaperModelAfnw model;
  PaperModelAfnwState state;
  Xoshiro256 rng{12};
  CacheLine line = random_line(rng);
  for (int i = 0; i < 200; ++i) {
    CacheLine next = line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      if (rng.next_bool(0.5)) {
        next.set_word(w, rng.next_bool(0.5) ? rng.next()
                                            : (rng.next() & 0xFFFF));
      }
    }
    const FlipBreakdown fb = model.write(state, line, next);
    EXPECT_EQ(fb.sets + fb.resets, fb.total());
    line = next;
  }
}

TEST(PaperModelAfnw, CompressionAgainstPlainOldCostsLayoutChange) {
  // The defining behaviour: a small logical change whose compressed image
  // differs wildly from the plain old bits costs more than DCW would —
  // "compression results in more bit flips than DCW" (Section 4.2.1).
  const PaperModelAfnw model;
  PaperModelLineState unused;
  (void)unused;
  PaperModelAfnwState state;
  CacheLine old_line;
  old_line.set_word(0, 0xAAAAAAAAAAAAAAAAull);  // raw pattern, plain old
  CacheLine new_line = old_line;
  new_line.set_word(0, 0xAAAAAAAAAAAAAAABull);  // 2 logical bit changes
  const usize dcw = old_line.hamming(new_line);
  const FlipBreakdown fb = model.write(state, old_line, new_line);
  // Both are pattern-7 (raw payload), so here AFNW tracks DCW closely...
  EXPECT_LE(fb.data, dcw + 4);
  // ...but a word moving from raw to compressed rewrites its slot layout.
  CacheLine third = new_line;
  third.set_word(0, 5);  // pattern 1: 4-bit payload vs plain old slot
  const usize dcw2 = new_line.hamming(third);
  const FlipBreakdown fb2 = model.write(state, new_line, third);
  EXPECT_LT(fb2.total(), dcw2);  // the 4-bit payload is cheap to place...
  // ...yet the stateful encoder (compressed image persists) is cheaper
  // still on the *next* compressible update. The divergence between the
  // two accountings is bench/paper_claims' clean-word bookkeeping table.
}

TEST(PaperModel, NeverWorseThanTagFreeDcwPlusMeta) {
  // Sanity bound: per write, the model's cost is at most DCW's data cost
  // plus every metadata bit flipping.
  const PaperModelReadSae model = read_sae_model();
  PaperModelLineState state;
  Xoshiro256 rng{5};
  CacheLine line = random_line(rng);
  for (int i = 0; i < 300; ++i) {
    CacheLine next = line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      if (rng.next_bool(0.5)) next.set_word(w, rng.next());
    }
    const usize dcw = line.hamming(next);
    const FlipBreakdown fb = model.write(state, line, next);
    EXPECT_LE(fb.total(), dcw + model.meta_bits());
    line = next;
  }
}

}  // namespace
}  // namespace nvmenc
