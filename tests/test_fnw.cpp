// Flip-N-Write tests: the per-block flip decision and the theoretical
// bounds the paper's Figure 3 rests on, plus the argument checks of
// MaskCosetEncoder, FNW's differential-testing oracle
// (reference_mask_coset.hpp).
#include "core/fnw.hpp"

#include <gtest/gtest.h>

#include "encoder_test_util.hpp"
#include "encoding/dcw.hpp"
#include "reference_mask_coset.hpp"

namespace nvmenc {
namespace {

TEST(MaskCoset, CtorValidation) {
  using testutil::MaskCosetEncoder;
  using V = std::vector<u64>;
  // Block must divide 512 and fit in 64.
  EXPECT_THROW(MaskCosetEncoder("x", 0, V{0, 1}), std::invalid_argument);
  EXPECT_THROW(MaskCosetEncoder("x", 65, V{0, 1}), std::invalid_argument);
  EXPECT_THROW(MaskCosetEncoder("x", 24, V{0, 1}), std::invalid_argument);
  // Mask set: power-of-two size, identity first, distinct, within block.
  EXPECT_THROW(MaskCosetEncoder("x", 8, V{0}), std::invalid_argument);
  EXPECT_THROW(MaskCosetEncoder("x", 8, V{0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(MaskCosetEncoder("x", 8, V{1, 0}), std::invalid_argument);
  EXPECT_THROW(MaskCosetEncoder("x", 8, V{0, 0}), std::invalid_argument);
  EXPECT_THROW(MaskCosetEncoder("x", 8, V{0, 0x100}), std::invalid_argument);
  EXPECT_NO_THROW(MaskCosetEncoder("x", 8, V{0, 0xFF}));
}

TEST(Fnw, MetaBitsMatchGranularity) {
  EXPECT_EQ(make_fnw(8)->meta_bits(), 64u);   // paper config: 12.5% overhead
  EXPECT_EQ(make_fnw(16)->meta_bits(), 32u);
  EXPECT_DOUBLE_EQ(make_fnw(8)->capacity_overhead(), 0.125);
}

class FnwGranularity : public ::testing::TestWithParam<usize> {};

TEST_P(FnwGranularity, RoundTripsAllWriteClasses) {
  const EncoderPtr enc = make_fnw(GetParam());
  testutil::exercise_encoder(*enc, 42 + GetParam());
}

TEST_P(FnwGranularity, NeverWorseThanDcwPlusTags) {
  const usize g = GetParam();
  const EncoderPtr enc = make_fnw(g);
  DcwEncoder dcw;
  Xoshiro256 rng{77};
  CacheLine logical = testutil::random_line(rng);
  StoredLine fnw_stored = enc->make_stored(logical);
  StoredLine dcw_stored = dcw.make_stored(logical);
  for (int i = 0; i < 200; ++i) {
    logical = testutil::next_line(
        rng, logical,
        testutil::kAllWriteClasses[rng.next_below(6)]);
    const usize fnw_flips = enc->encode(fnw_stored, logical).total();
    const usize dcw_flips = dcw.encode(dcw_stored, logical).total();
    // Per block, FNW picks min(keep, flip) <= keep = DCW cost + <=1 tag.
    EXPECT_LE(fnw_flips, dcw_flips + kLineBits / g);
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, FnwGranularity,
                         ::testing::Values<usize>(2, 4, 8, 16, 32, 64));

TEST(Fnw, FlipsBlockWhenBeneficial) {
  // Old stored all-zeros; write all-ones: flipping stores zeros again, one
  // tag flip per block instead of g data flips.
  const EncoderPtr enc = make_fnw(8);
  StoredLine stored = enc->make_stored(CacheLine{});
  const CacheLine ones = CacheLine::filled(~u64{0});
  const FlipBreakdown fb = enc->encode(stored, ones);
  EXPECT_EQ(fb.data, 0u);
  EXPECT_EQ(fb.tag, 64u);  // every tag set
  EXPECT_EQ(enc->decode(stored), ones);
}

TEST(Fnw, KeepsBlockWhenCheaper) {
  const EncoderPtr enc = make_fnw(8);
  StoredLine stored = enc->make_stored(CacheLine{});
  CacheLine sparse;
  sparse.set_word(0, 0x1);  // a single bit set: cheaper unflipped
  const FlipBreakdown fb = enc->encode(stored, sparse);
  EXPECT_EQ(fb.total(), 1u);
  EXPECT_EQ(fb.tag, 0u);
}

TEST(Fnw, SilentWriteIsFree) {
  const EncoderPtr enc = make_fnw(8);
  Xoshiro256 rng{3};
  const CacheLine line = testutil::random_line(rng);
  StoredLine stored = enc->make_stored(line);
  EXPECT_EQ(enc->encode(stored, line).total(), 0u);
  // Also free after the stored image accumulated flip state.
  const CacheLine inverse = ~line;
  (void)enc->encode(stored, inverse);
  EXPECT_EQ(enc->encode(stored, inverse).total(), 0u);
}

TEST(Fnw, WorstCasePerBlockIsHalf) {
  // FNW guarantee: a block never costs more than (g+1)/2 flips.
  const usize g = 8;
  const EncoderPtr enc = make_fnw(g);
  Xoshiro256 rng{55};
  CacheLine logical = testutil::random_line(rng);
  StoredLine stored = enc->make_stored(logical);
  for (int i = 0; i < 300; ++i) {
    logical = testutil::random_line(rng);
    const usize flips = enc->encode(stored, logical).total();
    EXPECT_LE(flips, (kLineBits / g) * ((g + 1) / 2 + 1));
  }
}

TEST(Fnw, FinerGranularityReducesRandomDataFlips) {
  // The Figure 3 trend: smaller g -> fewer flips on random data.
  Xoshiro256 rng{88};
  std::vector<CacheLine> lines;
  for (int i = 0; i < 400; ++i) lines.push_back(testutil::random_line(rng));

  auto total_flips = [&](usize g) {
    const EncoderPtr enc = make_fnw(g);
    StoredLine stored = enc->make_stored(lines[0]);
    usize flips = 0;
    for (usize i = 1; i < lines.size(); ++i) {
      flips += enc->encode(stored, lines[i]).total();
    }
    return flips;
  };

  const usize f4 = total_flips(4);
  const usize f16 = total_flips(16);
  const usize f64 = total_flips(64);
  EXPECT_LT(f4, f16);
  EXPECT_LT(f16, f64);
}

}  // namespace
}  // namespace nvmenc
