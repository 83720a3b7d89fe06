#include "core/stacked.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/fnw.hpp"
#include "encoder_test_util.hpp"
#include "encoding/dcw.hpp"
#include "encoding/deuce.hpp"

namespace nvmenc {
namespace {

TEST(Stacked, CtorValidation) {
  EXPECT_THROW(StackedEncoder(nullptr), std::invalid_argument);
  EXPECT_THROW(StackedEncoder(std::make_unique<DcwEncoder>(), 7),
               std::invalid_argument);
  EXPECT_NO_THROW(StackedEncoder(std::make_unique<DcwEncoder>(), 16));
}

TEST(Stacked, NameAndMeta) {
  StackedEncoder enc{std::make_unique<DeuceEncoder>(), 8};
  EXPECT_EQ(enc.name(), "DEUCE+FNW8");
  EXPECT_EQ(enc.meta_bits(), 40u + 64u);
  EXPECT_FALSE(enc.is_tag_bit(0));    // inner DEUCE counter bit
  EXPECT_TRUE(enc.is_tag_bit(40));    // first outer tag
}

TEST(Stacked, OverDcwBehavesLikePlainFnw) {
  // DCW's stored image is the plaintext, so stacking FNW over it must act
  // exactly like FNW alone.
  StackedEncoder stacked{std::make_unique<DcwEncoder>(), 8};
  const EncoderPtr plain = make_fnw(8);
  Xoshiro256 rng{31};
  CacheLine logical = testutil::random_line(rng);
  StoredLine s1 = stacked.make_stored(logical);
  StoredLine s2 = plain->make_stored(logical);
  for (int i = 0; i < 200; ++i) {
    logical = testutil::next_line(
        rng, logical, testutil::kAllWriteClasses[rng.next_below(6)]);
    const usize f1 = stacked.encode(s1, logical).total();
    const usize f2 = plain->encode(s2, logical).total();
    ASSERT_EQ(f1, f2) << "iter " << i;
    ASSERT_EQ(stacked.decode(s1), logical);
  }
}

TEST(Stacked, OverDeuceIsFnwOnDeucesImage) {
  // DEUCE+FNW8 is DEUCE, then FnwEncoder(8) on DEUCE's stored image: the
  // same cells, DEUCE's metadata then FNW's tags, and the flips of both.
  const StackedEncoder stacked{std::make_unique<DeuceEncoder>(), 8};
  const DeuceEncoder deuce;
  const FnwEncoder fnw{8};
  const usize inner_meta = deuce.meta_bits();
  Xoshiro256 rng{37};
  CacheLine logical = testutil::random_line(rng);
  StoredLine s = stacked.make_stored(logical);
  StoredLine d = deuce.make_stored(logical);
  StoredLine f = fnw.make_stored(d.data);
  for (const testutil::WriteClass wc : testutil::kAllWriteClasses) {
    for (int i = 0; i < 50; ++i) {
      logical = testutil::next_line(rng, logical, wc);
      const FlipBreakdown got = stacked.encode(s, logical);
      const FlipBreakdown inner = deuce.encode(d, logical);
      const FlipBreakdown outer = fnw.encode(f, d.data);
      const std::string what = std::string{testutil::write_class_name(wc)} +
                               " write " + std::to_string(i);
      ASSERT_EQ(s.data, f.data) << what;
      for (usize b = 0; b < s.meta.size(); ++b) {
        ASSERT_EQ(s.meta.bit(b), b < inner_meta ? d.meta.bit(b)
                                                : f.meta.bit(b - inner_meta))
            << what << " meta bit " << b;
      }
      ASSERT_EQ(got.data, outer.data) << what;
      ASSERT_EQ(got.tag, inner.tag + outer.tag) << what;
      ASSERT_EQ(got.flag, inner.flag + outer.flag) << what;
      ASSERT_EQ(stacked.decode(s), logical) << what;
    }
  }
}

TEST(Stacked, OverDeuceRoundTripsAllClasses) {
  StackedEncoder enc{std::make_unique<DeuceEncoder>(), 8};
  testutil::exercise_encoder(enc, 1357, 300);
}

TEST(Stacked, FnwRecoversPartOfTheReKeyCost) {
  // Re-keyed ciphertext words are ~random: the outer FNW should shave the
  // expected ~18% (g = 8) off DEUCE's data flips.
  Xoshiro256 rng{33};
  DeuceEncoder plain_deuce;
  StackedEncoder stacked{std::make_unique<DeuceEncoder>(), 8};
  CacheLine line = testutil::random_line(rng);
  StoredLine s1 = plain_deuce.make_stored(line);
  StoredLine s2 = stacked.make_stored(line);
  usize f1 = 0;
  usize f2 = 0;
  for (int i = 0; i < 300; ++i) {
    line.set_word(rng.next_below(kWordsPerLine), rng.next());
    f1 += plain_deuce.encode(s1, line).total();
    f2 += stacked.encode(s2, line).total();
  }
  EXPECT_LT(static_cast<double>(f2), 0.92 * static_cast<double>(f1));
}

TEST(Stacked, SilentWritebackStaysFree) {
  StackedEncoder enc{std::make_unique<DeuceEncoder>(), 8};
  Xoshiro256 rng{35};
  const CacheLine line = testutil::random_line(rng);
  StoredLine stored = enc.make_stored(line);
  CacheLine other = line;
  other.set_word(1, rng.next());
  (void)enc.encode(stored, other);
  EXPECT_EQ(enc.encode(stored, other).total(), 0u);
}

}  // namespace
}  // namespace nvmenc
