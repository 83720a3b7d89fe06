#include "core/schemes.hpp"

#include <gtest/gtest.h>

#include "encoder_test_util.hpp"
#include "encoding/dcw.hpp"

namespace nvmenc {
namespace {

/// Every constructible (non-paper-model) scheme.
std::vector<Scheme> all_encoder_schemes() {
  std::vector<Scheme> schemes;
  for (Scheme s : all_schemes()) {
    if (!is_paper_model(s)) schemes.push_back(s);
  }
  return schemes;
}

TEST(Schemes, PaperSetInFigureOrder) {
  const auto& s = paper_schemes();
  ASSERT_EQ(s.size(), 7u);
  EXPECT_EQ(scheme_name(s[0]), "DCW");
  EXPECT_EQ(scheme_name(s[1]), "Flip-N-Write");
  EXPECT_EQ(scheme_name(s[2]), "AFNW");
  EXPECT_EQ(scheme_name(s[3]), "COEF");
  EXPECT_EQ(scheme_name(s[4]), "CAFO");
  EXPECT_EQ(scheme_name(s[5]), "READ");
  EXPECT_EQ(scheme_name(s[6]), "READ+SAE");
}

TEST(Schemes, MakeEncoderProducesWorkingEncoders) {
  for (Scheme s : paper_schemes()) {
    const EncoderPtr enc = make_encoder(s);
    ASSERT_NE(enc, nullptr);
    CacheLine line = CacheLine::filled(0x1234567890ABCDEFull);
    StoredLine stored = enc->make_stored(line);
    EXPECT_EQ(enc->decode(stored), line) << scheme_name(s);
  }
}

TEST(Schemes, CapacityOverheadsMatchSection41) {
  EXPECT_DOUBLE_EQ(make_encoder(Scheme::kDcw)->capacity_overhead(), 0.0);
  EXPECT_DOUBLE_EQ(make_encoder(Scheme::kFnw)->capacity_overhead(), 0.125);
  // COEF: the paper claims 0.2% (1 bit/line); the implementable variant
  // needs per-word encoded/raw flags = 8 bits = 1.6% (DESIGN.md).
  EXPECT_NEAR(make_encoder(Scheme::kCoef)->capacity_overhead(), 0.0156,
              0.001);
  EXPECT_NEAR(make_encoder(Scheme::kCafo)->capacity_overhead(), 0.094,
              0.001);
  EXPECT_NEAR(make_encoder(Scheme::kRead)->capacity_overhead(), 0.078,
              0.001);
  EXPECT_NEAR(make_encoder(Scheme::kReadSae)->capacity_overhead(), 0.082,
              0.001);
}

TEST(Schemes, EncodeLogicChargedOnlyForContribution) {
  EXPECT_FALSE(charges_encode_logic(Scheme::kDcw));
  EXPECT_FALSE(charges_encode_logic(Scheme::kFnw));
  EXPECT_FALSE(charges_encode_logic(Scheme::kCafo));
  EXPECT_TRUE(charges_encode_logic(Scheme::kRead));
  EXPECT_TRUE(charges_encode_logic(Scheme::kReadSae));
  EXPECT_TRUE(charges_encode_logic(Scheme::kReadPaper));
  EXPECT_TRUE(charges_encode_logic(Scheme::kReadSaePaper));
  EXPECT_FALSE(charges_encode_logic(Scheme::kAfnw));
  EXPECT_FALSE(charges_encode_logic(Scheme::kAfnwPaper));
}

TEST(Schemes, NameRoundTrip) {
  for (Scheme s : all_schemes()) {
    EXPECT_EQ(scheme_by_name(scheme_name(s)), s);
  }
  EXPECT_EQ(scheme_by_name("FNW"), Scheme::kFnw);
  EXPECT_EQ(scheme_by_name("SAE-only"), Scheme::kSaeOnly);
  EXPECT_THROW((void)scheme_by_name("nope"), std::invalid_argument);
}

TEST(Schemes, ExtensionSchemesWork) {
  const EncoderPtr enc = make_encoder(Scheme::kSaeOnly);
  CacheLine line = CacheLine::filled(42);
  StoredLine stored = enc->make_stored(line);
  EXPECT_EQ(enc->decode(stored), line);
}

class EverySchemeProperty : public ::testing::TestWithParam<Scheme> {};

TEST_P(EverySchemeProperty, RoundTripsAllWriteClasses) {
  const EncoderPtr enc = make_encoder(GetParam());
  testutil::exercise_encoder(*enc, 4000 + static_cast<u64>(GetParam()),
                             250);
}

TEST_P(EverySchemeProperty, NeverWorseThanDcwPlusMetadata) {
  // Universal sanity bound: a write can never cost more than DCW's data
  // flips plus every metadata bit changing.
  const EncoderPtr enc = make_encoder(GetParam());
  DcwEncoder dcw;
  Xoshiro256 rng{777 + static_cast<u64>(GetParam())};
  CacheLine logical = testutil::random_line(rng);
  StoredLine stored = enc->make_stored(logical);
  StoredLine plain = dcw.make_stored(logical);
  for (int i = 0; i < 200; ++i) {
    logical = testutil::next_line(
        rng, logical, testutil::kAllWriteClasses[rng.next_below(6)]);
    const usize cost = enc->encode(stored, logical).total();
    const usize base = dcw.encode(plain, logical).total();
    // Fixed-block mask schemes (FNW/CAFO) can always re-use each block's
    // previous mask, so they are bounded by DCW + metadata.
    // Compressing schemes re-layout data, and the READ family re-shapes
    // segment geometry (clean-word bookkeeping), so for those only the
    // trivial full-line bound applies.
    const bool strict = GetParam() == Scheme::kDcw ||
                        GetParam() == Scheme::kFnw ||
                        GetParam() == Scheme::kCafo;
    if (strict) {
      ASSERT_LE(cost, base + enc->meta_bits()) << "iter " << i;
    } else {
      ASSERT_LE(cost, kLineBits + enc->meta_bits()) << "iter " << i;
    }
  }
}

TEST_P(EverySchemeProperty, SilentWriteAfterStateBuildupIsFree) {
  const EncoderPtr enc = make_encoder(GetParam());
  Xoshiro256 rng{555 + static_cast<u64>(GetParam())};
  CacheLine logical = testutil::random_line(rng);
  StoredLine stored = enc->make_stored(logical);
  for (int i = 0; i < 20; ++i) {
    logical = testutil::next_line(
        rng, logical, testutil::kAllWriteClasses[rng.next_below(6)]);
    (void)enc->encode(stored, logical);
  }
  EXPECT_EQ(enc->encode(stored, logical).total(), 0u)
      << scheme_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EverySchemeProperty,
                         ::testing::ValuesIn(all_encoder_schemes()),
                         [](const auto& param_info) {
                           std::string name = scheme_name(param_info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace nvmenc
