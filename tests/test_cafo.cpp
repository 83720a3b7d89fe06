#include "encoding/cafo.hpp"

#include <gtest/gtest.h>

#include "core/fnw.hpp"
#include "encoder_test_util.hpp"
#include "encoding/dcw.hpp"

namespace nvmenc {
namespace {

TEST(Cafo, MetaIsRowsPlusCols) {
  CafoEncoder enc;
  EXPECT_EQ(enc.meta_bits(), 48u);
  EXPECT_NEAR(enc.capacity_overhead(), 0.094, 0.001);  // paper: 9.4%
}

TEST(Cafo, RoundTripsAllWriteClasses) {
  CafoEncoder enc;
  testutil::exercise_encoder(enc, 2025);
}

TEST(Cafo, SilentWriteIsFree) {
  CafoEncoder enc;
  Xoshiro256 rng{9};
  CacheLine line = testutil::random_line(rng);
  StoredLine stored = enc.make_stored(line);
  EXPECT_EQ(enc.encode(stored, line).total(), 0u);
  // And after accumulating flip state.
  (void)enc.encode(stored, ~line);
  EXPECT_EQ(enc.encode(stored, ~line).total(), 0u);
}

TEST(Cafo, ComplementWriteUsesTagsNotData) {
  // All 512 bits invert: flipping every row handles it with 32 tag flips.
  CafoEncoder enc;
  StoredLine stored = enc.make_stored(CacheLine{});
  const CacheLine ones = CacheLine::filled(~u64{0});
  const FlipBreakdown fb = enc.encode(stored, ones);
  EXPECT_EQ(fb.data, 0u);
  EXPECT_LE(fb.tag, 32u);
  EXPECT_EQ(enc.decode(stored), ones);
}

TEST(Cafo, FixpointNoSingleToggleImproves) {
  // After encoding, flipping any single row or column tag must not lower
  // the achieved cost (local optimality of the alternating optimization).
  CafoEncoder enc;
  Xoshiro256 rng{10};
  CacheLine old_logical = testutil::random_line(rng);
  StoredLine stored = enc.make_stored(old_logical);
  const StoredLine before = stored;
  const CacheLine next = testutil::random_line(rng);
  const FlipBreakdown fb = enc.encode(stored, next);

  auto cost_of = [&](u64 row_tags, u64 col_tags) {
    usize cost = 0;
    for (usize r = 0; r < CafoEncoder::kRows; ++r) {
      const u64 flip =
          (((row_tags >> r) & 1) ? low_mask(CafoEncoder::kCols) : 0) ^
          col_tags;
      const u64 stored_row = extract_bits(
          before.data.words(), r * CafoEncoder::kCols, CafoEncoder::kCols);
      const u64 new_row = extract_bits(next.words(), r * CafoEncoder::kCols,
                                       CafoEncoder::kCols);
      cost += popcount((stored_row ^ (new_row ^ flip)) &
                       low_mask(CafoEncoder::kCols));
    }
    cost += popcount((before.meta.bits(0, 32) ^ row_tags));
    cost += popcount((before.meta.bits(32, 16) ^ col_tags));
    return cost;
  };

  const u64 rows = stored.meta.bits(0, 32);
  const u64 cols = stored.meta.bits(32, 16);
  const usize achieved = cost_of(rows, cols);
  EXPECT_EQ(achieved, fb.total());
  for (usize r = 0; r < CafoEncoder::kRows; ++r) {
    EXPECT_GE(cost_of(rows ^ (u64{1} << r), cols), achieved) << "row " << r;
  }
  for (usize c = 0; c < CafoEncoder::kCols; ++c) {
    EXPECT_GE(cost_of(rows, cols ^ (u64{1} << c)), achieved) << "col " << c;
  }
}

TEST(Cafo, BeatsRowOnlyFnwOnRandomData) {
  // CAFO's column dimension gives it an edge over a row-only flipper with
  // the same row granularity (the paper: CAFO > FNW).
  Xoshiro256 rng{11};
  std::vector<CacheLine> lines;
  for (int i = 0; i < 400; ++i) lines.push_back(testutil::random_line(rng));
  CafoEncoder cafo;
  const EncoderPtr fnw16 = make_fnw(16);  // 16-bit rows, rows only
  StoredLine s1 = cafo.make_stored(lines[0]);
  StoredLine s2 = fnw16->make_stored(lines[0]);
  usize f1 = 0;
  usize f2 = 0;
  for (usize i = 1; i < lines.size(); ++i) {
    f1 += cafo.encode(s1, lines[i]).total();
    f2 += fnw16->encode(s2, lines[i]).total();
  }
  EXPECT_LT(f1, f2);
}

TEST(Cafo, NeverWorseThanDcwPlusTagBudget) {
  CafoEncoder cafo;
  DcwEncoder dcw;
  Xoshiro256 rng{12};
  CacheLine logical = testutil::random_line(rng);
  StoredLine s1 = cafo.make_stored(logical);
  StoredLine s2 = dcw.make_stored(logical);
  for (int i = 0; i < 200; ++i) {
    logical = testutil::next_line(rng, logical,
                                  testutil::kAllWriteClasses[rng.next_below(6)]);
    const usize f1 = cafo.encode(s1, logical).total();
    const usize f2 = dcw.encode(s2, logical).total();
    EXPECT_LE(f1, f2 + 48);
  }
}

}  // namespace
}  // namespace nvmenc
