#include "encoding/row_shift.hpp"

#include <gtest/gtest.h>

#include "core/fnw.hpp"
#include "encoder_test_util.hpp"
#include "encoding/dcw.hpp"

namespace nvmenc {
namespace {

TEST(RowShift, CtorValidation) {
  EXPECT_THROW(RowShiftEncoder(nullptr), std::invalid_argument);
  EXPECT_THROW(RowShiftEncoder(std::make_unique<DcwEncoder>(), 3),
               std::invalid_argument);
  EXPECT_THROW(RowShiftEncoder(std::make_unique<DcwEncoder>(), 8, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(RowShiftEncoder(std::make_unique<DcwEncoder>(), 8, 16));
}

TEST(RowShift, NameAndMeta) {
  RowShiftEncoder enc{std::make_unique<DcwEncoder>(), 8, 16};
  EXPECT_EQ(enc.name(), "DCW+shift8");
  EXPECT_EQ(enc.positions(), 64u);
  // 6 position bits + 4 interval bits over DCW's zero metadata.
  EXPECT_EQ(enc.meta_bits(), 10u);
}

TEST(RowShift, RoundTripsAllWriteClassesOverDcw) {
  RowShiftEncoder enc{std::make_unique<DcwEncoder>(), 8, 4};
  testutil::exercise_encoder(enc, 111, 300);
}

TEST(RowShift, RoundTripsOverFnw) {
  RowShiftEncoder enc{make_fnw(8), 64, 8};
  EXPECT_EQ(enc.name(), "FNW8+shift64");
  testutil::exercise_encoder(enc, 222, 300);
}

TEST(RowShift, ShiftEventMovesTheImage) {
  // With interval 2, the second write rotates the stored image by one
  // unit: the same logical content lands on different cells.
  RowShiftEncoder enc{std::make_unique<DcwEncoder>(), 8, 2};
  CacheLine line;
  line.set_word(0, 0xFF);  // bits [0, 8)
  StoredLine stored = enc.make_stored(line);
  EXPECT_EQ(stored.data.word(0) & 0xFF, 0xFFu);

  CacheLine next = line;
  next.set_word(1, 1);
  (void)enc.encode(stored, next);  // counter 1: still offset 0
  EXPECT_EQ(stored.data.word(0) & 0xFF, 0xFFu);

  next.set_word(1, 2);
  (void)enc.encode(stored, next);  // counter 2: offset 1 (one unit left)
  EXPECT_EQ(stored.data.word(0) & 0xFF, 0u);
  EXPECT_EQ((stored.data.word(0) >> 8) & 0xFF, 0xFFu);
  EXPECT_EQ(enc.decode(stored), next);
}

TEST(RowShift, SpreadsHotBitWearAcrossCells) {
  // A single hot logical bit toggling every write: without shifting one
  // cell takes every flip; with shifting the flips walk the line.
  RowShiftEncoder enc{std::make_unique<DcwEncoder>(), 8, 2};
  CacheLine line;
  StoredLine stored = enc.make_stored(line);
  std::array<usize, kLineBits> cell_flips{};
  StoredLine prev = stored;
  for (int i = 0; i < 256; ++i) {
    line.set_bit(0, !line.bit(0));
    (void)enc.encode(stored, line);
    for (usize b = 0; b < kLineBits; ++b) {
      cell_flips[b] += prev.data.bit(b) != stored.data.bit(b);
    }
    prev = stored;
    ASSERT_EQ(enc.decode(stored), line);
  }
  usize touched = 0;
  usize max_flips = 0;
  for (usize f : cell_flips) {
    touched += f > 0;
    max_flips = std::max(max_flips, f);
  }
  // The hot bit lands on one cell per 8-bit shift unit: 64 positions.
  EXPECT_GE(touched, 60u);         // wear walks the whole line
  EXPECT_LT(max_flips, 40u);       // no cell takes the brunt (256 without
                                   // shifting)
}

TEST(RowShift, ShiftWritesCostFlips) {
  // The rotation itself rewrites cells — row shifting trades extra flips
  // for wear spreading, and the accounting must show it.
  RowShiftEncoder shifting{std::make_unique<DcwEncoder>(), 8, 2};
  DcwEncoder plain;
  Xoshiro256 rng{5};
  CacheLine line = testutil::random_line(rng);
  StoredLine s1 = shifting.make_stored(line);
  StoredLine s2 = plain.make_stored(line);
  usize f1 = 0;
  usize f2 = 0;
  for (int i = 0; i < 100; ++i) {
    line.set_word(0, rng.next());
    f1 += shifting.encode(s1, line).total();
    f2 += plain.encode(s2, line).total();
  }
  EXPECT_GT(f1, f2);  // the spreading is not free
}

}  // namespace
}  // namespace nvmenc
