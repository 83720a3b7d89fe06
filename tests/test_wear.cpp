#include "wear/wear_leveler.hpp"

#include <gtest/gtest.h>
#include <set>

#include "common/rng.hpp"

namespace nvmenc {
namespace {

TEST(IdealWearLeveler, SpreadsEverything) {
  IdealWearLeveler wl{10};
  for (int i = 0; i < 100; ++i) wl.on_write(0, 10);  // one hot line
  const WearLeveler::Report r = wl.report();
  EXPECT_DOUBLE_EQ(r.mean_wear, 100.0);
  EXPECT_DOUBLE_EQ(r.max_wear, 100.0);
  EXPECT_DOUBLE_EQ(r.uniformity, 1.0);
  EXPECT_EQ(r.extra_writes, 0u);
}

TEST(IdealWearLeveler, PreservesTotalFlips) {
  IdealWearLeveler wl{7};
  wl.on_write(0, 10);  // 10 does not divide 7: remainder distributed
  u64 total = 0;
  for (u64 w : wl.physical_wear()) total += w;
  EXPECT_EQ(total, 10u);
}

TEST(StartGap, MapIsBijectiveAtAllTimes) {
  StartGapLeveler wl{16, /*gap_interval=*/3};
  Xoshiro256 rng{5};
  for (int step = 0; step < 500; ++step) {
    std::set<usize> mapped;
    for (u64 l = 0; l < 16; ++l) {
      const usize p = wl.map(l * kLineBytes);
      EXPECT_LT(p, 17u);  // N + 1 physical slots
      EXPECT_TRUE(mapped.insert(p).second) << "collision at step " << step;
    }
    wl.on_write(rng.next_below(16) * kLineBytes, 1);
  }
}

TEST(StartGap, GapRotates) {
  StartGapLeveler wl{8, /*gap_interval=*/1};
  const usize initial_gap = wl.gap();
  for (int i = 0; i < 3; ++i) wl.on_write(0, 1);
  EXPECT_NE(wl.gap(), initial_gap);
}

TEST(StartGap, StartAdvancesAfterFullRotation) {
  StartGapLeveler wl{4, /*gap_interval=*/1};
  EXPECT_EQ(wl.start(), 0u);
  // N + 1 = 5 gap movements complete one rotation.
  for (int i = 0; i < 5; ++i) wl.on_write(0, 1);
  EXPECT_EQ(wl.start(), 1u);
}

TEST(StartGap, HotLineWearSpreadsOverTime) {
  // A single scorching line: without WL one slot takes everything; with
  // Start-Gap the wear migrates around the region.
  StartGapLeveler wl{32, /*gap_interval=*/8, /*move_cost_flips=*/16};
  for (int i = 0; i < 200000; ++i) wl.on_write(0, 4);
  const WearLeveler::Report r = wl.report();
  EXPECT_GT(r.uniformity, 0.3);  // far better than the 1/33 of no leveling
  EXPECT_GT(r.extra_writes, 0u);
}

TEST(StartGap, ColdTrafficIsCheap) {
  StartGapLeveler wl{32, 100};
  Xoshiro256 rng{9};
  for (int i = 0; i < 10000; ++i) {
    wl.on_write(rng.next_below(32) * kLineBytes, 2);
  }
  const WearLeveler::Report r = wl.report();
  // Uniform traffic stays uniform under Start-Gap.
  EXPECT_GT(r.uniformity, 0.6);
  EXPECT_EQ(r.extra_writes, 10000u / 100);
}

TEST(SecurityRefresh, RequiresPow2Region) {
  EXPECT_THROW(SecurityRefreshLeveler(12), std::invalid_argument);
  EXPECT_NO_THROW(SecurityRefreshLeveler(16));
}

TEST(SecurityRefresh, MapStaysInRegion) {
  SecurityRefreshLeveler wl{64, 10};
  Xoshiro256 rng{11};
  for (int i = 0; i < 5000; ++i) {
    const u64 addr = rng.next_below(64) * kLineBytes;
    EXPECT_LT(wl.map(addr), 64u);
    wl.on_write(addr, 1);
  }
}

TEST(SecurityRefresh, MapIsBijectivePerEpochState) {
  SecurityRefreshLeveler wl{32, 7};
  Xoshiro256 rng{13};
  for (int step = 0; step < 300; ++step) {
    std::set<usize> mapped;
    for (u64 l = 0; l < 32; ++l) {
      EXPECT_TRUE(mapped.insert(wl.map(l * kLineBytes)).second)
          << "step " << step;
    }
    wl.on_write(rng.next_below(32) * kLineBytes, 1);
  }
}

TEST(SecurityRefresh, HotLineWearSpreads) {
  SecurityRefreshLeveler wl{64, 8, 16};
  for (int i = 0; i < 400000; ++i) wl.on_write(0, 4);
  EXPECT_GT(wl.report().uniformity, 0.15);
}

TEST(RegionedLeveler, CtorValidation) {
  auto factory = [](usize lines) {
    return std::make_unique<StartGapLeveler>(lines, 8);
  };
  EXPECT_THROW(RegionedLeveler(100, 10, factory), std::invalid_argument);
  EXPECT_THROW(RegionedLeveler(64, 128, factory), std::invalid_argument);
  EXPECT_THROW(RegionedLeveler(64, 16, nullptr), std::invalid_argument);
  EXPECT_NO_THROW(RegionedLeveler(64, 16, factory));
}

TEST(RegionedLeveler, RandomizationIsBijective) {
  RegionedLeveler wl{1024, 64, [](usize lines) {
                       return std::make_unique<IdealWearLeveler>(lines);
                     }};
  std::set<usize> seen;
  for (usize i = 0; i < 1024; ++i) {
    const usize mixed = wl.randomize(i);
    EXPECT_LT(mixed, 1024u);
    EXPECT_TRUE(seen.insert(mixed).second) << "collision at " << i;
  }
}

TEST(RegionedLeveler, RandomizationSpreadsContiguousHotSet) {
  // A contiguous hot range (the workload model's hot set) must land in
  // many different regions.
  RegionedLeveler wl{4096, 128, [](usize lines) {
                       return std::make_unique<IdealWearLeveler>(lines);
                     }};
  std::set<usize> regions;
  for (usize i = 0; i < 256; ++i) {
    regions.insert(wl.randomize(i) / 128);
  }
  EXPECT_GT(regions.size(), 20u);  // of 32 regions
}

TEST(RegionedLeveler, AggregatesWearAndExtraWrites) {
  RegionedLeveler wl{256, 64, [](usize lines) {
                       return std::make_unique<StartGapLeveler>(lines, 2);
                     }};
  for (int i = 0; i < 1000; ++i) {
    wl.on_write(static_cast<u64>(i % 256) * kLineBytes, 3);
  }
  // 4 regions x 65 slots each (Start-Gap spare).
  EXPECT_EQ(wl.physical_wear().size(), 4u * 65);
  EXPECT_GT(wl.extra_writes(), 0u);
  u64 total = 0;
  for (u64 w : wl.physical_wear()) total += w;
  EXPECT_GE(total, 3000u);  // payload wear plus migrations
}

TEST(RegionedLeveler, LevelsHotspotWithinRegion) {
  RegionedLeveler wl{1024, 64,
                     [](usize lines) {
                       return std::make_unique<StartGapLeveler>(
                           lines, 2, /*move_cost_flips=*/0);
                     }};
  // One scorching line.
  for (int i = 0; i < 400'000; ++i) wl.on_write(0, 4);
  // Its region's wear spreads: overall uniformity far above the 1/1024
  // of no leveling. (Other regions stay untouched, capping uniformity at
  // 64/1024 = 0.0625 in this single-line extreme.)
  EXPECT_GT(wl.report().uniformity, 0.03);
}

TEST(Lifetime, WearLevelingApproachesIdealUnderHotspot) {
  // The paper's Section 4.2.4 premise: deployed WL brings lifetime near
  // the flip-proportional ideal. Under 90%-hot traffic, no leveling pins
  // ~90% of wear on one of 64 slots (uniformity ~0.017); Start-Gap should
  // recover a large fraction of the ideal's 1.0.
  StartGapLeveler with_wl{64, 8, 16};
  Xoshiro256 rng{17};
  for (int i = 0; i < 300000; ++i) {
    const u64 line = rng.next_bool(0.9) ? 0 : rng.next_below(64);
    with_wl.on_write(line * kLineBytes, 4);
  }
  const double uniformity = with_wl.report().uniformity;
  EXPECT_GT(uniformity, 0.25);  // >> 0.017 of no leveling
}

}  // namespace
}  // namespace nvmenc
