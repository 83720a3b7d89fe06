#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace nvmenc {
namespace {

CacheConfig tiny_config(usize lines = 8, usize ways = 2) {
  return {.name = "test", .size_bytes = lines * kLineBytes, .ways = ways};
}

CacheLine line_of(u64 value) {
  CacheLine l;
  l.set_word(0, value);
  return l;
}

TEST(CacheConfig, Validation) {
  EXPECT_NO_THROW(tiny_config().validate());
  CacheConfig bad = tiny_config();
  bad.size_bytes = 100;  // not line aligned
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_config();
  bad.ways = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_config(8, 3);  // 8 lines not divisible into 3 ways
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(CacheConfig, Table2Shapes) {
  for (const CacheConfig& c : table2_hierarchy()) {
    EXPECT_NO_THROW(c.validate());
  }
  const auto t2 = table2_hierarchy();
  EXPECT_EQ(t2[0].size_bytes, 32u * 1024);
  EXPECT_EQ(t2[2].size_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(t2[2].ways, 16u);
  for (const CacheConfig& c : scaled_hierarchy()) {
    EXPECT_NO_THROW(c.validate());
  }
}

TEST(CacheLevel, MissThenHit) {
  CacheLevel cache{tiny_config()};
  EXPECT_FALSE(cache.contains(0x1000));
  EXPECT_EQ(cache.lookup(0x1000), nullptr);
  cache.insert(0x1000, line_of(1), false);
  EXPECT_TRUE(cache.contains(0x1000));
  ASSERT_NE(cache.lookup(0x1000), nullptr);
  EXPECT_EQ(cache.lookup(0x1000)->word(0), 1u);
}

TEST(CacheLevel, InsertOverwritesAndOrsDirty) {
  CacheLevel cache{tiny_config()};
  cache.insert(0x1000, line_of(1), true);
  cache.insert(0x1000, line_of(2), false);
  EXPECT_EQ(cache.lookup(0x1000)->word(0), 2u);
  // Still dirty: eviction must produce a victim.
  const auto victim = cache.invalidate(0x1000);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->data.word(0), 2u);
}

TEST(CacheLevel, LruEviction) {
  // 2-way, 4 sets. Same-set addresses differ by sets*64 bytes.
  CacheLevel cache{tiny_config()};
  const u64 stride = 4 * kLineBytes;
  cache.insert(0 * stride, line_of(10), false);
  cache.insert(1 * stride, line_of(11), false);
  (void)cache.lookup(0 * stride);  // refresh line 0 -> line 1 becomes LRU
  cache.insert(2 * stride, line_of(12), false);
  EXPECT_TRUE(cache.contains(0 * stride));
  EXPECT_FALSE(cache.contains(1 * stride));
  EXPECT_TRUE(cache.contains(2 * stride));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().dirty_evictions, 0u);
}

TEST(CacheLevel, DirtyEvictionReturnsVictim) {
  CacheLevel cache{tiny_config()};
  const u64 stride = 4 * kLineBytes;
  cache.insert(0 * stride, line_of(10), true);
  cache.insert(1 * stride, line_of(11), false);
  const auto victim = cache.insert(2 * stride, line_of(12), false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 0u * stride);
  EXPECT_EQ(victim->data.word(0), 10u);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(CacheLevel, CleanEvictionIsSilent) {
  CacheLevel cache{tiny_config()};
  const u64 stride = 4 * kLineBytes;
  cache.insert(0 * stride, line_of(10), false);
  cache.insert(1 * stride, line_of(11), false);
  EXPECT_FALSE(cache.insert(2 * stride, line_of(12), false).has_value());
}

TEST(CacheLevel, MarkDirty) {
  CacheLevel cache{tiny_config()};
  EXPECT_FALSE(cache.mark_dirty(0x40));
  cache.insert(0x40, line_of(5), false);
  EXPECT_TRUE(cache.mark_dirty(0x40));
  const auto victim = cache.invalidate(0x40);
  EXPECT_TRUE(victim.has_value());
}

TEST(CacheLevel, InvalidateCleanReturnsNothing) {
  CacheLevel cache{tiny_config()};
  cache.insert(0x40, line_of(5), false);
  EXPECT_FALSE(cache.invalidate(0x40).has_value());
  EXPECT_FALSE(cache.contains(0x40));
}

TEST(CacheLevel, FlushCollectsOnlyDirty) {
  CacheLevel cache{tiny_config()};
  cache.insert(0x40, line_of(1), true);
  cache.insert(0x80, line_of(2), false);
  cache.insert(0xC0, line_of(3), true);
  std::vector<Victim> out;
  cache.flush(out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(cache.resident_lines(), 0u);
}

TEST(CacheLevel, ResidentLinesCounts) {
  CacheLevel cache{tiny_config()};
  EXPECT_EQ(cache.resident_lines(), 0u);
  cache.insert(0x40, line_of(1), false);
  cache.insert(0x80, line_of(2), false);
  EXPECT_EQ(cache.resident_lines(), 2u);
}

TEST(CacheStats, HitRate) {
  CacheStats s;
  EXPECT_EQ(s.hit_rate(), 0.0);
  s.hits = 3;
  s.misses = 1;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.75);
}

TEST(CacheLevel, CapacityNeverExceeded) {
  CacheLevel cache{tiny_config(8, 2)};
  for (u64 i = 0; i < 100; ++i) {
    cache.insert(i * kLineBytes, line_of(i), i % 2 == 0);
  }
  EXPECT_LE(cache.resident_lines(), 8u);
}

}  // namespace
}  // namespace nvmenc
