// Integration tests: the multi-level hierarchy against a flat reference
// memory model. Whatever the fill/evict choreography does internally, a
// read must always return the last value written.
#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>
#include <unordered_map>

#include "common/rng.hpp"

namespace nvmenc {
namespace {

class MapBackend final : public LineBackend {
 public:
  CacheLine read_line(u64 line_addr) override {
    ++reads;
    const auto it = image.find(line_addr);
    return it != image.end() ? it->second : CacheLine{};
  }
  void write_line(u64 line_addr, const CacheLine& data) override {
    ++writes;
    image[line_addr] = data;
  }

  std::unordered_map<u64, CacheLine> image;
  u64 reads = 0;
  u64 writes = 0;
};

std::vector<CacheConfig> tiny_hierarchy() {
  return {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 16 * kLineBytes, .ways = 4},
      {.name = "L3", .size_bytes = 64 * kLineBytes, .ways = 8},
  };
}

TEST(Hierarchy, ReadMissFetchesFromBackend) {
  MapBackend backend;
  backend.image[0x1000] = CacheLine::filled(7);
  CacheHierarchy h{tiny_hierarchy(), backend};
  const u64 v = h.access({0x1000, Op::kRead, 0});
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(backend.reads, 1u);
  // Second access hits in L1: no further backend traffic.
  (void)h.access({0x1008, Op::kRead, 0});
  EXPECT_EQ(backend.reads, 1u);
}

TEST(Hierarchy, WriteThenReadSameWord) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  h.access({0x2000, Op::kWrite, 123});
  EXPECT_EQ(h.access({0x2000, Op::kRead, 0}), 123u);
}

TEST(Hierarchy, FlushWritesDirtyDataToBackend) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  h.access({0x2000, Op::kWrite, 123});
  h.access({0x2008, Op::kWrite, 456});
  h.flush();
  ASSERT_TRUE(backend.image.contains(0x2000));
  EXPECT_EQ(backend.image[0x2000].word(0), 123u);
  EXPECT_EQ(backend.image[0x2000].word(1), 456u);
}

TEST(Hierarchy, FlushLeavesCachesEmpty) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  for (u64 i = 0; i < 32; ++i) h.access({i * kLineBytes, Op::kWrite, i});
  h.flush();
  for (usize level = 0; level < h.levels(); ++level) {
    EXPECT_EQ(h.level(level).resident_lines(), 0u) << "level " << level;
  }
}

TEST(Hierarchy, FlushWritesEachDirtyLineOnce) {
  // Fills allocate in every level, so a dirty line has clean copies below
  // it. Flushing inner levels first folds each dirty line into the next
  // level's copy, and the backend sees every dirty line exactly once.
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  const u64 lines = 32;  // spills L1 and L2, fits L3 without evictions
  for (u64 i = 0; i < lines; ++i) h.access({i * kLineBytes, Op::kWrite, i});
  ASSERT_EQ(backend.writes, 0u);
  h.flush();
  EXPECT_EQ(backend.writes, lines);
  ASSERT_EQ(backend.image.size(), lines);
  for (u64 i = 0; i < lines; ++i) {
    EXPECT_EQ(backend.image[i * kLineBytes].word(0), i) << "line " << i;
  }
}

TEST(Hierarchy, SecondFlushWritesNothing) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  for (u64 i = 0; i < 32; ++i) h.access({i * kLineBytes, Op::kWrite, i});
  h.flush();
  const u64 after_first = backend.writes;
  h.flush();
  EXPECT_EQ(backend.writes, after_first);
}

TEST(Hierarchy, EvictionWritesBackDirtyLines) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  // Write far more distinct lines than total cache capacity (84 lines).
  for (u64 i = 0; i < 1000; ++i) {
    h.access({i * kLineBytes, Op::kWrite, i + 1});
  }
  EXPECT_GT(backend.writes, 0u);
}

TEST(Hierarchy, StatsAccumulate) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  h.access({0x0, Op::kRead, 0});
  h.access({0x0, Op::kRead, 0});
  EXPECT_EQ(h.level(0).stats().misses, 1u);
  EXPECT_EQ(h.level(0).stats().hits, 1u);
  EXPECT_EQ(h.accesses(), 2u);
}

// The load-bearing property: random traffic through the hierarchy returns
// exactly what a flat memory would.
TEST(Hierarchy, MatchesFlatReferenceModel) {
  MapBackend backend;
  CacheHierarchy h{tiny_hierarchy(), backend};
  std::unordered_map<u64, u64> reference;  // word addr -> value
  Xoshiro256 rng{2024};
  const usize kLines = 300;  // ~3.5x total cache capacity
  for (int i = 0; i < 60000; ++i) {
    const u64 line = rng.next_below(kLines) * kLineBytes;
    const u64 addr = line + rng.next_below(kWordsPerLine) * 8;
    if (rng.next_bool(0.5)) {
      const u64 value = rng.next();
      h.access({addr, Op::kWrite, value});
      reference[addr] = value;
    } else {
      const u64 got = h.access({addr, Op::kRead, 0});
      const auto it = reference.find(addr);
      const u64 want = it != reference.end() ? it->second : 0;
      ASSERT_EQ(got, want) << "addr " << addr << " iter " << i;
    }
  }
  // After a flush, the backend image must equal the reference exactly.
  h.flush();
  for (const auto& [addr, value] : reference) {
    const u64 line = addr & ~u64{kLineBytes - 1};
    ASSERT_TRUE(backend.image.contains(line));
    EXPECT_EQ(backend.image[line].word((addr / 8) % kWordsPerLine), value);
  }
}

TEST(Hierarchy, SingleLevelWorks) {
  MapBackend backend;
  CacheHierarchy h{{tiny_hierarchy()[0]}, backend};
  h.access({0x40, Op::kWrite, 9});
  EXPECT_EQ(h.access({0x40, Op::kRead, 0}), 9u);
  h.flush();
  EXPECT_EQ(backend.image[0x40].word(0), 9u);
}

TEST(Hierarchy, RequiresAtLeastOneLevel) {
  MapBackend backend;
  EXPECT_THROW(CacheHierarchy({}, backend), std::invalid_argument);
}

}  // namespace
}  // namespace nvmenc
