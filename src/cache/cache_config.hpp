// Cache hierarchy configuration.
//
// Mirrors Table 2 of the paper: private 32 KB/2-way L1, private 1 MB/8-way
// L2, shared 16 MB/16-way L3, 64-byte lines. A "scaled" configuration with
// the same shape but smaller capacities is provided so the benchmark
// binaries reach steady-state eviction traffic in seconds instead of hours;
// the encoders only see the write-back stream, whose statistics are set by
// the workload model, not by absolute cache size (DESIGN.md §2).
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace nvmenc {

struct CacheConfig {
  std::string name;
  usize size_bytes = 0;
  usize ways = 1;

  [[nodiscard]] usize lines() const noexcept { return size_bytes / kLineBytes; }
  [[nodiscard]] usize sets() const noexcept { return lines() / ways; }

  void validate() const {
    require(!name.empty(), "cache level needs a name");
    require(size_bytes % kLineBytes == 0, "cache size must be line-aligned");
    require(ways >= 1, "cache needs at least one way");
    require(lines() % ways == 0, "cache lines must divide evenly into ways");
    require(sets() >= 1, "cache needs at least one set");
  }
};

/// The paper's Table 2 hierarchy (single-core slice: one private L1/L2 plus
/// the shared L3).
[[nodiscard]] inline std::vector<CacheConfig> table2_hierarchy() {
  return {
      {.name = "L1D", .size_bytes = 32 * 1024, .ways = 2},
      {.name = "L2", .size_bytes = 1024 * 1024, .ways = 8},
      {.name = "L3", .size_bytes = 16 * 1024 * 1024, .ways = 16},
  };
}

/// Same shape, 1/64 capacity: used by the figure-regeneration benches.
[[nodiscard]] inline std::vector<CacheConfig> scaled_hierarchy() {
  return {
      {.name = "L1D", .size_bytes = 4 * 1024, .ways = 2},
      {.name = "L2", .size_bytes = 16 * 1024, .ways = 8},
      {.name = "L3", .size_bytes = 256 * 1024, .ways = 16},
  };
}

}  // namespace nvmenc
