// Write-back trace collection: the first half of the functional pipeline
// (workload -> caches -> write-back stream; replay.hpp is the second).
//
// The cache hierarchy's behaviour is independent of the NVM encoding
// scheme (encoders change the stored representation, not the logical
// contents), so the expensive part of an experiment — running the workload
// through the caches — is done once per benchmark. The resulting
// WritebackTrace is then replayed through each scheme's controller
// (replay.hpp), guaranteeing every scheme sees the identical write-back
// stream, exactly as the paper's single-simulation methodology does. All
// functional runs go this way: the matrix and paper_claims, `nvmenc run`,
// the functional `nvmenc replay` and the examples.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "trace/workload.hpp"

namespace nvmenc {

/// One memory-controller request in program order (for timing studies).
struct MemRequest {
  u64 line_addr = 0;
  bool is_write = false;
};

struct WritebackTrace {
  std::string benchmark;
  /// Write-backs issued during warm-up: replay applies them to reach
  /// steady-state stored/tag state but excludes them from statistics.
  std::vector<WriteBack> warmup;
  /// Write-backs of the measured window.
  std::vector<WriteBack> measured;
  /// Demand line fetches during the measured window (their read energy is
  /// identical across schemes but part of the totals, Section 4.2.2).
  u64 demand_reads = 0;
  /// Interleaved request order of the measured window (reads and
  /// write-backs), populated when CollectorConfig::record_requests is
  /// set. Drives run_request_stream (memsys/loadgen.hpp).
  std::vector<MemRequest> requests;
  /// Pristine contents of any line. Forwards to the workload that produced
  /// the trace, which must outlive it.
  std::function<CacheLine(u64)> initial_line;
};

struct CollectorConfig {
  std::vector<CacheConfig> caches = scaled_hierarchy();
  u64 warmup_accesses = 200'000;
  u64 measured_accesses = 1'000'000;
  /// Also capture the interleaved request stream (timing studies).
  bool record_requests = false;
  /// Flush the caches at the end, into the measured window, so every
  /// written word reaches memory (`nvmenc replay`). Off, only steady-state
  /// evictions are measured, as the paper's figures are.
  bool drain = false;
};

/// Runs `workload` through the hierarchy and captures the write-back
/// stream. The trace's `initial_line` reads through `workload`, so the
/// workload must outlive the trace.
[[nodiscard]] WritebackTrace collect_writebacks(WorkloadGenerator& workload,
                                                const CollectorConfig& config);

}  // namespace nvmenc
