#include "memsys/trace_replay.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/table.hpp"
#include "memsys/open_loop.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/progress.hpp"

namespace nvmenc {

void TraceReplayConfig::validate() const {
  require(inter_arrival_ns > 0.0, "inter-arrival time must be positive");
  require(epoch_accesses >= 1, "epochs must hold at least one access");
}

namespace {

u64 capped_count(u64 trace_size, u64 max_accesses) {
  return max_accesses == 0 || max_accesses > trace_size ? trace_size
                                                        : max_accesses;
}

}  // namespace

TraceReplayResult replay_trace_sharded(const MappedTrace& trace,
                                       const TraceReplayConfig& replay,
                                       const MemSysConfig& mem, usize jobs) {
  return run_open_loop(trace, capped_count(trace.size(), replay.max_accesses),
                       replay, mem, jobs);
}

TraceReplayResult replay_trace_sharded(std::span<const MemAccess> trace,
                                       const TraceReplayConfig& replay,
                                       const MemSysConfig& mem, usize jobs) {
  return run_open_loop(trace, capped_count(trace.size(), replay.max_accesses),
                       replay, mem, jobs);
}

std::vector<ReplaySweepCell> replay_sweep(
    const std::string& trace_path, const std::vector<ReplaySweepCell>& cells,
    const TraceReplayConfig& replay, const MemSysConfig& base_mem,
    usize jobs, ProgressReporter* progress) {
  std::vector<ReplaySweepCell> out = cells;
  // One shared read-only mapping for every cell: the kernel page cache
  // backs all workers from the same physical pages, instead of each cell
  // opening and mapping the file again.
  const MappedTrace trace{trace_path};
  const auto pool = pool_for(std::min(resolve_jobs(jobs), out.size()));
  parallel_for(pool.get(), out.size(), [&](usize i) {
    MemSysConfig mem = base_mem;
    mem.org.encode_latency_ns = out[i].encode_latency_ns;
    out[i].result = replay_trace_sharded(trace, replay, mem, 1);
    if (progress != nullptr) {
      progress->job_done(out[i].label,
                         TextTable::fmt(out[i].result.stats.sustained_gbps(),
                                        3) +
                             " GB/s");
    }
  });
  return out;
}

}  // namespace nvmenc
