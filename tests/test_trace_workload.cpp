#include "trace/trace_workload.hpp"

#include <unordered_map>

#include <gtest/gtest.h>

#include "sim/collector.hpp"
#include "sim/replay.hpp"
#include "trace/mixed.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

TEST(TraceWorkload, RejectsEmptyTrace) {
  EXPECT_THROW(TraceWorkload{{}}, std::invalid_argument);
}

TEST(TraceWorkload, ReplaysInOrderAndWraps) {
  const std::vector<MemAccess> trace{{0x40, Op::kWrite, 1},
                                     {0x80, Op::kRead, 0},
                                     {0xC0, Op::kWrite, 2}};
  TraceWorkload wl{trace, "unit"};
  EXPECT_EQ(wl.name(), "unit");
  EXPECT_EQ(wl.size(), 3u);
  for (int lap = 0; lap < 3; ++lap) {
    for (const MemAccess& want : trace) {
      EXPECT_EQ(wl.next(), want);
    }
  }
  EXPECT_EQ(wl.initial_line(0x40), CacheLine{});  // cold memory
}

TEST(TraceWorkload, DrivesTheFullSimulator) {
  // Capture a synthetic stream and run it from the trace adapter through
  // collect -> replay, draining the caches as `nvmenc replay` does.
  WorkloadProfile p = profile_by_name("gcc");
  p.working_set_lines = 256;
  SyntheticWorkload source{p, 5};
  std::vector<MemAccess> accesses;
  for (int i = 0; i < 20000; ++i) accesses.push_back(source.next());

  CollectorConfig config;
  config.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  config.warmup_accesses = 0;
  config.measured_accesses = accesses.size();
  config.drain = true;
  TraceWorkload workload{accesses};
  const WritebackTrace trace = collect_writebacks(workload, config);
  EXPECT_GT(replay_scheme(trace, Scheme::kReadSae).stats.writebacks, 100u);
  // Drained, the write-backs leave memory holding the program-order image
  // of every written line (cold memory starts all-zero).
  std::unordered_map<u64, CacheLine> program;
  for (const MemAccess& a : accesses) {
    if (a.op == Op::kWrite) {
      program[a.line_addr()].set_word(a.word_index(), a.value);
    }
  }
  std::unordered_map<u64, CacheLine> memory;
  for (const WriteBack& wb : trace.measured) memory[wb.line_addr] = wb.data;
  for (const auto& [addr, want] : program) {
    EXPECT_EQ(memory[addr], want) << addr;
  }
}

TEST(Collector, RecordRequestsCapturesInterleavedOrder) {
  WorkloadProfile p = profile_by_name("milc");
  p.working_set_lines = 128;
  SyntheticWorkload wl{p, 7};
  CollectorConfig cfg;
  cfg.caches = {{.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2}};
  cfg.warmup_accesses = 500;
  cfg.measured_accesses = 5000;
  cfg.record_requests = true;
  const WritebackTrace trace = collect_writebacks(wl, cfg);
  EXPECT_FALSE(trace.requests.empty());
  usize reads = 0;
  usize writes = 0;
  for (const MemRequest& r : trace.requests) {
    (r.is_write ? writes : reads) += 1;
  }
  EXPECT_EQ(reads, trace.demand_reads);
  EXPECT_EQ(writes, trace.measured.size());
}

TEST(Collector, RequestsOffByDefault) {
  WorkloadProfile p = profile_by_name("milc");
  p.working_set_lines = 128;
  SyntheticWorkload wl{p, 7};
  CollectorConfig cfg;
  cfg.caches = {{.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2}};
  cfg.warmup_accesses = 100;
  cfg.measured_accesses = 1000;
  EXPECT_TRUE(collect_writebacks(wl, cfg).requests.empty());
}

TEST(MixedWorkload, RunsThroughSimulatorEndToEnd) {
  std::vector<std::unique_ptr<WorkloadGenerator>> cores;
  for (const char* name : {"gcc", "sjeng"}) {
    WorkloadProfile p = profile_by_name(name);
    p.working_set_lines = 128;
    cores.push_back(std::make_unique<SyntheticWorkload>(p, 3));
  }
  CollectorConfig config;
  config.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  config.warmup_accesses = 1000;
  config.measured_accesses = 20000;
  MixedWorkload workload{std::move(cores)};
  const ControllerStats stats =
      replay_scheme(collect_writebacks(workload, config), Scheme::kReadSae)
          .stats;
  EXPECT_GT(stats.writebacks, 100u);
  EXPECT_LT(stats.flips.total(), stats.writebacks * kLineBits);
}

}  // namespace
}  // namespace nvmenc
