// Open-loop trace replay (memsys/trace_replay.hpp): determinism, the
// text/binary round trip, and the sweep's jobs-independence.
//
// The replay path promises bit-identical statistics for a (trace, config)
// pair — across repeated runs, across --jobs values, and across the
// format the trace arrived in. These tests hold it to that with the
// defaulted operator== on TraceReplayResult, which compares every counter
// and every histogram bucket.
#include "memsys/trace_replay.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "trace/synthetic.hpp"
#include "trace/text_trace.hpp"
#include "trace/trace_io.hpp"

namespace nvmenc {
namespace {

/// Per-process temp path: ctest runs each test case as its own process,
/// concurrently under -jN, and the fixture rewrites its trace in SetUp —
/// a shared fixed name would race across cases.
std::string temp_path(const std::string& name) {
  const std::string unique = name + "." + std::to_string(::getpid());
  return (std::filesystem::temp_directory_path() / unique).string();
}

/// A short synthetic access stream with both ops and some line reuse.
std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> accesses;
  accesses.reserve(n);
  for (usize i = 0; i < n; ++i) accesses.push_back(workload.next());
  return accesses;
}

class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = make_stream(99, 4000);
    bin_path_ = temp_path("nvmenc_replay_test.bin");
    write_trace(bin_path_, stream_);
  }
  void TearDown() override { std::remove(bin_path_.c_str()); }

  std::vector<MemAccess> stream_;
  std::string bin_path_;
};

TEST_F(TraceReplayTest, RepeatedRunsAreBitIdentical) {
  const MappedTrace trace{bin_path_};
  const TraceReplayConfig replay;
  const MemSysConfig mem;
  const TraceReplayResult a = replay_trace_sharded(trace, replay, mem, 1);
  const TraceReplayResult b = replay_trace_sharded(trace, replay, mem, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.accesses, stream_.size());
  EXPECT_GT(a.stats.reads + a.stats.writes, 0u);
  EXPECT_GT(a.makespan_ns, 0.0);
}

TEST_F(TraceReplayTest, BinaryAndTextArrivalsReplayIdentically) {
  // The same accesses through the mmap path and the in-memory span path:
  // the format a trace arrived in must not change a single statistic.
  const std::string text_path = temp_path("nvmenc_replay_test.txt");
  write_text_trace(text_path, stream_);
  const std::vector<MemAccess> reread = read_text_trace(text_path);
  std::remove(text_path.c_str());
  ASSERT_EQ(reread, stream_);  // access-for-access round trip

  const TraceReplayConfig replay;
  const MemSysConfig mem;
  const MappedTrace trace{bin_path_};
  const TraceReplayResult from_binary =
      replay_trace_sharded(trace, replay, mem, 1);
  const TraceReplayResult from_text =
      replay_trace_sharded(reread, replay, mem, 1);
  EXPECT_EQ(from_binary, from_text);
}

TEST_F(TraceReplayTest, MaxAccessesCapsTheReplay) {
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.max_accesses = 100;
  const MemSysConfig mem;
  const TraceReplayResult r = replay_trace_sharded(trace, replay, mem, 1);
  EXPECT_EQ(r.accesses, 100u);
  EXPECT_EQ(r.stats.reads + r.stats.writes, 100u);
}

TEST_F(TraceReplayTest, ValidateRejectsNonPositiveArrivalSpacing) {
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 0.0;
  EXPECT_THROW(replay.validate(), std::invalid_argument);
  replay.inter_arrival_ns = -1.0;
  EXPECT_THROW(replay.validate(), std::invalid_argument);
}

TEST_F(TraceReplayTest, SweepIsJobsIndependent) {
  // Four encode-latency cells, serial vs fanned out: the sweep's promise
  // is that parallelism lives entirely outside the simulation, so the
  // results must be equal element by element.
  std::vector<ReplaySweepCell> cells(4);
  cells[0] = {"none", 0.0, {}};
  cells[1] = {"paper", 3.47, {}};
  cells[2] = {"slow", 40.0, {}};
  cells[3] = {"saturating", 400.0, {}};
  const TraceReplayConfig replay;
  const MemSysConfig mem;
  const std::vector<ReplaySweepCell> serial =
      replay_sweep(bin_path_, cells, replay, mem, 1);
  const std::vector<ReplaySweepCell> fanned =
      replay_sweep(bin_path_, cells, replay, mem, 4);
  ASSERT_EQ(serial.size(), fanned.size());
  for (usize i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, fanned[i].label);
    EXPECT_EQ(serial[i].result, fanned[i].result) << serial[i].label;
  }
  // Encode latency must actually bite: a 400 ns encoder cannot finish as
  // early as a free one under the same offered load.
  EXPECT_GE(serial[3].result.makespan_ns, serial[0].result.makespan_ns);
}

TEST_F(TraceReplayTest, OpenLoopIgnoresBackpressure) {
  // Closed-loop arrival times depend on completions; open-loop ones do
  // not. Submitting at 1 ns spacing against 100 ns array reads must park
  // arrivals and grow the read tail — visible as write stalls or a p99
  // far above the unloaded service time.
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.inter_arrival_ns = 1.0;
  const MemSysConfig mem;
  const TraceReplayResult hot = replay_trace_sharded(trace, replay, mem, 1);
  replay.inter_arrival_ns = 1000.0;
  const TraceReplayResult cold = replay_trace_sharded(trace, replay, mem, 1);
  EXPECT_GT(hot.stats.read_latency_ns.p99(),
            cold.stats.read_latency_ns.p99());
}

}  // namespace
}  // namespace nvmenc
