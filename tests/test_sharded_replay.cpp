// The open-loop engine vs the serial MemorySystem loop it replaced: the
// determinism contract. replay_trace_sharded promises results — every
// counter, every histogram bucket, every float — bit-identical to the
// reference replay (tests/reference_replay.hpp) for every --jobs value and
// every epoch length, plus byte-identical rendered tables (the output the
// user actually sees).
#include "memsys/trace_replay.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "memsys/report.hpp"
#include "reference_replay.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

namespace nvmenc {
namespace {

std::string temp_path(const std::string& name) {
  const std::string unique = name + "." + std::to_string(::getpid());
  return (std::filesystem::temp_directory_path() / unique).string();
}

std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> accesses;
  accesses.reserve(n);
  for (usize i = 0; i < n; ++i) accesses.push_back(workload.next());
  return accesses;
}

std::string render(const TraceReplayConfig& replay,
                   const TraceReplayResult& r) {
  std::ostringstream out;
  replay_table("trace", 3.47, replay, r).print(out);
  return out.str();
}

class ShardedReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = make_stream(7, 6000);
    bin_path_ = temp_path("nvmenc_sharded_replay.bin");
    write_trace(bin_path_, stream_);
    mem_.org.channels = 4;
    mem_.org.encode_latency_ns = 3.47;
  }
  void TearDown() override { std::remove(bin_path_.c_str()); }

  std::vector<MemAccess> stream_;
  std::string bin_path_;
  MemSysConfig mem_;
};

TEST_F(ShardedReplayTest, MatchesSerialEngineAtEveryJobsCount) {
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.epoch_accesses = 1000;  // several barriers over 6000 accesses
  const TraceReplayResult serial =
      testutil::replay_trace(trace, replay, mem_);
  for (usize jobs : {usize{1}, usize{2}, usize{4}}) {
    const TraceReplayResult sharded =
        replay_trace_sharded(trace, replay, mem_, jobs);
    EXPECT_EQ(serial, sharded) << "jobs=" << jobs;
    // Byte-identical rendered tables: the user-visible contract.
    EXPECT_EQ(render(replay, serial), render(replay, sharded))
        << "jobs=" << jobs;
  }
}

TEST_F(ShardedReplayTest, EpochLengthNeverChangesTheResult) {
  // Shards share nothing, so the barrier spacing is pure pacing: 64-access
  // epochs and one giant epoch must agree bit for bit.
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.epoch_accesses = 64;
  const TraceReplayResult fine = replay_trace_sharded(trace, replay, mem_, 4);
  replay.epoch_accesses = 1'000'000;
  const TraceReplayResult coarse =
      replay_trace_sharded(trace, replay, mem_, 4);
  EXPECT_EQ(fine, coarse);
}

TEST_F(ShardedReplayTest, SpanAndMappedSourcesAgree) {
  const MappedTrace trace{bin_path_};
  const TraceReplayConfig replay;
  const TraceReplayResult from_map =
      replay_trace_sharded(trace, replay, mem_, 2);
  const TraceReplayResult from_span =
      replay_trace_sharded(stream_, replay, mem_, 2);
  EXPECT_EQ(from_map, from_span);
}

TEST_F(ShardedReplayTest, SingleChannelDegeneratesToSerial) {
  const MappedTrace trace{bin_path_};
  const TraceReplayConfig replay;
  MemSysConfig one = mem_;
  one.org.channels = 1;
  EXPECT_EQ(testutil::replay_trace(trace, replay, one),
            replay_trace_sharded(trace, replay, one, 4));
}

TEST_F(ShardedReplayTest, MaxAccessesCapsBothEnginesAlike) {
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.max_accesses = 321;
  const TraceReplayResult serial =
      testutil::replay_trace(trace, replay, mem_);
  const TraceReplayResult sharded =
      replay_trace_sharded(trace, replay, mem_, 4);
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(sharded.accesses, 321u);
}

TEST_F(ShardedReplayTest, ChannelOfLineAgreesWithDecompose) {
  for (const MemAccess& a : stream_) {
    ASSERT_EQ(channel_of_line(mem_.org, a.line_addr()),
              decompose(mem_.org, a.line_addr()).channel);
  }
}

TEST_F(ShardedReplayTest, FaultInjectionStaysJobsInvariant) {
  // The RAS layer draws faults, scrubs in the background, and charges
  // recovery work to the banks — all of it keyed, none of it allowed to
  // break the bit-identical contract (tables included, RAS tables too).
  const MappedTrace trace{bin_path_};
  TraceReplayConfig replay;
  replay.epoch_accesses = 1000;
  mem_.ras.inject.write_fail_rate = 2e-3;
  mem_.ras.inject.read_disturb_rate = 1e-3;
  mem_.ras.inject.stuck_rate = 1e-4;
  mem_.ras.inject.seed = 9;
  mem_.ras.scrub_interval_ns = 2'000.0;
  const TraceReplayResult serial =
      testutil::replay_trace(trace, replay, mem_);
  EXPECT_TRUE(serial.ras.any());
  for (usize jobs : {usize{1}, usize{2}, usize{4}}) {
    const TraceReplayResult sharded =
        replay_trace_sharded(trace, replay, mem_, jobs);
    EXPECT_EQ(serial, sharded) << "jobs=" << jobs;
    EXPECT_EQ(render(replay, serial), render(replay, sharded))
        << "jobs=" << jobs;
    std::ostringstream a, b;
    ras_table(serial.ras).print(a);
    ras_table(sharded.ras).print(b);
    ras_events_table(serial.ras).print(a);
    ras_events_table(sharded.ras).print(b);
    EXPECT_EQ(a.str(), b.str()) << "jobs=" << jobs;
  }
}

TEST_F(ShardedReplayTest, RasOffLeavesTheReportEmpty) {
  const MappedTrace trace{bin_path_};
  const TraceReplayConfig replay;
  const TraceReplayResult r = replay_trace_sharded(trace, replay, mem_, 1);
  EXPECT_FALSE(r.ras.any());
  EXPECT_TRUE(r.ras.events.empty());
}

TEST_F(ShardedReplayTest, ValidateRejectsZeroEpoch) {
  TraceReplayConfig replay;
  replay.epoch_accesses = 0;
  EXPECT_THROW(replay.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace nvmenc
