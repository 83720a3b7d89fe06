// collect -> replay against the online pipeline it replaced.
//
// tests/reference_simulator.hpp keeps the Simulator that ran workload ->
// caches -> controller -> device in one pass, one scheme at a time. Every
// functional run now collects the write-back stream once
// (collect_writebacks) and replays it per scheme (replay_scheme). For every
// hardware scheme, on shrunken SPEC stand-ins, a TraceWorkload and a
// MixedWorkload, with the warm-up window on and off and the end-of-run
// drain on and off, the two must agree:
//   - exactly on every counter, the five flip fields, the dirty-word
//     histogram, the device's flips, write_pj and logic_pj;
//   - within 1e-9 relative on read_pj and busy_ns, which the replay adds
//     for the demand reads in one step instead of interleaved with the
//     writes, so the double sums round in another order.
// NVMENC_FUZZ_WRITES, when set, is the measured window in CPU accesses
// (CI's sanitizer job runs 20000).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "reference_simulator.hpp"
#include "sim/collector.hpp"
#include "sim/replay.hpp"
#include "trace/mixed.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_workload.hpp"

namespace nvmenc {
namespace {

constexpr u64 kWarmup = 3'000;

u64 measured_accesses() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 15'000;
}

std::vector<CacheConfig> small_caches() {
  return {
      {.name = "L1", .size_bytes = 8 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 64 * kLineBytes, .ways = 4},
  };
}

std::unique_ptr<WorkloadGenerator> shrunken(const std::string& name,
                                            u64 seed) {
  WorkloadProfile p = profile_by_name(name);
  p.working_set_lines = 512;
  return std::make_unique<SyntheticWorkload>(p, seed);
}

/// Each source builds the same access stream afresh on every call: the
/// reference pipeline consumes one workload per scheme.
struct Source {
  std::string name;
  std::function<std::unique_ptr<WorkloadGenerator>()> make;
};

std::vector<Source> sources() {
  std::vector<Source> out;
  for (const char* name : {"gcc", "sjeng", "xalancbmk", "bwaves"}) {
    out.push_back({name, [name] { return shrunken(name, 31); }});
  }
  out.push_back({"trace", [] {
                   // A captured milc stream, replayed from the trace
                   // adapter (cold, all-zero initial memory).
                   const std::unique_ptr<WorkloadGenerator> capture =
                       shrunken("milc", 37);
                   std::vector<MemAccess> accesses;
                   const u64 n = kWarmup + measured_accesses();
                   for (u64 i = 0; i < n; ++i) {
                     accesses.push_back(capture->next());
                   }
                   return std::make_unique<TraceWorkload>(
                       std::move(accesses), "milc-trace");
                 }});
  out.push_back({"mixed", [] {
                   std::vector<std::unique_ptr<WorkloadGenerator>> cores;
                   cores.push_back(shrunken("gcc", 41));
                   cores.push_back(shrunken("omnetpp", 43));
                   return std::make_unique<MixedWorkload>(std::move(cores));
                 }});
  return out;
}

void expect_near_rel(double got, double want, const std::string& what) {
  const double scale = std::max(std::abs(want), 1.0);
  EXPECT_LE(std::abs(got - want), 1e-9 * scale)
      << what << ": " << got << " vs " << want;
}

void expect_same(const ReplayResult& got, const ControllerStats& want,
                 u64 want_device_flips, const std::string& what) {
  const ControllerStats& g = got.stats;
  EXPECT_EQ(g.writebacks, want.writebacks) << what;
  EXPECT_EQ(g.silent_writebacks, want.silent_writebacks) << what;
  EXPECT_EQ(g.demand_reads, want.demand_reads) << what;
  EXPECT_EQ(g.flips.data, want.flips.data) << what;
  EXPECT_EQ(g.flips.tag, want.flips.tag) << what;
  EXPECT_EQ(g.flips.flag, want.flips.flag) << what;
  EXPECT_EQ(g.flips.sets, want.flips.sets) << what;
  EXPECT_EQ(g.flips.resets, want.flips.resets) << what;
  for (usize k = 0; k <= kWordsPerLine; ++k) {
    EXPECT_EQ(g.dirty_words.count(k), want.dirty_words.count(k))
        << what << ": dirty-word bucket " << k;
  }
  EXPECT_EQ(g.dirty_words.overflow(), want.dirty_words.overflow()) << what;
  EXPECT_EQ(got.device_flips, want_device_flips) << what;
  EXPECT_EQ(g.energy.write_pj, want.energy.write_pj) << what;
  EXPECT_EQ(g.energy.logic_pj, want.energy.logic_pj) << what;
  expect_near_rel(g.energy.read_pj, want.energy.read_pj, what + " read_pj");
  expect_near_rel(g.energy.busy_ns, want.energy.busy_ns, what + " busy_ns");
}

/// (source, warm-up on, drain on)
class PipelineDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(PipelineDifferential, CollectThenReplayMatchesTheOnlinePipeline) {
  const auto [src, warm, drain] = GetParam();
  const Source source = sources()[static_cast<usize>(src)];
  const u64 warmup = warm ? kWarmup : 0;
  const u64 measured = measured_accesses();

  CollectorConfig cc;
  cc.caches = small_caches();
  cc.warmup_accesses = warmup;
  cc.measured_accesses = measured;
  cc.drain = drain;
  const std::unique_ptr<WorkloadGenerator> workload = source.make();
  const WritebackTrace trace = collect_writebacks(*workload, cc);
  ASSERT_GT(trace.measured.size(), 100u) << source.name;

  testutil::SimConfig sc;
  sc.caches = small_caches();
  sc.warmup_accesses = warmup;
  for (Scheme scheme : all_schemes()) {
    if (is_paper_model(scheme)) continue;
    testutil::Simulator sim{sc, source.make(), scheme};
    if (warm) sim.warmup();
    const u64 flips_before = sim.device().total_flips();
    sim.run(measured);
    if (drain) sim.drain();
    expect_same(replay_scheme(trace, scheme), sim.stats(),
                sim.device().total_flips() - flips_before,
                source.name + " " + scheme_name(scheme));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SourcesWarmupDrain, PipelineDifferential,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>&
           param_info) {
      std::string name =
          sources()[static_cast<usize>(std::get<0>(param_info.param))].name;
      name += std::get<1>(param_info.param) ? "_warm" : "_cold";
      name += std::get<2>(param_info.param) ? "_drained" : "_steady";
      return name;
    });

}  // namespace
}  // namespace nvmenc
