#include "runner/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace nvmenc {
namespace {

ExperimentConfig small_config(usize jobs) {
  ExperimentConfig c;
  c.collector.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  c.collector.warmup_accesses = 2000;
  c.collector.measured_accesses = 12000;
  c.jobs = jobs;
  return c;
}

std::vector<WorkloadProfile> three_profiles() {
  std::vector<WorkloadProfile> profiles;
  for (const char* name : {"gcc", "bwaves", "sjeng"}) {
    WorkloadProfile p = profile_by_name(name);
    p.working_set_lines = 256;
    profiles.push_back(p);
  }
  return profiles;
}

std::vector<Scheme> four_schemes() {
  return {Scheme::kDcw, Scheme::kFnw, Scheme::kReadSae,
          Scheme::kReadSaePaper};
}

void expect_cell_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.stats.writebacks, b.stats.writebacks);
  EXPECT_EQ(a.stats.silent_writebacks, b.stats.silent_writebacks);
  EXPECT_EQ(a.stats.demand_reads, b.stats.demand_reads);
  EXPECT_EQ(a.stats.flips.data, b.stats.flips.data);
  EXPECT_EQ(a.stats.flips.tag, b.stats.flips.tag);
  EXPECT_EQ(a.stats.flips.flag, b.stats.flips.flag);
  EXPECT_EQ(a.stats.flips.sets, b.stats.flips.sets);
  EXPECT_EQ(a.stats.flips.resets, b.stats.flips.resets);
  EXPECT_DOUBLE_EQ(a.stats.energy.read_pj, b.stats.energy.read_pj);
  EXPECT_DOUBLE_EQ(a.stats.energy.write_pj, b.stats.energy.write_pj);
  EXPECT_DOUBLE_EQ(a.stats.energy.logic_pj, b.stats.energy.logic_pj);
  EXPECT_EQ(a.meta_bits, b.meta_bits);
  EXPECT_EQ(a.device_flips, b.device_flips);
}

TEST(ParallelRunner, SerialAndParallelMatricesAreBitIdentical) {
  // The acceptance property of the whole subsystem: jobs=1 (plain nested
  // loops, no pool) and jobs=8 produce the same matrix cell-for-cell.
  const std::vector<WorkloadProfile> profiles = three_profiles();
  const std::vector<Scheme> schemes = four_schemes();
  const ExperimentMatrix serial =
      run_experiment(profiles, schemes, small_config(1));
  const ExperimentMatrix parallel =
      run_experiment(profiles, schemes, small_config(8));
  ASSERT_EQ(serial.benchmarks(), parallel.benchmarks());
  ASSERT_EQ(serial.schemes(), parallel.schemes());
  for (usize b = 0; b < profiles.size(); ++b) {
    for (usize s = 0; s < schemes.size(); ++s) {
      expect_cell_identical(serial.at(b, s), parallel.at(b, s));
    }
  }
}

TEST(ParallelRunner, AutoJobsMatchesSerial) {
  const std::vector<WorkloadProfile> profiles = three_profiles();
  const std::vector<Scheme> schemes = {Scheme::kDcw, Scheme::kReadSae};
  const ExperimentMatrix serial =
      run_experiment(profiles, schemes, small_config(1));
  const ExperimentMatrix automatic =
      run_experiment(profiles, schemes, small_config(0));
  for (usize b = 0; b < profiles.size(); ++b) {
    for (usize s = 0; s < schemes.size(); ++s) {
      expect_cell_identical(serial.at(b, s), automatic.at(b, s));
    }
  }
}

TEST(ParallelRunner, DuplicateProfilesGetDecorrelatedSeeds) {
  // Two copies of the same profile must produce independent traces: the
  // collector seed is a splitmix64 child of (seed, benchmark index), not
  // the shared experiment seed.
  WorkloadProfile gcc = profile_by_name("gcc");
  gcc.working_set_lines = 256;
  const ExperimentMatrix m = run_experiment(
      {gcc, gcc}, {Scheme::kDcw}, small_config(2));
  EXPECT_NE(m.at(0, 0).stats.flips.total(), m.at(1, 0).stats.flips.total());
}

TEST(ParallelRunner, ProgressReportsEveryBenchmarkAndSummary) {
  std::ostringstream progress;
  (void)run_experiment(three_profiles(), {Scheme::kDcw}, small_config(4),
                       &progress);
  const std::string text = progress.str();
  EXPECT_NE(text.find("gcc"), std::string::npos);
  EXPECT_NE(text.find("bwaves"), std::string::npos);
  EXPECT_NE(text.find("sjeng"), std::string::npos);
  EXPECT_NE(text.find("write-backs"), std::string::npos);
  EXPECT_NE(text.find("[runner] 3x1 cells, jobs=4"), std::string::npos);
}

TEST(ParallelRunner, RunnerClassResolvesJobs) {
  EXPECT_EQ(resolve_jobs(5), 5u);
  EXPECT_GE(resolve_jobs(0), 1u);
}

}  // namespace
}  // namespace nvmenc
