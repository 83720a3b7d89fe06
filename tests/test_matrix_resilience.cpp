#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "runner/parallel_runner.hpp"

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

WorkloadProfile small_profile(const char* name) {
  WorkloadProfile p = profile_by_name(name);
  p.working_set_lines = 256;
  return p;
}

void expect_cell_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.stats.writebacks, b.stats.writebacks);
  EXPECT_EQ(a.stats.flips.data, b.stats.flips.data);
  EXPECT_EQ(a.stats.flips.tag, b.stats.flips.tag);
  EXPECT_EQ(a.stats.flips.flag, b.stats.flips.flag);
  EXPECT_EQ(a.stats.flips.sets, b.stats.flips.sets);
  EXPECT_EQ(a.stats.flips.resets, b.stats.flips.resets);
  EXPECT_DOUBLE_EQ(a.stats.energy.read_pj, b.stats.energy.read_pj);
  EXPECT_DOUBLE_EQ(a.stats.energy.write_pj, b.stats.energy.write_pj);
  EXPECT_EQ(a.device_flips, b.device_flips);
  const ResilienceStats& ra = a.stats.resilience;
  const ResilienceStats& rb = b.stats.resilience;
  EXPECT_EQ(ra.verified_writes, rb.verified_writes);
  EXPECT_EQ(ra.write_retries, rb.write_retries);
  EXPECT_EQ(ra.retry_exhaustions, rb.retry_exhaustions);
  EXPECT_EQ(ra.safer_remaps, rb.safer_remaps);
  EXPECT_EQ(ra.line_retirements, rb.line_retirements);
  EXPECT_EQ(ra.sdc_detected, rb.sdc_detected);
  EXPECT_EQ(ra.meta_corrected, rb.meta_corrected);
  EXPECT_EQ(ra.check_flips, rb.check_flips);
}

TEST(MatrixResilience, PoisonedBenchmarkFailsAloneAndIsReported) {
  // The crash-proof property: one cell's exception must not sink the
  // matrix. The "__throw__" profile detonates in the collect phase.
  const std::vector<WorkloadProfile> profiles{small_profile("gcc"),
                                              profile_by_name("__throw__")};
  const std::vector<Scheme> schemes{Scheme::kDcw, Scheme::kFnw};
  std::ostringstream progress;
  const ExperimentMatrix m =
      run_experiment(profiles, schemes, small_config(2), &progress);

  EXPECT_EQ(m.failed_cells(), 2u);
  EXPECT_EQ(m.total_cells(), 4u);
  EXPECT_TRUE(m.cell_ok(0, 0));
  EXPECT_TRUE(m.cell_ok(0, 1));
  EXPECT_FALSE(m.cell_ok(1, 0));
  EXPECT_FALSE(m.cell_ok(1, 1));
  EXPECT_GT(m.at(0, 0).stats.writebacks, 0u);  // healthy row completed

  const ReplayResult* failure = m.first_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->benchmark, "__throw__");
  EXPECT_EQ(failure->error->phase, "collect");
  EXPECT_NE(failure->error->message.find("poisoned"), std::string::npos);

  // Satellite: the runner summary line surfaces the first cell failure.
  const std::string text = progress.str();
  EXPECT_NE(text.find("2 failed"), std::string::npos);
  EXPECT_NE(text.find("collect: "), std::string::npos);
  EXPECT_NE(text.find("poisoned"), std::string::npos);

  // Normalized tables degrade to "n/a" rows instead of throwing.
  const TextTable table = m.normalized_table(metric_total_flips(),
                                             Scheme::kDcw);
  std::ostringstream rendered;
  table.print(rendered);
  EXPECT_NE(rendered.str().find("n/a"), std::string::npos);
  EXPECT_FALSE(std::isnan(m.average_ratio(Scheme::kFnw, Scheme::kDcw,
                                          metric_total_flips())));
}

TEST(MatrixResilience, ReplayPhaseExceptionIsRecordedPerCell) {
  // A write-fail rate above 1 fails the fault injector's validation inside
  // replay — but only for device-backed schemes; the paper-model cell (no
  // device, no injector) survives.
  const std::vector<WorkloadProfile> profiles{small_profile("gcc")};
  const std::vector<Scheme> schemes{Scheme::kDcw, Scheme::kReadSaePaper};
  ExperimentConfig cfg = small_config(1);
  cfg.fault.inject.write_fail_rate = 2.0;
  const ExperimentMatrix m = run_experiment(profiles, schemes, cfg);

  EXPECT_EQ(m.failed_cells(), 1u);
  EXPECT_FALSE(m.cell_ok(0, 0));
  EXPECT_TRUE(m.cell_ok(0, 1));
  const ReplayResult* failure = m.first_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->error->phase, "replay");
  EXPECT_NE(failure->error->message.find("fault rates"), std::string::npos);
}

TEST(MatrixResilience, RetryLimitPastTheBoundFailsBeforeCollecting) {
  // A retry limit past kMaxRetryLimit, which no controller accepts, is
  // refused before any benchmark is collected, paper-model cells (no
  // controller) included, instead of failing every hardware cell after the
  // whole collection.
  const std::vector<WorkloadProfile> profiles{small_profile("gcc")};
  const std::vector<Scheme> schemes{Scheme::kDcw, Scheme::kReadSaePaper};
  ExperimentConfig cfg = small_config(1);
  cfg.fault.inject.write_fail_rate = 1e-4;
  cfg.fault.retry_limit = kMaxRetryLimit + 1;
  std::ostringstream progress;
  try {
    (void)run_experiment(profiles, schemes, cfg, &progress);
    FAIL() << "a retry limit past the bound was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry limit 17"), std::string::npos) << what;
  }
  EXPECT_EQ(progress.str(), "");  // nothing was collected
  cfg.fault.retry_limit = kMaxRetryLimit;
  EXPECT_EQ(run_experiment(profiles, schemes, cfg).failed_cells(), 0u);
}

TEST(MatrixResilience, SeededFaultSweepIsBitIdenticalAcrossJobs) {
  // The second acceptance property: a fault-injected matrix, resilience
  // counters included, must not depend on the worker count.
  const std::vector<WorkloadProfile> profiles{
      small_profile("gcc"), small_profile("sjeng"), small_profile("milc")};
  const std::vector<Scheme> schemes{Scheme::kDcw, Scheme::kReadSae};

  auto fault_config = [](usize jobs) {
    ExperimentConfig c = small_config(jobs);
    c.fault.inject.write_fail_rate = 1e-3;
    c.fault.inject.read_disturb_rate = 1e-4;
    c.fault.inject.stuck_rate = 1e-4;
    c.fault.inject.seed = 1234;
    c.fault.retry_limit = 4;
    c.fault.protect_meta = true;
    return c;
  };
  const ExperimentMatrix serial =
      run_experiment(profiles, schemes, fault_config(1));
  const ExperimentMatrix parallel =
      run_experiment(profiles, schemes, fault_config(4));

  bool any_faults = false;
  for (usize b = 0; b < profiles.size(); ++b) {
    for (usize s = 0; s < schemes.size(); ++s) {
      ASSERT_TRUE(serial.cell_ok(b, s));
      expect_cell_identical(serial.at(b, s), parallel.at(b, s));
      const ResilienceStats& r = serial.at(b, s).stats.resilience;
      if (r.write_retries > 0) any_faults = true;
      EXPECT_EQ(r.verified_writes, serial.at(b, s).stats.writebacks);
    }
  }
  EXPECT_TRUE(any_faults);  // the sweep actually exercised the fault path
}

TEST(MatrixResilience, PerCellFaultStreamsAreDecorrelated) {
  // Two cells of the same scheme must draw different fault streams (the
  // per-cell salt), visible as different retry counts with high rates.
  const std::vector<WorkloadProfile> profiles{small_profile("gcc"),
                                              small_profile("sjeng")};
  ExperimentConfig cfg = small_config(1);
  cfg.fault.inject.write_fail_rate = 0.05;
  const ExperimentMatrix m = run_experiment(profiles, {Scheme::kDcw}, cfg);
  EXPECT_NE(m.at(0, 0).stats.resilience.write_retries,
            m.at(1, 0).stats.resilience.write_retries);
}

}  // namespace
}  // namespace nvmenc
