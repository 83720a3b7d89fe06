// Crash-consistent checkpoint/resume of the experiment matrix.
//
// The headline guarantee: a matrix run killed with SIGKILL mid-flight and
// resumed produces a matrix BIT-IDENTICAL to an uninterrupted run — every
// counter, every double, every table — at any --jobs value. The kill is
// real (fork + raise(SIGKILL) from the checkpoint flush hook, no stack
// unwinding, no destructors), and the comparison is deep per-cell
// equality plus the printed figure tables.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "trace/profile.hpp"

namespace nvmenc {
namespace {

std::vector<WorkloadProfile> small_profiles() {
  std::vector<WorkloadProfile> profiles;
  for (const char* name : {"gcc", "milc"}) {
    WorkloadProfile p = profile_by_name(name);
    p.working_set_lines = 256;
    profiles.push_back(p);
  }
  return profiles;
}

std::vector<Scheme> small_schemes() {
  return {Scheme::kDcw, Scheme::kFnw, Scheme::kReadSae};
}

ExperimentConfig small_config(usize jobs) {
  ExperimentConfig cfg;
  cfg.jobs = jobs;
  cfg.collector.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  cfg.collector.warmup_accesses = 1000;
  cfg.collector.measured_accesses = 6000;
  return cfg;
}

/// A fresh scratch directory under the test tmpdir.
std::string scratch_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nvmenc_ckpt_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void expect_cell_equal(const ReplayResult& a, const ReplayResult& b,
                       const std::string& where) {
  EXPECT_EQ(a.benchmark, b.benchmark) << where;
  EXPECT_EQ(a.scheme, b.scheme) << where;
  EXPECT_EQ(a.meta_bits, b.meta_bits) << where;
  EXPECT_EQ(a.device_flips, b.device_flips) << where;
  ASSERT_EQ(a.error.has_value(), b.error.has_value()) << where;
  if (a.error) {
    EXPECT_EQ(a.error->phase, b.error->phase) << where;
    EXPECT_EQ(a.error->message, b.error->message) << where;
  }
  const ControllerStats& sa = a.stats;
  const ControllerStats& sb = b.stats;
  EXPECT_EQ(sa.demand_reads, sb.demand_reads) << where;
  EXPECT_EQ(sa.writebacks, sb.writebacks) << where;
  EXPECT_EQ(sa.silent_writebacks, sb.silent_writebacks) << where;
  EXPECT_EQ(sa.flips.data, sb.flips.data) << where;
  EXPECT_EQ(sa.flips.tag, sb.flips.tag) << where;
  EXPECT_EQ(sa.flips.flag, sb.flips.flag) << where;
  EXPECT_EQ(sa.flips.sets, sb.flips.sets) << where;
  EXPECT_EQ(sa.flips.resets, sb.flips.resets) << where;
  ASSERT_EQ(sa.dirty_words.max_value(), sb.dirty_words.max_value()) << where;
  for (usize v = 0; v <= sa.dirty_words.max_value(); ++v) {
    EXPECT_EQ(sa.dirty_words.count(v), sb.dirty_words.count(v))
        << where << " bucket " << v;
  }
  EXPECT_EQ(sa.dirty_words.overflow(), sb.dirty_words.overflow()) << where;
  EXPECT_EQ(sa.dirty_words.total(), sb.dirty_words.total()) << where;
  // Bit-identical, not approximately equal: resumed cells must be the
  // very doubles the uninterrupted run produces.
  EXPECT_EQ(sa.energy.read_pj, sb.energy.read_pj) << where;
  EXPECT_EQ(sa.energy.write_pj, sb.energy.write_pj) << where;
  EXPECT_EQ(sa.energy.logic_pj, sb.energy.logic_pj) << where;
  EXPECT_EQ(sa.energy.busy_ns, sb.energy.busy_ns) << where;
  const ResilienceStats& ra = sa.resilience;
  const ResilienceStats& rb = sb.resilience;
  EXPECT_EQ(ra.verified_writes, rb.verified_writes) << where;
  EXPECT_EQ(ra.write_retries, rb.write_retries) << where;
  EXPECT_EQ(ra.line_retirements, rb.line_retirements) << where;
  EXPECT_EQ(ra.check_flips, rb.check_flips) << where;
  EXPECT_EQ(ra.atomic_log_flips, rb.atomic_log_flips) << where;
}

void expect_matrix_equal(const ExperimentMatrix& a,
                         const ExperimentMatrix& b) {
  ASSERT_EQ(a.benchmarks(), b.benchmarks());
  ASSERT_EQ(a.schemes().size(), b.schemes().size());
  for (usize bench = 0; bench < a.benchmarks().size(); ++bench) {
    for (usize s = 0; s < a.schemes().size(); ++s) {
      expect_cell_equal(a.at(bench, s), b.at(bench, s),
                        a.benchmarks()[bench] + "/" +
                            scheme_name(a.schemes()[s]));
    }
  }
  // The user-visible proof: the printed figure tables match byte-for-byte.
  std::ostringstream ta;
  std::ostringstream tb;
  a.normalized_table(metric_total_flips(), Scheme::kDcw).print(ta);
  b.normalized_table(metric_total_flips(), Scheme::kDcw).print(tb);
  a.normalized_table(metric_energy(), Scheme::kDcw).print(ta);
  b.normalized_table(metric_energy(), Scheme::kDcw).print(tb);
  EXPECT_EQ(ta.str(), tb.str());
}

/// Fork a child that runs the matrix with checkpointing and SIGKILLs
/// itself from the flush hook after `kill_after` durable records.
void run_and_kill(const std::vector<WorkloadProfile>& profiles,
                  const std::vector<Scheme>& schemes,
                  const ExperimentConfig& base, const std::string& dir,
                  usize kill_after) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // Child: no gtest plumbing from here on; die by SIGKILL mid-matrix.
    ExperimentConfig cfg = base;
    cfg.checkpoint.dir = dir;
    cfg.checkpoint.every = 1;
    cfg.checkpoint.after_flush = [kill_after](usize written) {
      if (written >= kill_after) ::raise(SIGKILL);
    };
    try {
      (void)run_experiment(profiles, schemes, cfg);
    } catch (...) {
    }
    ::_exit(42);  // reached only if the kill never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited instead of dying (status " << status << ")";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

void kill_resume_roundtrip(usize jobs) {
  const std::vector<WorkloadProfile> profiles = small_profiles();
  const std::vector<Scheme> schemes = small_schemes();
  const ExperimentConfig base = small_config(jobs);
  const std::string dir =
      scratch_dir("kill_jobs" + std::to_string(jobs));

  const ExperimentMatrix reference =
      run_experiment(profiles, schemes, base);

  run_and_kill(profiles, schemes, base, dir, /*kill_after=*/3);

  // The killed run left a valid prefix with >= 3 completed cells.
  ExperimentConfig resume_cfg = base;
  resume_cfg.checkpoint.dir = dir;
  resume_cfg.checkpoint.resume = true;
  const u64 fp = experiment_fingerprint(
      {profiles[0].name, profiles[1].name}, schemes, resume_cfg);
  const CheckpointLoad before = load_checkpoint(checkpoint_path(dir), fp);
  EXPECT_GE(before.cells.size(), 3u);
  EXPECT_LT(before.cells.size(), profiles.size() * schemes.size());

  const ExperimentMatrix resumed =
      run_experiment(profiles, schemes, resume_cfg);
  expect_matrix_equal(resumed, reference);

  std::filesystem::remove_all(dir);
}

TEST(CheckpointResume, KillAndResumeIsBitIdenticalSerial) {
  kill_resume_roundtrip(1);
}

TEST(CheckpointResume, KillAndResumeIsBitIdenticalJobs4) {
  kill_resume_roundtrip(4);
}

TEST(CheckpointResume, TornTailIsDiscardedAndRepaired) {
  const std::vector<WorkloadProfile> profiles = small_profiles();
  const std::vector<Scheme> schemes = small_schemes();
  const ExperimentConfig base = small_config(1);
  const std::string dir = scratch_dir("torn");

  ExperimentConfig cfg = base;
  cfg.checkpoint.dir = dir;
  const ExperimentMatrix reference = run_experiment(profiles, schemes, cfg);

  // A crash mid-append leaves a torn record: simulate the worst case by
  // hand — a record with a wrong checksum, then a partial line with no
  // terminator at all.
  {
    std::ofstream out{checkpoint_path(dir),
                      std::ios::binary | std::ios::app};
    out << "cell 00 00 corrupted beyond recognition 0123456789abcdef\n";
    out << "cell 01 truncated mid-wr";
  }
  const u64 fp = experiment_fingerprint(
      {profiles[0].name, profiles[1].name}, schemes, cfg);
  const CheckpointLoad load = load_checkpoint(checkpoint_path(dir), fp);
  EXPECT_EQ(load.cells.size(), profiles.size() * schemes.size());
  EXPECT_GE(load.torn_records, 2u);

  // Resuming adopts the valid prefix, re-runs nothing, and truncates the
  // torn tail away.
  ExperimentConfig resume_cfg = cfg;
  resume_cfg.checkpoint.resume = true;
  resume_cfg.checkpoint.after_flush = [](usize) {
    ADD_FAILURE() << "a fully checkpointed matrix re-recorded a cell";
  };
  const ExperimentMatrix resumed =
      run_experiment(profiles, schemes, resume_cfg);
  expect_matrix_equal(resumed, reference);
  const CheckpointLoad clean = load_checkpoint(checkpoint_path(dir), fp);
  EXPECT_EQ(clean.torn_records, 0u);
  EXPECT_EQ(clean.cells.size(), profiles.size() * schemes.size());

  std::filesystem::remove_all(dir);
}

TEST(CheckpointResume, FingerprintMismatchRefusesToResume) {
  const std::vector<WorkloadProfile> profiles = small_profiles();
  const std::vector<Scheme> schemes = small_schemes();
  const std::string dir = scratch_dir("fingerprint");

  ExperimentConfig cfg = small_config(1);
  cfg.checkpoint.dir = dir;
  (void)run_experiment(profiles, schemes, cfg);

  // Same checkpoint, different experiment: the seed changes every cell.
  ExperimentConfig other = cfg;
  other.seed += 1;
  other.checkpoint.resume = true;
  EXPECT_THROW((void)run_experiment(profiles, schemes, other),
               std::runtime_error);
  // Changing only --jobs is NOT a different experiment.
  ExperimentConfig rejobbed = cfg;
  rejobbed.jobs = 4;
  rejobbed.checkpoint.resume = true;
  const ExperimentMatrix resumed =
      run_experiment(profiles, schemes, rejobbed);
  EXPECT_EQ(resumed.failed_cells(), 0u);

  std::filesystem::remove_all(dir);
}

TEST(CheckpointResume, FingerprintCoversDrain) {
  // Draining flushes the caches into the measured window, so it changes
  // every cell; recording the request stream changes none.
  const std::vector<std::string> names{"gcc"};
  const std::vector<Scheme> schemes = small_schemes();
  const ExperimentConfig cfg = small_config(1);
  ExperimentConfig drained = cfg;
  drained.collector.drain = !cfg.collector.drain;
  EXPECT_NE(experiment_fingerprint(names, schemes, drained),
            experiment_fingerprint(names, schemes, cfg));
  ExperimentConfig recorded = cfg;
  recorded.collector.record_requests = !cfg.collector.record_requests;
  EXPECT_EQ(experiment_fingerprint(names, schemes, recorded),
            experiment_fingerprint(names, schemes, cfg));
}

TEST(CheckpointResume, FingerprintCoversEveryCellInput) {
  // Every field that fixes a cell moves the fingerprint; how the matrix is
  // run (worker count, checkpoint location, a stop token) does not.
  const std::vector<std::string> names{"gcc", "milc"};
  const std::vector<Scheme> schemes = small_schemes();
  const ExperimentConfig base = small_config(1);
  const u64 fp = experiment_fingerprint(names, schemes, base);
  using Change = void (*)(ExperimentConfig&);
  const std::vector<std::pair<const char*, Change>> inputs{
      {"seed", [](ExperimentConfig& c) { c.seed += 1; }},
      {"cache levels",
       [](ExperimentConfig& c) { c.collector.caches.pop_back(); }},
      {"cache size",
       [](ExperimentConfig& c) { c.collector.caches[1].size_bytes *= 2; }},
      {"cache ways",
       [](ExperimentConfig& c) { c.collector.caches[1].ways *= 2; }},
      {"warm-up", [](ExperimentConfig& c) { c.collector.warmup_accesses++; }},
      {"measured",
       [](ExperimentConfig& c) { c.collector.measured_accesses++; }},
      {"drain",
       [](ExperimentConfig& c) { c.collector.drain = !c.collector.drain; }},
      {"set_pj", [](ExperimentConfig& c) { c.energy.set_pj += 1.0; }},
      {"reset_pj", [](ExperimentConfig& c) { c.energy.reset_pj += 1.0; }},
      {"read_pj_per_bit",
       [](ExperimentConfig& c) { c.energy.read_pj_per_bit += 0.1; }},
      {"encode_logic_pj",
       [](ExperimentConfig& c) { c.energy.encode_logic_pj += 1.0; }},
      {"read_latency_ns",
       [](ExperimentConfig& c) { c.energy.read_latency_ns += 1.0; }},
      {"write_latency_ns",
       [](ExperimentConfig& c) { c.energy.write_latency_ns += 1.0; }},
      {"encode_latency_ns",
       [](ExperimentConfig& c) { c.energy.encode_latency_ns += 1.0; }},
      {"write_fail_rate",
       [](ExperimentConfig& c) { c.fault.inject.write_fail_rate = 1e-3; }},
      {"read_disturb_rate",
       [](ExperimentConfig& c) { c.fault.inject.read_disturb_rate = 1e-3; }},
      {"stuck_rate",
       [](ExperimentConfig& c) { c.fault.inject.stuck_rate = 1e-3; }},
      {"fault seed", [](ExperimentConfig& c) { c.fault.inject.seed += 1; }},
      {"retry_limit", [](ExperimentConfig& c) { c.fault.retry_limit += 1; }},
      {"protect_meta",
       [](ExperimentConfig& c) { c.fault.protect_meta = !c.fault.protect_meta; }},
      {"force_verify",
       [](ExperimentConfig& c) { c.fault.force_verify = !c.fault.force_verify; }},
      {"atomic_writes",
       [](ExperimentConfig& c) {
         c.fault.atomic_writes = !c.fault.atomic_writes;
       }},
  };
  for (const auto& [what, change] : inputs) {
    ExperimentConfig c = base;
    change(c);
    EXPECT_NE(experiment_fingerprint(names, schemes, c), fp) << what;
  }
  EXPECT_NE(experiment_fingerprint({"gcc"}, schemes, base), fp);
  EXPECT_NE(experiment_fingerprint({"milc", "gcc"}, schemes, base), fp);
  EXPECT_NE(experiment_fingerprint(names, {Scheme::kDcw}, base), fp);

  const CancellationToken token;
  ExperimentConfig run = base;
  run.jobs = 4;
  run.checkpoint.dir = "elsewhere";
  run.checkpoint.resume = true;
  run.cancel = &token;
  EXPECT_EQ(experiment_fingerprint(names, schemes, run), fp);
}

TEST(CheckpointResume, CellErrorsRoundTripThroughTheCheckpoint) {
  // Graceful-degradation failures are deterministic results, not pending
  // work: a poisoned benchmark's CellError is checkpointed, resumed
  // verbatim, and not re-collected.
  std::vector<WorkloadProfile> profiles = small_profiles();
  profiles.push_back(profile_by_name("__throw__"));
  const std::vector<Scheme> schemes = small_schemes();
  const std::string dir = scratch_dir("cellerror");

  ExperimentConfig cfg = small_config(1);
  cfg.checkpoint.dir = dir;
  const ExperimentMatrix reference = run_experiment(profiles, schemes, cfg);
  EXPECT_EQ(reference.failed_cells(), schemes.size());

  ExperimentConfig resume_cfg = cfg;
  resume_cfg.checkpoint.resume = true;
  const ExperimentMatrix resumed =
      run_experiment(profiles, schemes, resume_cfg);
  expect_matrix_equal(resumed, reference);
  EXPECT_EQ(resumed.failed_cells(), schemes.size());

  std::filesystem::remove_all(dir);
}

TEST(CheckpointResume, MissingCheckpointFileThrows) {
  const std::string dir = scratch_dir("missing");
  EXPECT_THROW((void)load_checkpoint(checkpoint_path(dir), 1),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nvmenc
