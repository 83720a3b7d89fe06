#include "runner/parallel_runner.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <sstream>

#include "common/rng.hpp"
#include "sim/checkpoint.hpp"
#include "runner/parallel_for.hpp"
#include "runner/progress.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {

usize resolve_jobs(usize jobs) noexcept {
  return jobs == 0 ? ThreadPool::default_thread_count() : jobs;
}

u64 benchmark_seed(u64 seed, usize index) noexcept {
  SplitMix64 stream{seed};
  u64 child = stream.next();
  for (usize i = 0; i < index; ++i) child = stream.next();
  return child;
}

namespace {

/// Collected state of one benchmark. The workload must stay alive for as
/// long as the trace is replayed: WritebackTrace::initial_line refers back
/// into it (SyntheticWorkload::initial_line is const and pure, so
/// concurrent replay cells may share it). A collection failure is captured
/// here and propagated into every cell of the benchmark's row.
struct CollectedBenchmark {
  std::unique_ptr<SyntheticWorkload> workload;
  WritebackTrace trace;
  std::optional<CellError> error;
};

std::string collect_detail(const WritebackTrace& trace) {
  std::ostringstream detail;
  detail << trace.measured.size() << " write-backs, " << trace.demand_reads
         << " demand reads";
  return detail.str();
}

}  // namespace

ExperimentMatrix run_experiment(const std::vector<WorkloadProfile>& profiles,
                                std::vector<Scheme> schemes,
                                const ExperimentConfig& config,
                                std::ostream* progress_stream) {
  // A retry limit past kMaxRetryLimit fails here, before any cell
  // collects.
  config.fault.validate();
  const usize jobs = resolve_jobs(config.jobs);
  // A null stream makes the reporter silent.
  ProgressReporter progress{progress_stream, profiles.size()};
  const usize num_benchmarks = profiles.size();
  const usize num_schemes = schemes.size();

  std::vector<std::string> names;
  names.reserve(num_benchmarks);
  for (const WorkloadProfile& profile : profiles) {
    names.push_back(profile.name);
  }

  std::vector<CollectedBenchmark> collected(num_benchmarks);
  std::vector<std::vector<ReplayResult>> results(
      num_benchmarks, std::vector<ReplayResult>(num_schemes));

  // Checkpoint/resume: cells adopted from a checkpoint are marked done and
  // never re-run; newly completed cells are appended as they finish. The
  // per-cell salts below depend only on matrix coordinates, so the resumed
  // and fresh cells assemble into a bit-identical matrix.
  std::vector<std::vector<char>> done(num_benchmarks,
                                      std::vector<char>(num_schemes, 0));
  std::unique_ptr<CheckpointWriter> writer;
  if (config.checkpoint.enabled()) {
    const u64 fingerprint = experiment_fingerprint(names, schemes, config);
    std::optional<CheckpointLoad> resumed;
    if (config.checkpoint.resume) {
      resumed = load_checkpoint(checkpoint_path(config.checkpoint.dir),
                                fingerprint);
      usize adopted = 0;
      for (CheckpointCell& cell : resumed->cells) {
        if (cell.benchmark >= num_benchmarks || cell.scheme >= num_schemes ||
            done[cell.benchmark][cell.scheme] != 0) {
          continue;
        }
        results[cell.benchmark][cell.scheme] = std::move(cell.result);
        done[cell.benchmark][cell.scheme] = 1;
        ++adopted;
      }
      std::ostringstream note;
      note << "  [checkpoint] resumed " << adopted << "/"
           << num_benchmarks * num_schemes << " cells";
      if (resumed->torn_records > 0) {
        note << " (" << resumed->torn_records << " torn record(s) discarded)";
      }
      progress.announce(note.str());
    }
    writer = std::make_unique<CheckpointWriter>(
        config.checkpoint, fingerprint, resumed ? &*resumed : nullptr);
  }

  const CancellationToken* cancel = config.cancel;
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->stop_requested();
  };
  auto row_done = [&](usize b) {
    for (usize s = 0; s < num_schemes; ++s) {
      if (done[b][s] == 0) return false;
    }
    return true;
  };

  auto collect_one = [&](usize b) {
    // A fully resumed (or cancelled) row never replays, so its workload
    // is not needed — skip the expensive cache simulation outright.
    if (row_done(b)) {
      progress.job_done(profiles[b].name, "resumed from checkpoint");
      return;
    }
    if (cancelled()) return;
    try {
      collected[b].workload = std::make_unique<SyntheticWorkload>(
          profiles[b], benchmark_seed(config.seed, b));
      collected[b].trace =
          collect_writebacks(*collected[b].workload, config.collector);
    } catch (const std::exception& e) {
      collected[b].error = CellError{"collect", e.what()};
    }
    progress.job_done(profiles[b].name,
                      collected[b].error
                          ? "FAILED: " + collected[b].error->message
                          : collect_detail(collected[b].trace));
  };
  // Graceful degradation: a cell that throws (collect or replay) records a
  // structured CellError and leaves the rest of the matrix to complete.
  // The fault-injection stream of each cell is salted by its flat index,
  // whatever worker runs it, so a seeded fault sweep is bit-identical for
  // every --jobs value.
  auto replay_one = [&](usize b, usize s) {
    ReplayResult& cell = results[b][s];
    if (done[b][s] != 0) return;
    cell.benchmark = names[b];
    cell.scheme = scheme_name(schemes[s]);
    // Cancelled cells (stop requested, or collection was skipped by the
    // stop) are left incomplete and deliberately NOT checkpointed: a
    // resume must re-run them.
    if (cancelled() ||
        (!collected[b].error && collected[b].workload == nullptr)) {
      cell.error = CellError{"replay", "cancelled before completion"};
      return;
    }
    if (collected[b].error) {
      cell.error = collected[b].error;
    } else {
      try {
        cell = replay_scheme(collected[b].trace, schemes[s], config.energy,
                             config.fault, b * num_schemes + s + 1, cancel);
      } catch (const CancelledRun&) {
        cell = ReplayResult{};
        cell.benchmark = names[b];
        cell.scheme = scheme_name(schemes[s]);
        cell.error = CellError{"replay", "cancelled before completion"};
        return;
      } catch (const std::exception& e) {
        cell = ReplayResult{};
        cell.benchmark = names[b];
        cell.scheme = scheme_name(schemes[s]);
        cell.error = CellError{"replay", e.what()};
      }
    }
    // Completed (including a real collect/replay failure, which is
    // deterministic and resumable as-is): make it durable.
    if (writer != nullptr) writer->record(b, s, cell);
  };

  // One loop for every worker count: on one worker (no pool) each phase
  // runs inline in index order, so every benchmark is collected before
  // the first cell replays, as on a pool. The last cell of a benchmark to
  // finish frees its workload and trace, so later cells reuse that
  // memory: with every row collected up front, keeping them all to the
  // end fragments the heap enough to raise the peak RSS of repeated
  // matrix runs by ~15 %.
  const auto pool = pool_for(jobs);
  parallel_for(pool.get(), num_benchmarks, collect_one);
  std::vector<std::atomic<usize>> cells_left(num_benchmarks);
  for (std::atomic<usize>& left : cells_left) left.store(num_schemes);
  parallel_for(pool.get(), num_benchmarks * num_schemes, [&](usize cell) {
    const usize b = cell / num_schemes;
    replay_one(b, cell % num_schemes);
    if (cells_left[b].fetch_sub(1) == 1) collected[b] = CollectedBenchmark{};
  });
  // Final durability point: whatever completed is on disk before the
  // matrix is assembled (the SIGINT path relies on this).
  if (writer != nullptr) writer->flush();

  usize failed = 0;
  const ReplayResult* first_failure = nullptr;
  for (const auto& row : results) {
    for (const ReplayResult& cell : row) {
      if (cell.ok()) continue;
      ++failed;
      if (first_failure == nullptr) first_failure = &cell;
    }
  }
  std::ostringstream summary;
  summary.setf(std::ios::fixed);
  summary.precision(1);
  summary << "  [runner] " << num_benchmarks << "x" << num_schemes
          << " cells, jobs=" << jobs << ", " << progress.elapsed_seconds()
          << "s";
  if (first_failure != nullptr) {
    summary << ", " << failed << " failed (first: "
            << first_failure->benchmark << "/" << first_failure->scheme << " "
            << first_failure->error->phase << ": "
            << first_failure->error->message << ")";
  }
  progress.announce(summary.str());
  return {std::move(names), std::move(schemes), std::move(results)};
}

}  // namespace nvmenc
