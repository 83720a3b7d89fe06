// ExperimentRunner: the scheme x benchmark evaluation matrix.
//
// Reproduces the paper's methodology: each benchmark's workload runs once
// through the cache hierarchy (collector), and the captured write-back
// stream is replayed through every encoding scheme. Helpers turn the
// matrix into the normalized per-benchmark tables the figures plot,
// including the cross-benchmark average row the paper's headline numbers
// come from.
#pragma once

#include <functional>
#include <vector>

#include "common/cancel.hpp"
#include "common/table.hpp"
#include "core/schemes.hpp"
#include "sim/checkpoint.hpp"
#include "sim/collector.hpp"
#include "sim/replay.hpp"
#include "trace/profile.hpp"

namespace nvmenc {

struct ExperimentConfig {
  CollectorConfig collector;
  EnergyParams energy;
  u64 seed = 42;
  /// Worker threads for the matrix: 0 = one per hardware context,
  /// 1 = serial. Results are bit-identical for every value (each
  /// benchmark's workload is seeded with a splitmix64 child of `seed`,
  /// see src/runner/parallel_runner.hpp; fault-injection streams are
  /// per-cell seeded the same way).
  usize jobs = 0;
  /// Fault-injection rates + resilience policy applied to every replay
  /// cell. Inactive (the default) = the exact legacy pipeline.
  FaultPlan fault;
  /// Crash-consistent checkpointing of completed cells (off by default).
  /// With `resume` set, cells found in the checkpoint are adopted verbatim
  /// and only the missing ones run — the assembled matrix is bit-identical
  /// to an uninterrupted run (src/sim/checkpoint.hpp).
  CheckpointConfig checkpoint;
  /// Cooperative cancellation (e.g. a SIGINT handler). Polled at cell
  /// boundaries and once per replayed write-back; after a stop request,
  /// unfinished cells end as "cancelled" CellErrors and are NOT recorded
  /// to the checkpoint, so a later --resume re-runs them.
  const CancellationToken* cancel = nullptr;
};

class ExperimentMatrix {
 public:
  ExperimentMatrix(std::vector<std::string> benchmarks,
                   std::vector<Scheme> schemes,
                   std::vector<std::vector<ReplayResult>> results);

  [[nodiscard]] const std::vector<std::string>& benchmarks() const noexcept {
    return benchmarks_;
  }
  [[nodiscard]] const std::vector<Scheme>& schemes() const noexcept {
    return schemes_;
  }
  [[nodiscard]] const ReplayResult& at(usize benchmark, usize scheme) const;
  [[nodiscard]] const ReplayResult& at(const std::string& benchmark,
                                       Scheme scheme) const;

  /// Graceful-degradation view: a cell whose collect or replay threw holds
  /// a CellError instead of statistics.
  [[nodiscard]] bool cell_ok(usize benchmark, usize scheme) const;
  /// Cells carrying an error.
  [[nodiscard]] usize failed_cells() const noexcept;
  [[nodiscard]] usize total_cells() const noexcept {
    return benchmarks_.size() * schemes_.size();
  }
  /// The first failed cell in row-major (benchmark, scheme) order, or
  /// nullptr when the matrix is fully healthy. The pointed-to result
  /// carries the benchmark/scheme labels and the CellError.
  [[nodiscard]] const ReplayResult* first_failure() const noexcept;

  using Metric = std::function<double(const ReplayResult&)>;

  /// metric(scheme) / metric(base) for one benchmark. Throws when either
  /// cell failed.
  [[nodiscard]] double ratio(usize benchmark, Scheme scheme, Scheme base,
                             const Metric& metric) const;

  /// Normalized table in the paper's figure layout: one row per benchmark,
  /// one column per scheme, values metric/metric(base); a final geomean
  /// row ("average") matches the paper's summary statistics. Failed cells
  /// (and every cell of a row whose baseline failed) print "n/a".
  [[nodiscard]] TextTable normalized_table(const Metric& metric,
                                           Scheme base) const;

  /// Geomean of the per-benchmark ratios of `scheme` vs `base` over the
  /// benchmarks where both cells succeeded; NaN when none did.
  [[nodiscard]] double average_ratio(Scheme scheme, Scheme base,
                                     const Metric& metric) const;

 private:
  [[nodiscard]] usize scheme_index(Scheme scheme) const;

  std::vector<std::string> benchmarks_;
  std::vector<Scheme> schemes_;
  std::vector<std::vector<ReplayResult>> results_;  // [benchmark][scheme]
};

/// Standard metrics for the four result figures.
[[nodiscard]] ExperimentMatrix::Metric metric_total_flips();
[[nodiscard]] ExperimentMatrix::Metric metric_energy();
[[nodiscard]] ExperimentMatrix::Metric metric_tag_flips();
/// Lifetime under ideal wear leveling is inversely proportional to total
/// flips (Section 4.2.4), so the metric is 1 / flips.
[[nodiscard]] ExperimentMatrix::Metric metric_lifetime();

/// Runs the full matrix on `config.jobs` workers (defined in
/// src/runner/parallel_runner.cpp, which owns the thread pool; link
/// nvmenc_runner or the nvmenc umbrella). `progress`, when non-null,
/// receives one line per collected benchmark plus a closing summary. A
/// plan with a retry limit past kMaxRetryLimit throws before any cell runs.
[[nodiscard]] ExperimentMatrix run_experiment(
    const std::vector<WorkloadProfile>& profiles, std::vector<Scheme> schemes,
    const ExperimentConfig& config, std::ostream* progress = nullptr);

}  // namespace nvmenc
