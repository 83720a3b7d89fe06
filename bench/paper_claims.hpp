// The sections of bench/paper_claims. Each prints the tables of one part
// of the evaluation and appends the claims EXPERIMENTS.md states about
// them; paper_claims.cpp runs them in order over one Study.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "runner/parallel_for.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc::paper {

/// One qualitative statement of EXPERIMENTS.md, as measured.
struct Claim {
  std::string statement;
  std::string measured;
  bool holds = false;
};
using Claims = std::vector<Claim>;

/// "`lhs[i]` < `rhs[i]` for every row i": the measured column names the
/// row where the two come closest (where it fails, if it does).
inline Claim every_below(std::string statement,
                         const std::vector<std::string>& rows,
                         const std::vector<double>& lhs,
                         const std::vector<double>& rhs, int precision = 3) {
  usize closest = 0;
  for (usize i = 1; i < rows.size(); ++i) {
    if (rhs[i] - lhs[i] < rhs[closest] - lhs[closest]) closest = i;
  }
  return {std::move(statement),
          "closest " + rows[closest] + " " +
              TextTable::fmt(lhs[closest], precision) + " vs " +
              TextTable::fmt(rhs[closest], precision),
          lhs[closest] < rhs[closest]};
}

/// The write-back traces the sections replay: each (profile, seed,
/// measured window) is collected once, by the first worker that asks for
/// it, with its request stream recorded for the timing section. Traces
/// stay valid for the Study's lifetime, and so do the workloads their
/// initial_line reads.
class Traces {
 public:
  explicit Traces(const ExperimentConfig& cfg) : cfg_{cfg} {
    cfg_.collector.record_requests = true;
  }

  /// `profile`'s trace at the run seed over the figure window.
  const WritebackTrace& get(const std::string& profile) {
    return get(profile, cfg_.seed, cfg_.collector.measured_accesses);
  }

  /// `profile`'s trace at `seed` over the figure window, or over its first
  /// `measured_accesses` accesses when that is fewer.
  const WritebackTrace& get(const std::string& profile, u64 seed,
                            u64 measured_accesses) {
    CollectorConfig window = cfg_.collector;
    window.measured_accesses =
        std::min(window.measured_accesses, measured_accesses);
    Entry* entry = nullptr;
    {
      const std::lock_guard lock{mutex_};
      entry = &entries_[{profile, seed, window.measured_accesses}];
    }
    std::call_once(entry->once, [&] {
      entry->workload =
          std::make_unique<SyntheticWorkload>(profile_by_name(profile), seed);
      entry->trace = collect_writebacks(*entry->workload, window);
    });
    return entry->trace;
  }

 private:
  struct Entry {
    std::once_flag once;
    std::unique_ptr<SyntheticWorkload> workload;
    WritebackTrace trace;
  };
  ExperimentConfig cfg_;
  std::mutex mutex_;
  std::map<std::tuple<std::string, u64, u64>, Entry> entries_;
};

/// What every section reads.
struct Study {
  const bench::Options& opt;
  ExperimentConfig cfg;             ///< bench::figure_config(opt)
  ThreadPool* pool;                 ///< null at --jobs=1: cells run inline
  /// The Figure 2 and 9-12 matrix, with an SAE-only column besides.
  const ExperimentMatrix& figures;
  Traces& traces;
};

/// `cell(r, c)` for every row r < `rows` and column c < `cols`, over the
/// study's workers; the results in row-major order. T need not be
/// default-constructible (an ExperimentMatrix is not).
template <typename T, typename Cell>
std::vector<T> grid(const Study& study, usize rows, usize cols, Cell cell) {
  std::vector<std::optional<T>> cells(rows * cols);
  parallel_for(study.pool, cells.size(),
               [&](usize i) { cells[i].emplace(cell(i / cols, i % cols)); });
  std::vector<T> out;
  out.reserve(cells.size());
  for (std::optional<T>& c : cells) out.push_back(std::move(*c));
  return out;
}

// Sections of the paper itself (paper_claims_paper.cpp).
void fig3(const Study& study, Claims& claims);
void fig5_table1(const Study& study, Claims& claims);
void overheads(const Study& study, Claims& claims);
void perf_overhead(const Study& study, Claims& claims);

// Our ablations (paper_claims_ablations.cpp).
void read_sae_ablation(const Study& study, Claims& claims);
void sequential_flips(const Study& study, Claims& claims);
void meta_wear(const Study& study, Claims& claims);
void mixes(const Study& study, Claims& claims);
void mlc(const Study& study, Claims& claims);
void encryption(const Study& study, Claims& claims);
void compression(const Study& study, Claims& claims);
void wear_leveling(const Study& study, Claims& claims);

// Robustness studies (paper_claims_robustness.cpp): write faults and power
// cuts on the functional path, then the memory system under load, under
// faults and to wear-out. The last three write results/BENCH_*.json under
// --json=<dir>.
void faults(const Study& study, Claims& claims);
void power_failure(const Study& study, Claims& claims);
void saturation(const Study& study, Claims& claims);
void ras(const Study& study, Claims& claims);
void lifetime(const Study& study, Claims& claims);

}  // namespace nvmenc::paper
