#include "sim/experiment.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace nvmenc {

ExperimentMatrix::ExperimentMatrix(
    std::vector<std::string> benchmarks, std::vector<Scheme> schemes,
    std::vector<std::vector<ReplayResult>> results)
    : benchmarks_{std::move(benchmarks)},
      schemes_{std::move(schemes)},
      results_{std::move(results)} {
  require(results_.size() == benchmarks_.size(),
          "matrix rows must match benchmarks");
  for (const auto& row : results_) {
    require(row.size() == schemes_.size(),
            "matrix columns must match schemes");
  }
}

usize ExperimentMatrix::scheme_index(Scheme scheme) const {
  for (usize i = 0; i < schemes_.size(); ++i) {
    if (schemes_[i] == scheme) return i;
  }
  throw std::invalid_argument("scheme not in this experiment: " +
                              scheme_name(scheme));
}

const ReplayResult& ExperimentMatrix::at(usize benchmark,
                                         usize scheme) const {
  require(benchmark < benchmarks_.size() && scheme < schemes_.size(),
          "matrix index out of range");
  return results_[benchmark][scheme];
}

const ReplayResult& ExperimentMatrix::at(const std::string& benchmark,
                                         Scheme scheme) const {
  for (usize b = 0; b < benchmarks_.size(); ++b) {
    if (benchmarks_[b] == benchmark) return at(b, scheme_index(scheme));
  }
  throw std::invalid_argument("benchmark not in this experiment: " +
                              benchmark);
}

bool ExperimentMatrix::cell_ok(usize benchmark, usize scheme) const {
  return at(benchmark, scheme).ok();
}

usize ExperimentMatrix::failed_cells() const noexcept {
  usize failed = 0;
  for (const auto& row : results_) {
    for (const ReplayResult& cell : row) {
      if (!cell.ok()) ++failed;
    }
  }
  return failed;
}

const ReplayResult* ExperimentMatrix::first_failure() const noexcept {
  for (const auto& row : results_) {
    for (const ReplayResult& cell : row) {
      if (!cell.ok()) return &cell;
    }
  }
  return nullptr;
}

double ExperimentMatrix::ratio(usize benchmark, Scheme scheme, Scheme base,
                               const Metric& metric) const {
  const ReplayResult& numer_cell = at(benchmark, scheme_index(scheme));
  const ReplayResult& denom_cell = at(benchmark, scheme_index(base));
  require(numer_cell.ok() && denom_cell.ok(),
          "ratio over a failed matrix cell");
  const double numer = metric(numer_cell);
  const double denom = metric(denom_cell);
  require(denom > 0.0, "baseline metric must be positive");
  return numer / denom;
}

TextTable ExperimentMatrix::normalized_table(const Metric& metric,
                                             Scheme base) const {
  std::vector<std::string> header{"benchmark"};
  for (Scheme s : schemes_) header.push_back(scheme_name(s));
  TextTable table{std::move(header)};

  const usize base_idx = scheme_index(base);
  for (usize b = 0; b < benchmarks_.size(); ++b) {
    std::vector<std::string> row{benchmarks_[b]};
    for (usize s = 0; s < schemes_.size(); ++s) {
      row.push_back(cell_ok(b, s) && cell_ok(b, base_idx)
                        ? TextTable::fmt(ratio(b, schemes_[s], base, metric))
                        : "n/a");
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"average"};
  for (Scheme s : schemes_) {
    const double mean = average_ratio(s, base, metric);
    avg.push_back(std::isnan(mean) ? "n/a" : TextTable::fmt(mean));
  }
  table.add_row(std::move(avg));
  return table;
}

double ExperimentMatrix::average_ratio(Scheme scheme, Scheme base,
                                       const Metric& metric) const {
  const usize scheme_idx = scheme_index(scheme);
  const usize base_idx = scheme_index(base);
  std::vector<double> ratios;
  ratios.reserve(benchmarks_.size());
  for (usize b = 0; b < benchmarks_.size(); ++b) {
    if (!cell_ok(b, scheme_idx) || !cell_ok(b, base_idx)) continue;
    ratios.push_back(ratio(b, scheme, base, metric));
  }
  if (ratios.empty()) return std::numeric_limits<double>::quiet_NaN();
  return geomean(ratios);
}

ExperimentMatrix::Metric metric_total_flips() {
  return [](const ReplayResult& r) {
    return static_cast<double>(r.stats.flips.total());
  };
}

ExperimentMatrix::Metric metric_energy() {
  return [](const ReplayResult& r) { return r.stats.energy.total_pj(); };
}

ExperimentMatrix::Metric metric_tag_flips() {
  return [](const ReplayResult& r) {
    return static_cast<double>(r.stats.flips.tag);
  };
}

ExperimentMatrix::Metric metric_lifetime() {
  return [](const ReplayResult& r) {
    return 1.0 / static_cast<double>(r.stats.flips.total());
  };
}

// run_experiment is defined in src/runner/parallel_runner.cpp, which runs
// the matrix on the runner pool: one loop at every jobs count, inline on
// one worker.

}  // namespace nvmenc
