// What one benchmark process measures and reports.
//
// Every workload fills a Report: the parameters it ran with, the output
// checks it attempted (and which failed), and its metrics. A metric keeps
// all of its samples (one per repetition, or one per set-up) so the JSON
// output carries the spread and `--compare` can judge two runs by medians
// and quartiles instead of by single numbers.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace nvmenc::bench {

/// How a metric is measured, which decides how two runs are compared.
enum class MetricKind : u8 {
  kHost,       ///< host wall-clock or memory, tracing off; bounded
  kSimulated,  ///< virtual-time / model outcome; identical for a fixed seed
  kLayer,      ///< per-layer number from the traced run; never compared
};

struct Metric {
  std::string name;
  std::string unit;
  bool higher_better = false;
  MetricKind kind = MetricKind::kHost;
  std::vector<double> samples;  ///< value = median of these
  std::string note;             ///< printed beside the value (may be empty)

  [[nodiscard]] double value() const;
};

struct Options {
  std::string workload;
  u64 seed = 42;
  double seconds = 20.0;  ///< measured-phase budget
  bool trace = false;     ///< per-layer traced run instead of the timed one
  bool quick = false;     ///< ~1/10 length smoke run
  std::string build_dir = "build-bench";
};

class Report {
 public:
  explicit Report(std::string workload) : workload_{std::move(workload)} {}

  void param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, value);
  }
  void param(const std::string& key, double value);

  /// Counts one output check; a failure is named on stderr.
  void check(bool ok, const std::string& what);

  void add(std::string name, std::string unit, bool higher_better,
           MetricKind kind, std::vector<double> samples,
           std::string note = {});
  /// Per-layer metric from the traced run (one sample).
  void layer(std::string name, std::string unit, double value) {
    add(std::move(name), std::move(unit), false, MetricKind::kLayer,
        {value});
  }

  [[nodiscard]] const std::string& workload() const noexcept {
    return workload_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  params() const noexcept {
    return params_;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] u64 attempted() const noexcept { return attempted_; }
  [[nodiscard]] u64 failed() const noexcept { return failed_; }

 private:
  std::string workload_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<Metric> metrics_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// Monotonic seconds since an arbitrary epoch.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double median(std::vector<double> values);
/// First and third quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so the spreads this benchmark prints
/// match the ones an external harness computes from the same samples.
[[nodiscard]] std::pair<double, double> quartiles(std::vector<double> values);

/// Repetition loop shared by the workloads. Runs `rep` once untimed
/// (the warm-up: allocator arenas, page tables and branch predictors reach
/// their steady state at full size), then at least `min_reps` timed times
/// and after that as long as another repetition of the mean length so far
/// still fits in `budget_s`; quick runs stop at min_reps. Returns the
/// wall seconds of each timed repetition.
template <typename Rep>
std::vector<double> timed_reps(double budget_s, bool quick, usize min_reps,
                               Rep&& rep) {
  rep();
  std::vector<double> out;
  double elapsed = 0.0;
  while (out.size() < min_reps ||
         (!quick && elapsed + elapsed / static_cast<double>(out.size()) <=
                        budget_s)) {
    const double t0 = now_s();
    rep();
    out.push_back(now_s() - t0);
    elapsed += out.back();
  }
  return out;
}

/// `ops` over each duration: per-repetition throughput samples.
[[nodiscard]] std::vector<double> rates(double ops,
                                        const std::vector<double>& seconds);

/// Runs `setup` `times` times and returns the wall seconds of each run,
/// so set-up cost is reported as a median like every other host metric.
template <typename Setup>
std::vector<double> time_setups(usize times, Setup&& setup) {
  std::vector<double> out;
  for (usize i = 0; i < times; ++i) {
    const double t0 = now_s();
    setup();
    out.push_back(now_s() - t0);
  }
  return out;
}

// Workload entry points (spec_workloads.cpp / memsys_workloads.cpp).
void run_spec(const Options& options, Report& report);
void run_open_knee(const Options& options, Report& report);
void run_closed_ras(const Options& options, Report& report);

/// The universal per-layer metrics every traced run reports (BENCHMARK.json
/// "per_layer"): self time per workload op in each of the repository's
/// layers, zero where a workload does not exercise the layer.
inline constexpr const char* kLayers[] = {
    "trace", "cache",    "encoding", "nvm", "memsys",
    "ras",   "lifetime", "runner",   "sim"};

/// Records `<layer>.ns_per_op` for every layer: those named in `ns` get
/// their value, the rest 0.
void layer_ns_per_op(Report& report,
                     const std::vector<std::pair<std::string, double>>& ns);

}  // namespace nvmenc::bench
