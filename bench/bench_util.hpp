// Options and output plumbing of bench/paper_claims, which regenerates
// every study of the evaluation (see DESIGN.md §4) from one run; the perf
// gates have their own skeleton, gate.hpp. paper_claims prints the
// rows/series the figures plot and, with --csv=<dir>, mirrors each table
// to CSV for re-plotting; with --json=<dir> it writes the
// results/BENCH_*.json documents (json_file.hpp). --quick shrinks the
// simulated window for smoke runs.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "common/parse_number.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace nvmenc::bench {

struct Options {
  std::string csv_dir;   // empty = no CSV output
  std::string json_dir;  // empty = no JSON output
  bool quick = false;
  usize jobs = 0;  // matrix workers; 0 = one per hardware context
};

/// `dir`, the value of output-directory option `flag`, unless it is not an
/// existing directory this process can write; then throws naming both, so
/// a run cannot fail on its output after the work is done.
inline std::string output_dir(const std::string& flag,
                              const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec) ||
      access(dir.c_str(), W_OK) != 0) {
    throw std::invalid_argument{"invalid value for '" + flag + "': '" + dir +
                                "' (not a writable directory)"};
  }
  return dir;
}

/// Exits 2 naming the option at fault.
inline Options parse_options(int argc, char** argv) try {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--csv=", 0) == 0) {
      opt.csv_dir = output_dir("--csv", arg.substr(6));
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_dir = output_dir("--json", arg.substr(7));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opt.jobs = parse_number<usize>("--jobs", arg.substr(7));
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--quick] [--csv=<dir>] [--json=<dir>] [--jobs=<n>]\n";
      std::exit(0);
    } else {
      throw std::invalid_argument{"unknown option: " + arg};
    }
  }
  return opt;
} catch (const std::invalid_argument& e) {
  std::cerr << e.what() << "\n";
  std::exit(2);
}

/// The main of a bench that takes Options: a bad option exits 2 naming it
/// (parse_options), and whatever `run` throws prints `error: <what>` and
/// exits 1.
template <typename Run>
int run_main(int argc, char** argv, Run run) {
  const Options opt = parse_options(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

/// The evaluation configuration every figure uses: the Table 2 hierarchy
/// scaled 1/64 (same shape; see cache/cache_config.hpp) and the paper's
/// PCM energy parameters.
inline ExperimentConfig figure_config(const Options& opt) {
  ExperimentConfig cfg;
  cfg.collector.caches = scaled_hierarchy();
  cfg.collector.warmup_accesses = opt.quick ? 20'000 : 100'000;
  cfg.collector.measured_accesses = opt.quick ? 60'000 : 400'000;
  cfg.seed = 42;
  cfg.jobs = opt.jobs;
  return cfg;
}

/// The sequential-flip value mix: `complement_share` of the word slots
/// complement their old value (Section 3.2's case for SAE), the rest
/// follow a fixed mix at moderate dirtiness, so fine and coarse
/// granularities are both in play.
inline WorkloadProfile seqflip_profile(double complement_share) {
  WorkloadProfile p;
  p.name = "seqflip-" + TextTable::fmt(complement_share, 2);
  p.dirty_word_pmf = {0.10, 0.20, 0.20, 0.15, 0.10, 0.10, 0.05, 0.05, 0.05};
  const double rest = 1.0 - complement_share;
  p.mix = {.complement = complement_share,
           .zero = 0.10 * rest,
           .ones = 0.02 * rest,
           .small_int = 0.23 * rest,
           .pointer = 0.20 * rest,
           .float_pert = 0.15 * rest,
           .random = 0.30 * rest};
  p.working_set_lines = usize{1} << 14;
  p.zero_word_bias = 0.3;
  p.validate();
  return p;
}

inline void emit(const TextTable& table, const Options& opt,
                 const std::string& name) {
  table.print(std::cout);
  if (!opt.csv_dir.empty()) {
    const std::string path = opt.csv_dir + "/" + name + ".csv";
    table.write_csv_file(path);
    std::cout << "[csv] " << path << "\n";
  }
}

inline void banner(const std::string& title) {
  std::cout << "\n== " << title << " ==\n\n";
}

}  // namespace nvmenc::bench
