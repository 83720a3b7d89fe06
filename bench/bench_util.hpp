// Shared plumbing for the bench binaries.
//
// Each binary under bench/ regenerates figures, tables or sweeps of the
// evaluation (see DESIGN.md §4): paper_claims prints Figures 2 and 9-12
// from one matrix, and most others one figure, table or sweep each. They
// print the rows/series the figures plot and, with --csv=<dir>, mirror
// each table to CSV for re-plotting. --quick shrinks the simulated window
// for smoke runs; --json=<file> is honoured by the binaries that write a
// results/BENCH_*.json document.
#pragma once

#include <charconv>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace nvmenc::bench {

struct Options {
  std::string csv_dir;    // empty = no CSV output
  std::string json_path;  // empty = no JSON output
  bool quick = false;
  usize jobs = 0;  // matrix workers; 0 = one per hardware context
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--csv=", 0) == 0) {
      opt.csv_dir = arg.substr(6);
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = arg.substr(7);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string text = arg.substr(7);
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, opt.jobs);
      if (ec != std::errc{} || ptr != end) {
        std::cerr << "invalid --jobs value: " << text
                  << " (expected a number)\n";
        std::exit(2);
      }
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--quick] [--csv=<dir>] [--json=<file>] [--jobs=<n>]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
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
