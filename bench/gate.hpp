// The one skeleton of bench/'s perf gates (encoder_gate, replay_gate).
//
// A gate times the path it guards against an in-process anchor on the same
// machine and judges the RATIO timed_ns / anchor_ns, not an absolute time:
// a machine-wide slowdown hits both sides and cancels, a regression of the
// guarded path alone raises the ratio. The estimator (interleaved_ns)
// alternates the two sides in slices a few milliseconds long (A B A B ...),
// so a load spike or frequency dip lands on both almost equally, and keeps
// the repetition with the fastest combined time (interference only ever
// adds time).
//
// The verdict (gate_main) fails a run (exit 1) when its ratio exceeds the
// committed "baseline_ratio" (results/PERF_GATE_<gate>.json) times
// (1 + headroom), or when a check of the gate's own fails; it prints a
// metric/value table ending in PASS or FAIL and one stderr line per
// failure. Bad input exits 2 naming it. --print-ratio prints the ratio
// alone (a fresh baseline). NVMENC_GATE_INJECT=P inflates the timed path
// by P percent: the self-test that proves a gate rejects a slowdown.
//
//   <gate> [--baseline=FILE] [--<count>=N] [--reps=R] [--print-ratio]
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parse_number.hpp"
#include "common/table.hpp"

namespace nvmenc::bench {

/// A gate's command line, plus NVMENC_GATE_INJECT (a slowdown in percent).
struct GateOptions {
  std::string baseline{};
  usize count = 0;
  usize reps = 5;
  bool print_ratio = false;
  double inject_pct = 0.0;

  /// The guarded path's time as the gate reports it.
  [[nodiscard]] double injected(double timed_ns) const {
    return timed_ns * (1.0 + inject_pct / 100.0);
  }
};

/// Parses a gate's command line over `opt`, its defaults; `count_flag`
/// sets GateOptions::count, the work per side and repetition. Throws
/// std::invalid_argument naming the flag or variable at fault.
inline GateOptions parse_gate_options(int argc, char** argv,
                                      const std::string& count_flag,
                                      GateOptions opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string value = arg.substr(arg.find('=') + 1);
    if (arg.rfind("--baseline=", 0) == 0) {
      opt.baseline = value;
    } else if (arg.rfind(count_flag + "=", 0) == 0) {
      opt.count = parse_number<usize>(count_flag, value);
    } else if (arg.rfind("--reps=", 0) == 0) {
      opt.reps = parse_number<usize>("--reps", value);
    } else if (arg == "--print-ratio") {
      opt.print_ratio = true;
    } else {
      throw std::invalid_argument{std::string{"usage: "} + argv[0] +
                                  " [--baseline=FILE] [" + count_flag +
                                  "=N] [--reps=R] [--print-ratio]"};
    }
  }
  if (opt.reps == 0) {
    throw std::invalid_argument{"invalid value for '--reps': '0' (expected "
                                "at least 1)"};
  }
  if (const char* env = std::getenv("NVMENC_GATE_INJECT")) {
    opt.inject_pct = parse_number<double>("NVMENC_GATE_INJECT", env);
  }
  return opt;
}

/// Reads `"key": <number>` from a flat JSON file such as a gate's committed
/// baseline (a full parser would be dead weight). Throws naming the file
/// and key when either is missing or the value is not a number.
inline double json_number(const std::string& path, const std::string& key) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string quoted = "\"" + key + "\"";
  const auto at = text.find(quoted);
  if (at == std::string::npos) {
    throw std::runtime_error{path + " has no key " + quoted};
  }
  const auto colon = text.find(':', at);
  const auto end = std::min(text.find_first_of(",}\n", colon), text.size());
  std::string value =
      colon < end ? text.substr(colon + 1, end - colon - 1) : std::string{};
  value.erase(0, value.find_first_not_of(" \t\r"));
  value.erase(value.find_last_not_of(" \t\r") + 1);
  return parse_number<double>(path + " " + quoted, value);
}

/// Timed slices per side and repetition.
inline constexpr usize kGateSlices = 16;

/// Units of work in one slice when a repetition does `count` per side.
[[nodiscard]] inline usize gate_slice(usize count) {
  return count / kGateSlices + 1;
}

/// ns per unit of work of two paths, best of `reps` repetitions of
/// kGateSlices alternating slices each. `a(first, n)` and `b(first, n)` run
/// units [first, first + n) of their path and return the ns taken. Warm-up
/// is the caller's.
template <typename A, typename B>
std::pair<double, double> interleaved_ns(usize count, usize reps, A&& a,
                                         B&& b) {
  const usize slice = gate_slice(count);
  double best_a = 1e300;
  double best_b = 1e300;
  for (usize r = 0; r < reps; ++r) {
    double total_a = 0.0;
    double total_b = 0.0;
    for (usize s = 0; s < kGateSlices; ++s) {
      total_a += a(s * slice, slice);
      total_b += b(s * slice, slice);
    }
    if (total_a + total_b < best_a + best_b) {
      best_a = total_a;
      best_b = total_b;
    }
  }
  const double n =
      static_cast<double>(kGateSlices) * static_cast<double>(slice);
  return {best_a / n, best_b / n};
}

/// What gate_main needs of a gate besides its timing.
struct Gate {
  const char* name;        ///< the binary; prefixes every stderr line
  const char* count_flag;  ///< see parse_gate_options
  GateOptions defaults;    ///< the baseline file and count when not given
  const char* ratio;       ///< the judged ratio, e.g. "vector/scalar"
  double headroom;         ///< limit = baseline * (1 + headroom)
  const char* regressed;   ///< what a ratio over the limit means
};

/// What one run of a gate measured, in ns per unit of work.
struct GateReading {
  std::string skipped{};   ///< non-empty: why this host cannot run the gate
  double timed_ns = 0.0;   ///< the guarded path, after GateOptions::injected
  double anchor_ns = 0.0;  ///< its in-process anchor
  std::vector<std::vector<std::string>> head{};  ///< rows above the ratio
  std::vector<std::vector<std::string>> tail{};  ///< rows below the limit
  std::vector<std::string> failures{};  ///< the gate's own failed checks
};

/// The main of a gate: `measure(opt)` times it.
inline int gate_main(int argc, char** argv, const Gate& gate,
                     GateReading (*measure)(const GateOptions&)) try {
  const GateOptions opt =
      parse_gate_options(argc, argv, gate.count_flag, gate.defaults);
  const GateReading reading = measure(opt);
  if (!reading.skipped.empty()) {
    std::cout << gate.name << ": " << reading.skipped << "; gate skipped\n";
    return 0;
  }
  const double ratio = reading.timed_ns / reading.anchor_ns;
  if (opt.print_ratio) {
    std::cout << TextTable::fmt(ratio, 4) << "\n";
    return 0;
  }

  const double baseline = json_number(opt.baseline, "baseline_ratio");
  const double limit = baseline * (1.0 + gate.headroom);
  std::vector<std::string> failures = reading.failures;
  if (!(ratio <= limit)) {
    failures.insert(failures.begin(),
                    std::string{gate.ratio} + " ratio " +
                        TextTable::fmt(ratio, 4) + " exceeds " +
                        TextTable::fmt(limit, 4) + " — " + gate.regressed);
  }
  TextTable table{{"metric", "value"}};
  for (const auto& row : reading.head) table.add_row(row);
  table.add_row({std::string{"ratio ("} + gate.ratio + ")",
                 TextTable::fmt(ratio, 4)});
  table.add_row({"baseline ratio", TextTable::fmt(baseline, 4)});
  table.add_row({"limit (+" + std::to_string(std::lround(gate.headroom * 100)) +
                     "% headroom)",
                 TextTable::fmt(limit, 4)});
  for (const auto& row : reading.tail) table.add_row(row);
  if (opt.inject_pct != 0.0) {
    table.add_row({"injected slowdown (%)", TextTable::fmt(opt.inject_pct, 1)});
  }
  table.add_row({"verdict", failures.empty() ? "PASS" : "FAIL"});
  table.print(std::cout);
  for (const std::string& failure : failures) {
    std::cerr << gate.name << ": " << failure << "\n";
  }
  return failures.empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << gate.name << ": " << e.what() << "\n";
  return 2;
}

}  // namespace nvmenc::bench
