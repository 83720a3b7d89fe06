// `nvmenc_bench --compare A.json B.json`: judges B (the change) against A
// (the parent) per workload x metric, by the rules of a benchmark that
// fixes its own bounds:
//
//   * host metrics carry the bound BENCHMARK.json gives them. B is "worse"
//     when its median is worse than A's by more than the bound, and
//     "unresolved" when either side's spread (quartile distance over
//     median) is wider than the bound. B is "improved" only when it wins
//     at least 9/10 of the run pairs (every pair, to override a wide
//     spread) and its median beats A's by more than A's own quartile
//     distance; otherwise the metric is "unchanged".
//   * simulated metrics are deterministic for a fixed seed, so their bound
//     is exact: any difference is reported as improved or worse.
//
// A side may name several result files separated by commas. With three or
// more runs a side is judged by its runs' values, one per run, which is
// what a claimed gain needs (at least ten alternating pairs of runs);
// with fewer, by the pooled samples of its runs, which can show a metric
// worse or unresolved but never improved. Per-layer metrics carry no bound
// and are not compared.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <sstream>

#include "common/table.hpp"
#include "json.hpp"
#include "report.hpp"

namespace nvmenc::bench {
namespace {

struct Series {
  std::string unit;
  bool higher_better = false;
  bool simulated = false;
  std::vector<double> runs;     ///< each run's reported value
  std::vector<double> samples;  ///< every sample of every run

  /// What the verdict is judged on: runs when there are enough of them.
  [[nodiscard]] const std::vector<double>& basis() const {
    return runs.size() >= 3 ? runs : samples;
  }
};

using Key = std::pair<std::string, std::string>;  // workload, metric

struct Side {
  std::map<Key, Series> series;
  std::vector<std::string> incorrect;  ///< workloads whose run failed checks
};

Side load_side(const std::string& files) {
  Side side;
  std::stringstream list{files};
  std::string path;
  while (std::getline(list, path, ',')) {
    if (path.empty()) continue;
    const JsonValue doc = read_json_file(path);
    const JsonValue* runs = doc.get("runs");
    const std::vector<JsonValue> single{doc};
    for (const JsonValue& run : runs != nullptr ? runs->items : single) {
      const std::string& workload = run.at("workload").text;
      if (!run.at("correct").boolean) side.incorrect.push_back(workload);
      for (const auto& [name, m] : run.at("metrics").members) {
        const std::string& kind = m.at("kind").text;
        if (kind == "layer") continue;
        Series& s = side.series[{workload, name}];
        s.unit = m.at("unit").text;
        s.higher_better = m.at("better").text == "higher";
        s.simulated = kind == "simulated";
        s.runs.push_back(m.at("value").number);
        for (const JsonValue& v : m.at("samples").items) {
          s.samples.push_back(v.number);
        }
      }
    }
  }
  return side;
}

/// End-to-end bounds from BENCHMARK.json: metric name -> share.
std::map<std::string, double> load_bounds(const std::string& path) {
  std::map<std::string, double> bounds;
  const JsonValue doc = read_json_file(path);
  for (const JsonValue& m : doc.at("end_to_end").items) {
    bounds[m.at("name").text] = m.at("bound").number;
  }
  return bounds;
}

std::string spread_text(const std::vector<double>& s) {
  const auto [q1, q3] = quartiles(s);
  return TextTable::fmt(median(s), 4) + " [" + TextTable::fmt(q1, 4) + ", " +
         TextTable::fmt(q3, 4) + "]";
}

/// Signed relative change of B against A, positive = B is worse.
double worsening(double a, double b, bool higher_better) {
  if (a == 0.0) return b == 0.0 ? 0.0 : (higher_better ? -1.0 : 1.0);
  return higher_better ? (a - b) / a : (b - a) / a;
}

std::string verdict(const Series& a, const Series& b, double bound) {
  const std::vector<double>& sa = a.basis();
  const std::vector<double>& sb = b.basis();
  const double ma = median(sa);
  const double mb = median(sb);
  const bool hb = a.higher_better;
  auto better = [hb](double x, double y) { return hb ? x > y : x < y; };
  if (a.simulated) {
    if (ma == mb) return "unchanged";
    return better(mb, ma) ? "improved" : "worse";
  }
  const auto [qa1, qa3] = quartiles(sa);
  const auto [qb1, qb3] = quartiles(sb);
  const double spread_a = ma == 0.0 ? 0.0 : (qa3 - qa1) / std::abs(ma);
  const double spread_b = mb == 0.0 ? 0.0 : (qb3 - qb1) / std::abs(mb);
  usize wins = 0;
  bool all_better = true;
  for (const double x : sa) {
    for (const double y : sb) {
      if (better(y, x)) {
        ++wins;
      } else {
        all_better = false;
      }
    }
  }
  const double pairs = static_cast<double>(sa.size() * sb.size());
  // Samples of one run share its host phase, so only runs can carry a
  // gain, and only when the difference beats the parent's own spread.
  const bool can_gain = a.runs.size() >= 3 && b.runs.size() >= 3 &&
                        std::abs(mb - ma) > qa3 - qa1;
  if (can_gain && all_better) return "improved";
  if (std::max(spread_a, spread_b) > bound) return "unresolved";
  if (worsening(ma, mb, hb) > bound) return "worse";
  if (can_gain && static_cast<double>(wins) >= 0.9 * pairs &&
      better(mb, ma)) {
    return "improved";
  }
  return "unchanged";
}

}  // namespace

int run_compare(const std::string& a_files, const std::string& b_files,
                const std::string& bounds_path) {
  const std::map<std::string, double> bounds = load_bounds(bounds_path);
  const Side a = load_side(a_files);
  const Side b = load_side(b_files);

  TextTable table{{"workload", "metric", "unit", "A median [q1, q3]",
                   "B median [q1, q3]", "change", "bound", "verdict"}};
  bool any_worse = false;
  for (const auto& [key, sa] : a.series) {
    const auto it = b.series.find(key);
    if (it == b.series.end()) continue;
    const Series& sb = it->second;
    double bound = 0.0;
    if (!sa.simulated) {
      const auto bit = bounds.find(key.second);
      if (bit == bounds.end()) continue;  // host metric without a bound
      bound = bit->second;
    }
    const std::string v = verdict(sa, sb, bound);
    any_worse = any_worse || v == "worse";
    const double change =
        -worsening(median(sa.basis()), median(sb.basis()), sa.higher_better);
    table.add_row({key.first, key.second, sa.unit, spread_text(sa.basis()),
                   spread_text(sb.basis()), TextTable::fmt_pct(change, 2),
                   sa.simulated ? "exact" : TextTable::fmt_pct(bound, 0), v});
  }
  table.print(std::cout);
  for (const auto& [label, side] : {std::pair{"A", &a}, std::pair{"B", &b}}) {
    for (const std::string& w : side->incorrect) {
      std::cout << label << ": workload " << w << " failed its output checks\n";
      any_worse = true;
    }
  }
  std::cout << "change: positive = better; verdicts follow the bounds in "
            << bounds_path << "\n";
  return any_worse ? 1 : 0;
}

}  // namespace nvmenc::bench
