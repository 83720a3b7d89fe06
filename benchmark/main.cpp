// nvmenc_bench: one workload of the repository benchmark per process.
//
//   nvmenc_bench --workload=W [--seed=N] [--seconds=S] [--trace=0|1]
//                [--quick] [--build-dir=DIR] [--out=FILE]
//   nvmenc_bench --compare A.json[,A2.json...] B.json[,...]
//                [--bounds=BENCHMARK.json]
//
// Workloads: spec-read, spec-baselines, memsys-open-knee,
// memsys-closed-ras (see benchmark/README.md for why each exists). A run
// prints one `<workload> <metric> <value> <unit>` line per metric, writes
// the full result (samples, parameters, provenance) as JSON to --out
// (default DIR/result-W[-trace].json), and ends with one line of JSON:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json, or with --trace=1 its
// per-layer metrics. The exit code is 0 only when every output check
// passed. benchmark/run.sh builds this binary and drives it.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "json.hpp"
#include "provenance.hpp"
#include "report.hpp"

#ifndef NVMENC_COMPILER
#define NVMENC_COMPILER "unknown"
#endif

namespace nvmenc::bench {

int run_compare(const std::string& a_files, const std::string& b_files,
                const std::string& bounds_path);

namespace {

const std::vector<std::string> kWorkloads = {
    "spec-read", "spec-baselines", "memsys-open-knee", "memsys-closed-ras"};

/// BENCHMARK.json "end_to_end": the metrics every timed run reports.
const std::vector<std::string> kEndToEnd = {"ops_per_s", "setup_s",
                                            "peak_rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "nvmenc_bench: " << why << "\n"
            << "usage: nvmenc_bench --workload=W [--seed=N] [--seconds=S] "
               "[--trace=0|1] [--quick] [--build-dir=DIR] [--out=FILE]\n"
            << "       nvmenc_bench --compare A.json B.json "
               "[--bounds=BENCHMARK.json]\n"
            << "workloads: spec-read spec-baselines memsys-open-knee "
               "memsys-closed-ras\n";
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& text) {
  usize used = 0;
  u64 v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  if (used != text.size() || text.front() == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

struct Cli {
  Options options;
  std::string out;
  std::vector<std::string> compare;
  std::string bounds = "BENCHMARK.json";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  std::vector<std::string> args(argv + 1, argv + argc);
  bool have_workload = false;
  for (usize i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::optional<std::string> value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    // Flags that take a value accept "--flag=v" and "--flag v".
    auto take = [&]() -> std::string {
      if (value) return *value;
      if (i + 1 >= args.size()) usage(flag + " needs a value");
      return args[++i];
    };
    if (flag == "--workload") {
      cli.options.workload = take();
      have_workload = true;
    } else if (flag == "--seed") {
      cli.options.seed = parse_u64(flag, take());
    } else if (flag == "--seconds") {
      const u64 s = parse_u64(flag, take());
      if (s < 1 || s > 3600) usage("--seconds must be in 1..3600");
      cli.options.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      // Bare --trace means on; otherwise the value must be 0 or 1.
      if (!value && (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0)) {
        cli.options.trace = true;
        continue;
      }
      const std::string t = take();
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      cli.options.trace = t == "1";
    } else if (flag == "--quick" && !value) {
      cli.options.quick = true;
    } else if (flag == "--build-dir") {
      cli.options.build_dir = take();
    } else if (flag == "--out") {
      cli.out = take();
    } else if (flag == "--bounds") {
      cli.bounds = take();
    } else if (flag == "--compare" && !value) {
      if (i + 2 >= args.size()) usage("--compare needs two result files");
      cli.compare = {args[i + 1], args[i + 2]};
      i += 2;
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  if (!cli.compare.empty()) return cli;
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : kWorkloads) known = known || w == cli.options.workload;
  if (!known) usage("unknown workload '" + cli.options.workload + "'");
  return cli;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kHost: return "host";
    case MetricKind::kSimulated: return "simulated";
    case MetricKind::kLayer: return "layer";
  }
  return "host";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_lines(const Report& r) {
  for (const Metric& m : r.metrics()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", m.value());
    std::cout << r.workload() << " " << m.name << " " << value << " "
              << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ")";
    std::cout << "\n";
  }
}

std::string samples_json(const std::vector<double>& samples) {
  std::string out = "[";
  for (usize i = 0; i < samples.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(samples[i]);
  }
  return out + "]";
}

void write_result(const Cli& cli, const Report& r, const std::string& path) {
  const Options& o = cli.options;
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write " + path};
  out << "{\n  \"bench\": \"nvmenc_bench\",\n"
      << provenance_json(o.seed)
      << "  \"host\": {\"compiler\": " << json_quote(NVMENC_COMPILER)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "},\n"
      << "  \"workload\": " << json_quote(r.workload()) << ",\n"
      << "  \"mode\": \"" << (o.trace ? "traced" : "timed") << "\",\n"
      << "  \"quick\": " << (o.quick ? "true" : "false") << ",\n"
      << "  \"seconds\": " << json_number(o.seconds) << ",\n"
      << "  \"params\": {";
  for (usize i = 0; i < r.params().size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_quote(r.params()[i].first) << ": "
        << json_quote(r.params()[i].second);
  }
  out << "},\n  \"correct\": " << (r.failed() == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << r.attempted()
      << ",\n  \"failed\": " << r.failed() << ",\n  \"metrics\": {";
  for (usize i = 0; i < r.metrics().size(); ++i) {
    const Metric& m = r.metrics()[i];
    const auto [q1, q3] = quartiles(m.samples);
    out << (i == 0 ? "\n" : ",\n") << "    " << json_quote(m.name)
        << ": {\"value\": " << json_number(m.value())
        << ", \"unit\": " << json_quote(m.unit) << ", \"better\": \""
        << (m.higher_better ? "higher" : "lower") << "\", \"kind\": \""
        << kind_name(m.kind) << "\", \"q1\": " << json_number(q1)
        << ", \"q3\": " << json_number(q3)
        << ", \"samples\": " << samples_json(m.samples);
    if (!m.note.empty()) out << ", \"note\": " << json_quote(m.note);
    out << "}";
  }
  out << "\n  }\n}\n";
  out.close();
  if (!out) throw std::runtime_error{"error writing " + path};
}

/// The last stdout line: the metrics BENCHMARK.json declares for this mode.
void print_contract_line(const Options& o, const Report& r) {
  std::vector<std::string> names;
  if (o.trace) {
    for (const char* layer : kLayers) {
      names.push_back(std::string{layer} + ".ns_per_op");
    }
    names.emplace_back("bench.trace_overhead_frac");
  } else {
    names = kEndToEnd;
  }
  std::cout << "{\"correct\": " << (r.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted()
            << ", \"failed\": " << r.failed() << ", \"metrics\": {";
  for (usize i = 0; i < names.size(); ++i) {
    const Metric* m = r.find(names[i]);
    if (m == nullptr) throw std::logic_error{"metric " + names[i] + " missing"};
    std::cout << (i == 0 ? "" : ", ") << json_quote(m->name)
              << ": {\"value\": " << json_number(m->value())
              << ", \"unit\": " << json_quote(m->unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

int run(const Cli& cli) {
  const Options& o = cli.options;
  std::filesystem::create_directories(o.build_dir);
  Report report{o.workload};
  if (o.workload == "memsys-open-knee") {
    run_open_knee(o, report);
  } else if (o.workload == "memsys-closed-ras") {
    run_closed_ras(o, report);
  } else {
    run_spec(o, report);
  }
  report.add("peak_rss_mb", "MiB", false, MetricKind::kHost, {peak_rss_mb()});
  report.add("error_rate", "fraction", false, MetricKind::kSimulated,
             {static_cast<double>(report.failed()) /
              static_cast<double>(report.attempted())});

  const std::string path =
      !cli.out.empty() ? cli.out
                       : o.build_dir + "/result-" + o.workload +
                             (o.trace ? "-trace" : "") + ".json";
  write_result(cli, report, path);
  print_lines(report);
  print_contract_line(o, report);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nvmenc::bench

int main(int argc, char** argv) {
  using namespace nvmenc::bench;
  const Cli cli = parse(argc, argv);
  try {
    if (!cli.compare.empty()) {
      return run_compare(cli.compare[0], cli.compare[1], cli.bounds);
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "nvmenc_bench: " << e.what() << "\n";
    return 2;
  }
}
