// RAS sweep: fault rate vs read-latency tail and throughput on the
// multi-channel memory system.
//
// The synchronous controller path already prices faults in energy
// (bench/fault_sweep); this bench prices them in *time*. Each cell drives
// the closed-loop generator through the memory system with the RAS layer
// active at one write-fail rate (read disturb and stuck cells scaled off
// it, background scrub on), for each encoding scheme's write-path encode
// latency. Program-and-verify re-pulses, SAFER re-partitions, retirement
// copies, and scrub repairs are all charged as virtual bank occupancy, so
// rising fault rates surface exactly where the paper's argument lives: in
// p99/p99.9 read latency and sustained GB/s. --json=<path> emits
// results/BENCH_ras_memsys.json with a degradation block comparing each
// rate against the fault-free baseline of the same scheme.
//
// Deterministic: cells are independent (config, seed) simulations fanned
// over a ThreadPool and collected in plan order — identical output for
// any --jobs value.
#include "bench_util.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "provenance.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/thread_pool.hpp"

namespace nvmenc {
namespace {

struct SchemePoint {
  Scheme scheme = Scheme::kDcw;
  EncodeLatencyModel model = EncodeLatencyModel::kPaper;
};

struct RasCell {
  std::string scheme_label;
  std::string model;
  double encode_ns = 0.0;
  double fault_rate = 0.0;  ///< per-pulse write-fail probability
  LoadResult load;
};

/// Shortest round-trippable decimal form, locale-independent.
std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double pct_delta(double value, double baseline) {
  if (baseline == 0.0) return 0.0;
  return (value - baseline) / baseline * 100.0;
}

void write_ras_json(const std::string& path, const LoadGenConfig& load,
                    const MemSysConfig& mem,
                    const std::vector<RasCell>& cells) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"cannot write " + path};

  os << "{\n";
  os << "  \"bench\": \"ras_memsys\",\n";
  os << provenance_json(load.seed);
  os << "  \"config\": {\n";
  os << "    \"pattern\": \"" << load_pattern_name(load.pattern) << "\",\n";
  os << "    \"users\": " << load.users << ",\n";
  os << "    \"requests\": " << load.requests << ",\n";
  os << "    \"footprint_lines\": " << load.footprint_lines << ",\n";
  os << "    \"read_fraction\": " << jnum(load.read_fraction) << ",\n";
  os << "    \"think_ns\": " << jnum(load.think_ns) << ",\n";
  os << "    \"seed\": " << load.seed << ",\n";
  os << "    \"channels\": " << mem.org.channels << ",\n";
  os << "    \"retry_limit\": " << mem.ras.retry_limit << ",\n";
  os << "    \"spare_lines\": " << mem.ras.spare_lines << ",\n";
  os << "    \"scrub_interval_ns\": " << jnum(mem.ras.scrub_interval_ns)
     << "\n  },\n";

  os << "  \"cells\": [\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const RasCell& c = cells[i];
    const MemSysStats& s = c.load.stats;
    const LatencyHistogram& h = s.read_latency_ns;
    const RasStats r = c.load.ras.totals();
    os << "    {\"scheme\": \"" << c.scheme_label << "\", \"model\": \""
       << c.model << "\", \"encode_ns\": " << jnum(c.encode_ns)
       << ", \"fault_rate\": " << jnum(c.fault_rate) << ",\n";
    os << "     \"gbps\": " << jnum(s.sustained_gbps())
       << ", \"read_mean_ns\": " << jnum(h.mean())
       << ", \"read_p50_ns\": " << jnum(h.p50())
       << ", \"read_p95_ns\": " << jnum(h.p95())
       << ", \"read_p99_ns\": " << jnum(h.p99())
       << ", \"read_p999_ns\": " << jnum(h.p999()) << ",\n";
    os << "     \"faulty_writes\": " << r.faulty_writes
       << ", \"write_retries\": " << r.write_retries
       << ", \"safer_remaps\": " << r.safer_remaps
       << ", \"retired_lines\": " << r.retired_lines
       << ", \"scrub_reads\": " << r.scrub_reads
       << ", \"scrub_corrections\": " << r.scrub_corrections
       << ", \"uncorrectable\": " << r.uncorrectable()
       << ", \"degraded_channels\": " << r.degraded
       << ", \"ras_busy_ns\": " << jnum(r.ras_busy_ns)
       << ", \"makespan_ns\": " << jnum(c.load.makespan_ns) << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // Degradation block: each (scheme, rate) against the same scheme's
  // fault-free cell — the tail-latency and throughput price of the media.
  os << "  \"degradation\": [\n";
  bool first = true;
  for (const RasCell& c : cells) {
    if (c.fault_rate == 0.0) continue;
    const RasCell* base = nullptr;
    for (const RasCell& b : cells) {
      if (b.scheme_label == c.scheme_label && b.model == c.model &&
          b.fault_rate == 0.0) {
        base = &b;
      }
    }
    if (base == nullptr) continue;
    const LatencyHistogram& h = c.load.stats.read_latency_ns;
    const LatencyHistogram& bh = base->load.stats.read_latency_ns;
    os << (first ? "" : ",\n");
    first = false;
    os << "    {\"scheme\": \"" << c.scheme_label << "\", \"model\": \""
       << c.model << "\", \"fault_rate\": " << jnum(c.fault_rate)
       << ", \"read_p99_delta_pct\": " << jnum(pct_delta(h.p99(), bh.p99()))
       << ", \"read_p999_delta_pct\": "
       << jnum(pct_delta(h.p999(), bh.p999())) << ", \"gbps_delta_pct\": "
       << jnum(pct_delta(c.load.stats.sustained_gbps(),
                         base->load.stats.sustained_gbps()))
       << "}";
  }
  os << "\n  ]\n}\n";
  if (!os) throw std::runtime_error{"failed writing " + path};
}

int run(const bench::Options& opt) {
  bench::banner("ras sweep: fault rate vs read tail and throughput");

  LoadGenConfig load;
  load.pattern = LoadPattern::kZipfian;
  load.users = 32;
  load.think_ns = 100.0;  // near saturation: recovery work has no slack
  load.read_fraction = 0.7;
  load.requests = opt.quick ? 20'000 : 100'000;
  load.footprint_lines = opt.quick ? (u64{1} << 14) : (u64{1} << 16);
  load.seed = 42;

  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.inject.seed = 1;
  mem.ras.scrub_interval_ns = 20'000.0;

  const std::vector<double> rates{0.0, 1e-4, 1e-3, 1e-2};
  const std::vector<SchemePoint> schemes{
      {Scheme::kDcw, EncodeLatencyModel::kPaper},        // no encoder
      {Scheme::kReadSae, EncodeLatencyModel::kPaper},    // 3.47 ns
      {Scheme::kReadSae, EncodeLatencyModel::kMeasured}, // software bound
  };

  struct Plan {
    SchemePoint scheme;
    double rate = 0.0;
  };
  std::vector<Plan> plan;
  for (const SchemePoint& s : schemes) {
    for (const double rate : rates) plan.push_back({s, rate});
  }

  std::vector<RasCell> cells(plan.size());
  ThreadPool pool{resolve_jobs(opt.jobs)};
  parallel_for(pool, plan.size(), [&](usize i) {
    const Plan& p = plan[i];
    MemSysConfig cell_mem = mem;
    cell_mem.org.encode_latency_ns =
        encode_latency_ns(p.scheme.scheme, p.scheme.model);
    // One knob sweeps all three fault surfaces, in their usual ordering:
    // transient write failures dominate, read disturb an order down,
    // hard-stuck cells two orders down.
    cell_mem.ras.inject.write_fail_rate = p.rate;
    cell_mem.ras.inject.read_disturb_rate = p.rate / 10.0;
    cell_mem.ras.inject.stuck_rate = p.rate / 100.0;
    RasCell& out = cells[i];
    out.scheme_label = scheme_name(p.scheme.scheme);
    out.model = encode_model_name(p.scheme.model);
    out.encode_ns = cell_mem.org.encode_latency_ns;
    out.fault_rate = p.rate;
    out.load = run_load(load, cell_mem);
  });

  TextTable table{{"scheme", "model", "enc_ns", "fault rate", "GB/s",
                   "p50_ns", "p99_ns", "p99.9_ns", "retries", "retired",
                   "scrub fix", "UE", "degr"}};
  for (const RasCell& c : cells) {
    const LatencyHistogram& h = c.load.stats.read_latency_ns;
    const RasStats r = c.load.ras.totals();
    table.add_row({c.scheme_label, c.model, TextTable::fmt(c.encode_ns, 2),
                   TextTable::fmt(c.fault_rate, 6),
                   TextTable::fmt(c.load.stats.sustained_gbps(), 3),
                   TextTable::fmt(h.p50(), 0), TextTable::fmt(h.p99(), 0),
                   TextTable::fmt(h.p999(), 0),
                   std::to_string(r.write_retries),
                   std::to_string(r.retired_lines),
                   std::to_string(r.scrub_corrections),
                   std::to_string(r.uncorrectable()),
                   std::to_string(r.degraded)});
  }
  bench::emit(table, opt, "ras_sweep");
  if (!opt.json_path.empty()) {
    write_ras_json(opt.json_path, load, mem, cells);
    std::cout << "[json] " << opt.json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::bench::run_main(argc, argv, nvmenc::run,
                                 /*writes_json=*/true);
}
