// nvmenc — command-line front-end to the simulation stack.
//
// `nvmenc` with no arguments prints the usage: every mode with the options
// it takes, then every option. Both come from the flag table in
// cli_flags.hpp, which also parses and checks each command line.
#include <chrono>
#include <csignal>
#include <iostream>
#include <sstream>
#include <vector>

#include "cli_flags.hpp"
#include "common/cancel.hpp"
#include "common/table.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/report.hpp"
#include "memsys/trace_replay.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/progress.hpp"
#include "sim/experiment.hpp"
#include "trace/synthetic.hpp"
#include "trace/text_trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_workload.hpp"

using namespace nvmenc;
using namespace nvmenc::cli;

namespace {

/// Set by the SIGINT/SIGTERM handler; the matrix polls it at write-back
/// granularity. CancellationToken is a lock-free atomic, so flipping it
/// from a signal handler is safe.
CancellationToken g_cancel;

void handle_stop_signal(int) { g_cancel.request_stop(); }

/// The memory system of a single-scheme run: the scheme's encode latency,
/// and the wear each array write costs. Wear defaults to the scheme's
/// *calibrated* flip count (the real encoder replayed over the benchmark's
/// value mix), so flip savings translate into longer life without a
/// hand-tuned constant; an explicit per-write wear overrides it (e.g. 512
/// models a raw, non-differential write path).
MemSysConfig one_scheme_memsys(const Cli& cli, Scheme scheme) {
  MemSysConfig mem = cli.mem;
  mem.org.encode_latency_ns = encode_latency_ns(scheme, cli.encode_model);
  LifetimeConfig& life = mem.ras.lifetime;
  if (cli.wear_per_write > 0.0) {
    life.wear_per_write_flips = cli.wear_per_write;
  } else if (life.endurance_mean_flips > 0.0) {
    const SchemeWriteCost cost =
        calibrate_write_cost(scheme, cli.benchmark, cli.experiment.seed);
    life.wear_per_write_flips = cost.avg_sets + cost.avg_resets;
  }
  return mem;
}

/// Run-to-failure output shared by the replay and loadgen front-ends.
void print_aging(const AgingConfig& aging, const AgingResult& result) {
  aging_table(aging, result).print(std::cout);
  std::cout << "\nsurvivor capacity curve:\n";
  capacity_curve_table(result).print(std::cout);
}

/// RAS tables, printed only when the run had a RAS layer — fault-free
/// output stays byte-identical to earlier revisions.
void print_ras(const RasReport& ras) {
  if (!ras.any()) return;
  std::cout << "\nRAS (per channel):\n";
  ras_table(ras).print(std::cout);
  if (ras.lifetime_any()) {
    std::cout << "\nlifetime (per channel):\n";
    lifetime_table(ras).print(std::cout);
  }
  if (!ras.events.empty() || ras.events_dropped > 0) {
    std::cout << "\nRAS events:\n";
    ras_events_table(ras).print(std::cout);
  }
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss{list};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int cmd_list() {
  std::cout << "schemes:\n";
  for (Scheme s : all_schemes()) {
    std::cout << "  " << scheme_name(s)
              << (is_paper_model(s) ? "   (paper accounting model)" : "")
              << "\n";
  }
  std::cout << "benchmarks:\n";
  for (const WorkloadProfile& p : spec2006_profiles()) {
    std::cout << "  " << p.name << "  (E[dirty words] "
              << TextTable::fmt(p.expected_dirty_words(), 2) << ")\n";
  }
  return 0;
}

int cmd_run(const Cli& cli) {
  const Scheme scheme = scheme_by_name(cli.scheme);
  CollectorConfig collector;
  collector.warmup_accesses = 100'000;
  collector.measured_accesses = cli.accesses;
  SyntheticWorkload workload{profile_by_name(cli.benchmark),
                             cli.experiment.seed};
  const ReplayResult r =
      replay_scheme(collect_writebacks(workload, collector), scheme);
  const ControllerStats& s = r.stats;

  TextTable table{{"metric", "value"}};
  table.add_row({"benchmark", cli.benchmark});
  table.add_row({"scheme", scheme_name(scheme)});
  table.add_row({"CPU accesses", std::to_string(cli.accesses)});
  table.add_row({"write-backs", std::to_string(s.writebacks)});
  table.add_row({"silent write-backs", std::to_string(s.silent_writebacks)});
  table.add_row({"demand reads", std::to_string(s.demand_reads)});
  table.add_row({"bit flips (data)", std::to_string(s.flips.data)});
  table.add_row({"bit flips (tag)", std::to_string(s.flips.tag)});
  table.add_row({"bit flips (flag)", std::to_string(s.flips.flag)});
  table.add_row({"flips per write-back",
                 TextTable::fmt(static_cast<double>(s.flips.total()) /
                                static_cast<double>(s.writebacks))});
  table.add_row({"tag utilization", TextTable::fmt(s.tag_utilization())});
  table.add_row({"energy (uJ)",
                 TextTable::fmt(s.energy.total_pj() / 1e6, 2)});
  table.add_row({"memory busy (ms)",
                 TextTable::fmt(s.energy.busy_ns / 1e6, 2)});
  table.print(std::cout);
  return 0;
}

int cmd_matrix(const Cli& cli) {
  std::vector<WorkloadProfile> profiles;
  if (cli.benchmarks.empty()) {
    profiles = spec2006_profiles();
  } else {
    for (const std::string& name : split_csv(cli.benchmarks)) {
      profiles.push_back(profile_by_name(name));
    }
  }
  std::vector<Scheme> schemes;
  if (cli.schemes.empty()) {
    schemes = figure_schemes();
  } else {
    schemes.push_back(Scheme::kDcw);  // the normalization baseline
    for (const std::string& name : split_csv(cli.schemes)) {
      const Scheme s = scheme_by_name(name);
      if (s != Scheme::kDcw) schemes.push_back(s);
    }
  }
  ExperimentConfig cfg = cli.experiment;
  cfg.collector.measured_accesses = cli.accesses;

  // Ctrl-C / SIGTERM stop the matrix at the next write-back boundary; the
  // completed cells are already checkpointed, the rest resume later.
  cfg.cancel = &g_cancel;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const auto matrix_start = std::chrono::steady_clock::now();
  const ExperimentMatrix m =
      run_experiment(profiles, schemes, cfg, &std::cout);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (g_cancel.stop_requested()) {
    std::cout << "\ninterrupted";
    if (cfg.checkpoint.enabled()) {
      std::cout << ": completed cells saved to " << cfg.checkpoint.dir
                << "; rerun with --resume to finish the remaining cells";
    }
    std::cout << "\n";
    return 130;
  }
  const double matrix_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    matrix_start)
          .count();
  std::cout << "\nbit flips normalized to DCW:\n";
  const TextTable flips = m.normalized_table(metric_total_flips(),
                                             Scheme::kDcw);
  flips.print(std::cout);
  std::cout << "\nenergy normalized to DCW:\n";
  const TextTable energy = m.normalized_table(metric_energy(), Scheme::kDcw);
  energy.print(std::cout);
  if (cfg.fault.active()) {
    // Per-scheme resilience totals across the healthy cells.
    TextTable res{{"scheme", "verified", "retries", "remaps", "retired",
                   "sdc", "meta fixed"}};
    for (usize s = 0; s < m.schemes().size(); ++s) {
      ResilienceStats sum;
      for (usize b = 0; b < m.benchmarks().size(); ++b) {
        if (!m.cell_ok(b, s)) continue;
        const ResilienceStats& r = m.at(b, s).stats.resilience;
        sum.verified_writes += r.verified_writes;
        sum.write_retries += r.write_retries;
        sum.safer_remaps += r.safer_remaps;
        sum.line_retirements += r.line_retirements;
        sum.sdc_detected += r.sdc_detected;
        sum.meta_corrected += r.meta_corrected;
      }
      res.add_row({scheme_name(m.schemes()[s]),
                   std::to_string(sum.verified_writes),
                   std::to_string(sum.write_retries),
                   std::to_string(sum.safer_remaps),
                   std::to_string(sum.line_retirements),
                   std::to_string(sum.sdc_detected),
                   std::to_string(sum.meta_corrected)});
    }
    std::cout << "\nresilience totals (program-and-verify):\n";
    res.print(std::cout);
  }
  if (!cli.csv_dir.empty()) {
    flips.write_csv_file(cli.csv_dir + "/matrix_flips.csv");
    energy.write_csv_file(cli.csv_dir + "/matrix_energy.csv");
    std::cout << "\n[csv] written to " << cli.csv_dir << "\n";
  }
  std::cout << "\nmatrix wall-clock: " << TextTable::fmt(matrix_secs, 2)
            << " s (jobs=" << resolve_jobs(cfg.jobs) << ")\n";
  // Graceful degradation: failed cells are reported but only an
  // all-cells-failed matrix is an error exit.
  const usize failed = m.failed_cells();
  if (failed > 0) {
    const ReplayResult* first = m.first_failure();
    std::cout << "matrix cells failed: " << failed << "/" << m.total_cells()
              << " (first: " << first->benchmark << "/" << first->scheme
              << " " << first->error->phase << ": " << first->error->message
              << ")\n";
  }
  if (failed == m.total_cells() && m.total_cells() > 0) {
    std::cerr << "error: every matrix cell failed\n";
    return 1;
  }
  return 0;
}

int cmd_trace(const Cli& cli) {
  SyntheticWorkload workload{profile_by_name(cli.benchmark),
                             cli.experiment.seed};
  ProgressReporter progress{&std::cerr};
  constexpr u64 kTickStride = 65'536;
  if (cli.format == TraceFormat::kText) {
    std::vector<MemAccess> accesses;
    accesses.reserve(cli.accesses);
    for (u64 i = 0; i < cli.accesses; ++i) {
      accesses.push_back(workload.next());
      if ((i + 1) % kTickStride == 0) {
        progress.tick("trace", i + 1, cli.accesses);
      }
    }
    write_text_trace(cli.out, accesses);
  } else {
    // Streamed: a 10^8-access capture never holds the trace in memory.
    TraceWriter writer{cli.out};
    for (u64 i = 0; i < cli.accesses; ++i) {
      writer.append(workload.next());
      if ((i + 1) % kTickStride == 0) {
        progress.tick("trace", i + 1, cli.accesses);
      }
    }
    writer.close();
  }
  std::cout << "wrote " << cli.accesses << " accesses to " << cli.out
            << "\n";
  return 0;
}

int cmd_trace_pack(const Cli& cli) {
  const std::vector<MemAccess> accesses = read_text_trace(cli.in);
  write_trace(cli.out, accesses);
  std::cout << "packed " << accesses.size() << " accesses: " << cli.in
            << " -> " << cli.out << "\n";
  return 0;
}

std::vector<MemAccess> read_any_trace(const Cli& cli) {
  return cli.format == TraceFormat::kText ? read_text_trace(cli.in)
                                          : read_trace(cli.in);
}

/// Sweep: one cell per scheme's encode latency, fanned over the workers,
/// all cells sharing one mmap of the trace (binary format only).
int cmd_replay_sweep(const Cli& cli) {
  if (cli.format == TraceFormat::kText) {
    std::cerr << "sweep replay mmaps the trace; convert it first with "
                 "`nvmenc trace pack`\n";
    return 2;
  }
  std::vector<ReplaySweepCell> cells;
  for (const std::string& name : split_csv(cli.schemes)) {
    ReplaySweepCell cell;
    cell.label = name;
    cell.encode_latency_ns =
        encode_latency_ns(scheme_by_name(name), cli.encode_model);
    cells.push_back(cell);
  }
  ProgressReporter progress{&std::cerr, cells.size()};
  const std::vector<ReplaySweepCell> out = replay_sweep(
      cli.in, cells, cli.replay, cli.mem, cli.experiment.jobs, &progress);
  replay_sweep_table(out).print(std::cout);
  return 0;
}

int cmd_replay_memsys(const Cli& cli) {
  const MemSysConfig mem = one_scheme_memsys(cli, scheme_by_name(cli.scheme));
  if (cli.mode == kMemsysAging) {
    // Accelerated aging: loop the trace until the failure condition, on
    // the open-loop engine at one worker. The whole trace is read into
    // memory rather than mmap'd — run-to-failure geometries are small by
    // design.
    const AgingResult r = run_to_failure(read_any_trace(cli), cli.aging, mem);
    print_aging(cli.aging, r);
    print_ras(r.ras);
    return 0;
  }

  ProgressReporter progress{&std::cerr};
  TraceReplayConfig replay = cli.replay;
  replay.progress = &progress;
  // One engine at every --jobs: the worker count moves only wall-clock.
  const TraceReplayResult r =
      cli.format == TraceFormat::kText
          ? replay_trace_sharded(read_text_trace(cli.in), replay, mem,
                                 cli.experiment.jobs)
          : replay_trace_sharded(MappedTrace{cli.in}, replay, mem,
                                 cli.experiment.jobs);
  replay_table(cli.in, mem.org.encode_latency_ns, replay, r)
      .print(std::cout);
  print_ras(r.ras);
  return 0;
}

/// The functional replay: the whole trace is the measured window, and the
/// caches drain into it so every written word reaches memory.
int cmd_replay(const Cli& cli) {
  const Scheme scheme = scheme_by_name(cli.scheme);
  TraceWorkload workload{read_any_trace(cli), cli.in};
  const usize n = workload.size();
  CollectorConfig collector;
  collector.warmup_accesses = 0;
  collector.measured_accesses = n;
  collector.drain = true;
  const ReplayResult r =
      replay_scheme(collect_writebacks(workload, collector), scheme);
  const ControllerStats& s = r.stats;
  TextTable table{{"metric", "value"}};
  table.add_row({"trace", cli.in});
  table.add_row({"scheme", scheme_name(scheme)});
  table.add_row({"accesses", std::to_string(n)});
  table.add_row({"write-backs", std::to_string(s.writebacks)});
  table.add_row({"bit flips", std::to_string(s.flips.total())});
  table.add_row({"tag flips", std::to_string(s.flips.tag)});
  table.add_row({"energy (uJ)",
                 TextTable::fmt(s.energy.total_pj() / 1e6, 2)});
  table.print(std::cout);
  return 0;
}

int cmd_perf(const Cli& cli) {
  CollectorConfig collector;
  collector.measured_accesses = cli.accesses;
  collector.record_requests = true;
  SyntheticWorkload workload{profile_by_name(cli.benchmark),
                             cli.experiment.seed};
  const WritebackTrace trace = collect_writebacks(workload, collector);

  MemSysConfig mem;
  mem.org.encode_latency_ns = cli.encode_ns;
  const LoadResult r = run_request_stream(trace.requests, mem);

  TextTable table{{"metric", "value"}};
  table.add_row({"benchmark", cli.benchmark});
  table.add_row({"requests", std::to_string(trace.requests.size())});
  table.add_row({"encode latency (ns)", TextTable::fmt(cli.encode_ns, 2)});
  table.add_row({"execution time (ms)",
                 TextTable::fmt(r.makespan_ns / 1e6, 2)});
  table.add_row({"avg read latency (ns)",
                 TextTable::fmt(r.stats.read_latency_ns.mean(), 1)});
  table.add_row({"row hit rate", TextTable::fmt(r.timing.row_hit_rate(), 3)});
  table.add_row({"forwarded reads", std::to_string(r.stats.forwarded_reads)});
  table.add_row({"drain episodes", std::to_string(r.stats.drains)});
  table.print(std::cout);
  return 0;
}

int cmd_loadgen(const Cli& cli) {
  const Scheme scheme = scheme_by_name(cli.scheme);
  if (is_paper_model(scheme)) {
    std::cerr << "paper-model schemes cannot serve traffic; pick a "
                 "hardware-faithful scheme\n";
    return 2;
  }
  const MemSysConfig mem = one_scheme_memsys(cli, scheme);
  if (cli.mode == kLoadgenAging) {
    const AgingResult r = run_to_failure(cli.load, cli.aging, mem);
    print_aging(cli.aging, r);
    print_ras(r.ras);
    return 0;
  }

  // The sharded mode pins each user to its home channel and runs the
  // per-channel closed loops on parallel workers (a different, pinned
  // workload — but bit-identical output for any worker count).
  const LoadResult r = cli.mode == kSharded
                           ? run_load_sharded(cli.load, mem,
                                              cli.experiment.jobs)
                           : run_load(cli.load, mem);
  load_table(scheme_name(scheme), encode_model_name(cli.encode_model),
             mem.org.encode_latency_ns, cli.load, r)
      .print(std::cout);
  print_ras(r.ras);
  return 0;
}

int run(const Cli& cli) {
  switch (cli.mode) {
    case kList: return cmd_list();
    case kRun: return cmd_run(cli);
    case kMatrix: return cmd_matrix(cli);
    case kTrace: return cmd_trace(cli);
    case kTracePack: return cmd_trace_pack(cli);
    case kReplay: return cmd_replay(cli);
    case kPerf: return cmd_perf(cli);
    case kMemsys: case kMemsysAging: return cmd_replay_memsys(cli);
    case kSweep: return cmd_replay_sweep(cli);
    case kLoadgen: case kSharded: case kLoadgenAging: return cmd_loadgen(cli);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  try {
    cli = parse_cli({argv + 1, argv + argc});
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << usage_text();
    return 2;
  }
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
