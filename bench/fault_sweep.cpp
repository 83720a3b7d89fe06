// fault_sweep: energy and resilience-event cost of write faults.
//
// Sweeps the transient write-failure rate across encoding schemes with the
// program-and-verify controller active (DESIGN.md §6). Two tables:
//   * total energy normalized to the same scheme's fault-free run — the
//     price of verify reads and escalating re-program pulses;
//   * resilience events per 1k write-backs (retries, SAFER remaps, line
//     retirements, detected SDC) summed over the benchmarks.
// The sweep seeds every (rate, benchmark, scheme) cell deterministically,
// so --jobs only changes wall-clock, never the numbers.
//
// This bench exercises the *synchronous controller* fault surface
// (MemoryController + program-and-verify, priced in energy). The timing
// fault surface — the same media faults charged as virtual bank occupancy
// inside the multi-channel memory system, priced in tail latency and
// GB/s — lives in bench/ras_sweep (DESIGN.md §12). Run both to see a
// fault rate's full cost: energy here, service time there.
#include <vector>

#include "bench_util.hpp"
#include "runner/parallel_runner.hpp"

namespace nvmenc {
namespace {

int run(const bench::Options& opt) {
  const std::vector<std::string> benchmark_names{"gcc", "sjeng", "milc"};
  std::vector<WorkloadProfile> profiles;
  for (const std::string& name : benchmark_names) {
    profiles.push_back(profile_by_name(name));
  }
  const std::vector<Scheme> schemes{Scheme::kDcw, Scheme::kFnw,
                                    Scheme::kReadSae};
  const std::vector<double> rates{0.0, 1e-5, 1e-4, 1e-3};

  ExperimentConfig cfg = bench::figure_config(opt);
  if (opt.quick) {
    cfg.collector.warmup_accesses = 10'000;
    cfg.collector.measured_accesses = 30'000;
  }

  bench::banner("fault sweep: program-and-verify cost vs write-fail rate");

  std::vector<ExperimentMatrix> runs;
  runs.reserve(rates.size());
  for (const double rate : rates) {
    cfg.fault.inject.write_fail_rate = rate;
    cfg.fault.inject.stuck_rate = rate / 100.0;
    // Rate 0 still runs the verify loop, so the energy baseline includes
    // the mandatory verify reads and the sweep isolates the cost of the
    // faults themselves (retries, remaps, retirement copies).
    cfg.fault.force_verify = true;
    cfg.fault.retry_limit = 3;
    runs.push_back(run_experiment(profiles, schemes, cfg, nullptr));
  }

  TextTable energy{[&] {
    std::vector<std::string> header{"fault rate"};
    for (Scheme s : schemes) header.push_back(scheme_name(s));
    return header;
  }()};
  TextTable events{{"fault rate", "scheme", "retries/1k wb", "remaps/1k wb",
                    "retired/1k wb", "sdc"}};

  for (usize r = 0; r < rates.size(); ++r) {
    std::vector<std::string> row{TextTable::fmt(rates[r], 6)};
    for (usize s = 0; s < schemes.size(); ++s) {
      double pj = 0.0;
      double base_pj = 0.0;
      u64 writebacks = 0;
      ResilienceStats sum;
      for (usize b = 0; b < profiles.size(); ++b) {
        pj += runs[r].at(b, s).stats.energy.total_pj();
        base_pj += runs[0].at(b, s).stats.energy.total_pj();
        writebacks += runs[r].at(b, s).stats.writebacks;
        const ResilienceStats& cell = runs[r].at(b, s).stats.resilience;
        sum.write_retries += cell.write_retries;
        sum.safer_remaps += cell.safer_remaps;
        sum.line_retirements += cell.line_retirements;
        sum.sdc_detected += cell.sdc_detected;
      }
      row.push_back(TextTable::fmt(pj / base_pj, 4));
      const double per_k =
          writebacks == 0 ? 0.0 : 1000.0 / static_cast<double>(writebacks);
      events.add_row(
          {TextTable::fmt(rates[r], 6), scheme_name(schemes[s]),
           TextTable::fmt(static_cast<double>(sum.write_retries) * per_k, 2),
           TextTable::fmt(static_cast<double>(sum.safer_remaps) * per_k, 3),
           TextTable::fmt(static_cast<double>(sum.line_retirements) * per_k,
                          3),
           std::to_string(sum.sdc_detected)});
    }
    energy.add_row(std::move(row));
  }

  std::cout << "energy normalized to the scheme's fault-free run:\n";
  bench::emit(energy, opt, "fault_sweep_energy");
  std::cout << "\nresilience events:\n";
  bench::emit(events, opt, "fault_sweep_events");
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::bench::run_main(argc, argv, nvmenc::run);
}
