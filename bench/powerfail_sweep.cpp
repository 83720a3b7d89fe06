// powerfail_sweep: crash-consistency coverage and commit-protocol cost.
//
// Two tables for DESIGN.md §7:
//   * a strided power-cut sweep per hardware scheme — calibrate the pulse
//     count of a three-write scenario, cut the power at sampled pulse
//     boundaries, recover, and tally the outcome (roll-forward vs
//     roll-back). The hybrid column is the headline: it must read 0, the
//     old-or-new guarantee the exhaustive tier-1 test proves per-cut.
//   * the price of that guarantee — total energy and log-write flips of an
//     atomic-writes run normalized against the same cells without the
//     protocol, so the redo-log overhead is isolated from the workload.
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/schemes.hpp"
#include "fault/power_failure.hpp"
#include "nvm/controller.hpp"
#include "runner/parallel_runner.hpp"

namespace nvmenc {
namespace {

CacheLine random_line(Xoshiro256& rng) {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
  return line;
}

struct SweepOutcome {
  u64 total_pulses = 0;
  usize cuts_tested = 0;
  u64 rolled_forward = 0;
  u64 rolled_back = 0;
  u64 hybrids = 0;
};

/// Cut the power at ~`samples` evenly strided pulse boundaries of a
/// three-write scenario and recover after each; the logical line must
/// decode to a version from the history (old-or-new) every time.
SweepOutcome sweep_scheme(Scheme scheme, u64 samples) {
  ControllerConfig config;
  config.verify.atomic_writes = true;
  const u64 addr = 0x40;
  Xoshiro256 rng{0xBADC0FFEE ^ static_cast<u64>(scheme)};
  std::vector<CacheLine> versions;
  versions.emplace_back();
  for (int i = 0; i < 3; ++i) versions.push_back(random_line(rng));

  auto make_device = [scheme](PowerFailurePlan* plan) {
    NvmDeviceConfig dc;
    dc.power = plan;
    return NvmDevice{dc, [scheme](u64) {
                       return make_encoder(scheme)->make_stored(CacheLine{});
                     }};
  };
  auto run_writes = [&](MemoryController& ctrl) {
    usize completed = 0;
    try {
      for (usize i = 1; i < versions.size(); ++i) {
        ctrl.write_line(addr, versions[i]);
        ++completed;
      }
    } catch (const PowerLossError&) {
    }
    return completed;
  };

  SweepOutcome out;
  PowerFailurePlan calibration;
  {
    NvmDevice device = make_device(&calibration);
    FaultContext fault{device};
    MemoryController ctrl{config, make_encoder(scheme), device, nullptr,
                          &fault};
    (void)run_writes(ctrl);
  }
  out.total_pulses = calibration.pulses_seen;
  const u64 stride = std::max<u64>(1, out.total_pulses / samples);

  for (u64 cut = 0; cut < out.total_pulses; cut += stride) {
    PowerFailurePlan plan;
    plan.cut_after_pulses = cut;
    NvmDevice device = make_device(&plan);
    FaultContext fault{device};
    usize completed = 0;
    {
      MemoryController ctrl{config, make_encoder(scheme), device, nullptr,
                            &fault};
      completed = run_writes(ctrl);
    }
    MemoryController rebooted{config, make_encoder(scheme), device, nullptr,
                              &fault};
    rebooted.recover();
    const CacheLine recovered = rebooted.read_line(addr);
    const CacheLine& old_image = versions[completed];
    const CacheLine& new_image =
        versions[std::min(completed + 1, versions.size() - 1)];
    if (recovered != old_image && recovered != new_image) ++out.hybrids;
    out.rolled_forward += rebooted.stats().resilience.rolled_forward;
    out.rolled_back += rebooted.stats().resilience.rolled_back;
    ++out.cuts_tested;
  }
  return out;
}

int run(const bench::Options& opt) {
  bench::banner("power-failure sweep: old-or-new coverage and log cost");

  TextTable outcomes{{"scheme", "pulses", "cuts", "roll-fwd", "roll-back",
                      "hybrid"}};
  const u64 samples = opt.quick ? 32 : 128;
  for (const Scheme scheme : paper_schemes()) {
    const SweepOutcome out = sweep_scheme(scheme, samples);
    outcomes.add_row({scheme_name(scheme), std::to_string(out.total_pulses),
                      std::to_string(out.cuts_tested),
                      std::to_string(out.rolled_forward),
                      std::to_string(out.rolled_back),
                      std::to_string(out.hybrids)});
  }
  std::cout << "strided power-cut sweep (hybrid must be 0):\n";
  bench::emit(outcomes, opt, "powerfail_outcomes");

  // Protocol cost: the same matrix with and without atomic writes. The
  // fault plan is otherwise empty, so the delta is pure redo-log traffic.
  const std::vector<std::string> benchmark_names{"gcc", "milc"};
  std::vector<WorkloadProfile> profiles;
  for (const std::string& name : benchmark_names) {
    profiles.push_back(profile_by_name(name));
  }
  ExperimentConfig cfg = bench::figure_config(opt);
  if (opt.quick) {
    cfg.collector.warmup_accesses = 10'000;
    cfg.collector.measured_accesses = 30'000;
  }
  const std::vector<Scheme> schemes = paper_schemes();
  const ExperimentMatrix baseline =
      run_experiment(profiles, schemes, cfg, nullptr);
  cfg.fault.atomic_writes = true;
  const ExperimentMatrix atomic =
      run_experiment(profiles, schemes, cfg, nullptr);

  TextTable cost{{"scheme", "energy x", "log flips/wb"}};
  for (usize s = 0; s < schemes.size(); ++s) {
    double base_pj = 0.0;
    double atomic_pj = 0.0;
    u64 writebacks = 0;
    u64 log_flips = 0;
    for (usize b = 0; b < profiles.size(); ++b) {
      base_pj += baseline.at(b, s).stats.energy.total_pj();
      atomic_pj += atomic.at(b, s).stats.energy.total_pj();
      writebacks += atomic.at(b, s).stats.writebacks;
      log_flips += atomic.at(b, s).stats.resilience.atomic_log_flips;
    }
    cost.add_row({scheme_name(schemes[s]),
                  TextTable::fmt(atomic_pj / base_pj, 3),
                  TextTable::fmt(static_cast<double>(log_flips) /
                                     static_cast<double>(writebacks),
                                 1)});
  }
  std::cout << "\natomic-commit overhead vs the unprotected run:\n";
  bench::emit(cost, opt, "powerfail_cost");
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::bench::run_main(argc, argv, nvmenc::run);
}
