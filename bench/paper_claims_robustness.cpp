// paper_claims sections on robustness beyond the paper's accounting: write
// faults and power cuts on the functional path (priced in energy), then
// the multi-channel memory system under load, under media faults and to
// wear-out (priced in time and writes). The memory-system sections write
// results/BENCH_memsys_latency.json, BENCH_ras_memsys.json and
// BENCH_lifetime.json under --json=<dir>.
//
// Every cell is an independent seeded simulation, fanned over the study's
// workers and read back in plan order, so no table or JSON depends on
// --jobs.
#include "paper_claims.hpp"

#include <array>
#include <iterator>

#include "common/rng.hpp"
#include "fault/power_failure.hpp"
#include "json_file.hpp"
#include "memsys/aging.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "nvm/controller.hpp"
#include "runner/parallel_runner.hpp"

namespace nvmenc::paper {
namespace {

/// The figure configuration for the functional-path sweeps: serial, since
/// they fan whole matrices over the workers, and over a shorter window at
/// --quick.
ExperimentConfig matrix_config(const Study& study) {
  ExperimentConfig cfg = study.cfg;
  cfg.jobs = 1;
  if (study.opt.quick) {
    cfg.collector.warmup_accesses = 10'000;
    cfg.collector.measured_accesses = 30'000;
  }
  return cfg;
}

/// A functional-path sweep's write-back traces, each profile collected
/// once over the sweep window. Profile b is seeded with run_experiment's
/// child seed b, so replaying its trace under a fault plan gives the cells
/// a run_experiment call with that plan would. The workloads stay alive
/// for the traces' initial_line.
struct SweepTraces {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
  std::vector<WritebackTrace> traces;
};

SweepTraces collect_sweep_traces(const Study& study,
                                 std::vector<std::string> names) {
  const ExperimentConfig cfg = matrix_config(study);
  SweepTraces out;
  out.workloads.resize(names.size());
  out.traces = grid<WritebackTrace>(
      study, names.size(), 1, [&](usize b, usize) {
        out.workloads[b] = std::make_unique<SyntheticWorkload>(
            profile_by_name(names[b]), benchmark_seed(cfg.seed, b));
        return collect_writebacks(*out.workloads[b], cfg.collector);
      });
  out.names = std::move(names);
  return out;
}

/// One matrix per fault plan over the collected traces: what
/// run_experiment(profiles, schemes, cfg) returns with cfg.fault =
/// plans[p], cell (b, s) replayed with the same fault salt
/// b * schemes + s + 1. Every (plan, cell) pair runs on the study's
/// workers.
std::vector<ExperimentMatrix> replay_plans(
    const Study& study, const SweepTraces& traces,
    const std::vector<Scheme>& schemes, const std::vector<FaultPlan>& plans) {
  const ExperimentConfig cfg = matrix_config(study);
  const usize benchmarks = traces.names.size();
  const usize cells = benchmarks * schemes.size();
  std::vector<ReplayResult> results = grid<ReplayResult>(
      study, plans.size(), cells, [&](usize p, usize i) {
        const usize b = i / schemes.size();
        const usize s = i % schemes.size();
        return replay_scheme(traces.traces[b], schemes[s], cfg.energy,
                             plans[p], b * schemes.size() + s + 1);
      });
  const auto width = static_cast<std::ptrdiff_t>(schemes.size());
  std::vector<ExperimentMatrix> matrices;
  matrices.reserve(plans.size());
  auto cell = results.begin();
  for (usize p = 0; p < plans.size(); ++p) {
    std::vector<std::vector<ReplayResult>> rows(benchmarks);
    for (std::vector<ReplayResult>& row : rows) {
      row.assign(std::make_move_iterator(cell),
                 std::make_move_iterator(cell + width));
      cell += width;
    }
    matrices.emplace_back(traces.names, schemes, std::move(rows));
  }
  return matrices;
}

CacheLine random_line(Xoshiro256& rng) {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
  return line;
}

struct CutOutcome {
  u64 total_pulses = 0;
  usize cuts_tested = 0;
  u64 rolled_forward = 0;
  u64 rolled_back = 0;
  u64 hybrids = 0;
};

/// Cut the power at ~`samples` evenly strided pulse boundaries of a
/// three-write scenario and recover after each; the logical line must
/// decode to a version from the history (old-or-new) every time.
CutOutcome sweep_cuts(Scheme scheme, u64 samples) {
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

  CutOutcome out;
  PowerFailurePlan calibration;
  {
    NvmDevice device = make_device(&calibration);
    FaultContext fault{device};
    MemoryController ctrl{config, make_encoder(scheme), device, &fault};
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
      MemoryController ctrl{config, make_encoder(scheme), device, &fault};
      completed = run_writes(ctrl);
    }
    MemoryController rebooted{config, make_encoder(scheme), device, &fault};
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

/// An encoder under load in the memory system: its scheme and the source
/// of the encode latency each array write is charged.
struct EncodePoint {
  Scheme scheme = Scheme::kDcw;
  EncodeLatencyModel model = EncodeLatencyModel::kPaper;
};

/// The saturation and RAS sections' encoders: none (DCW), READ+SAE at the
/// paper's synthesized 3.47 ns (§3.4.2), and READ+SAE at this repo's
/// measured software-kernel latency, the pessimistic bound.
constexpr std::array<EncodePoint, 3> kEncodePoints{{
    {Scheme::kDcw, EncodeLatencyModel::kPaper},
    {Scheme::kReadSae, EncodeLatencyModel::kPaper},
    {Scheme::kReadSae, EncodeLatencyModel::kMeasured},
}};

/// One closed-loop run (run_load) at one encode point.
struct LoadCell {
  EncodePoint point;
  double encode_ns = 0.0;
  LoadResult load;
};

LoadCell load_cell(EncodePoint point, const LoadGenConfig& load,
                   MemSysConfig mem) {
  mem.org.encode_latency_ns = encode_latency_ns(point.scheme, point.model);
  return {point, mem.org.encode_latency_ns, run_load(load, mem)};
}

double pct_delta(double value, double baseline) {
  if (baseline == 0.0) return 0.0;
  return (value - baseline) / baseline * 100.0;
}

/// Opens a load cell's JSON row and writes it up to its read latencies;
/// `knob` names the value the section sweeps.
void open_load_row(bench::JsonFile& json, const LoadCell& c,
                   std::string_view knob, double value) {
  const LatencyHistogram& h = c.load.stats.read_latency_ns;
  json.object()
      .field("scheme", scheme_name(c.point.scheme))
      .field("model", encode_model_name(c.point.model))
      .field("encode_ns", c.encode_ns)
      .field(knob, value)
      .field("gbps", c.load.stats.sustained_gbps())
      .field("read_mean_ns", h.mean())
      .field("read_p50_ns", h.p50())
      .field("read_p95_ns", h.p95())
      .field("read_p99_ns", h.p99())
      .field("read_p999_ns", h.p999());
}

/// `c`'s read tail and throughput against `base`'s, in percent.
void delta_fields(bench::JsonFile& json, const LoadCell& c,
                  const LoadCell& base) {
  const LatencyHistogram& h = c.load.stats.read_latency_ns;
  const LatencyHistogram& bh = base.load.stats.read_latency_ns;
  json.field("read_p99_delta_pct", pct_delta(h.p99(), bh.p99()))
      .field("read_p999_delta_pct", pct_delta(h.p999(), bh.p999()))
      .field("gbps_delta_pct", pct_delta(c.load.stats.sustained_gbps(),
                                         base.load.stats.sustained_gbps()));
}

/// The closed-loop workload both memory-system sweeps drive: 32 zipfian
/// users, 70% reads.
LoadGenConfig zipfian_users(const bench::Options& opt) {
  LoadGenConfig load;
  load.pattern = LoadPattern::kZipfian;
  load.users = 32;
  load.read_fraction = 0.7;
  load.requests = opt.quick ? 20'000 : 100'000;
  load.seed = 42;
  return load;
}

}  // namespace

// Write faults on the functional path: the transient write-fail rate swept
// across encoding schemes with the program-and-verify controller active
// (DESIGN.md §6). Two tables: total energy normalized to the same scheme's
// fault-free run (the price of verify reads and escalating re-program
// pulses), and resilience events per 1k write-backs (retries, SAFER
// remaps, line retirements, detected SDC) summed over the benchmarks. The
// RAS section prices the same media faults in time.
void faults(const Study& study, Claims& /*claims*/) {
  bench::banner("Fault sweep: program-and-verify cost vs write-fail rate");
  const SweepTraces traces =
      collect_sweep_traces(study, {"gcc", "sjeng", "milc"});
  const std::vector<Scheme> schemes{Scheme::kDcw, Scheme::kFnw,
                                    Scheme::kReadSae};
  const std::vector<double> rates{0.0, 1e-5, 1e-4, 1e-3};
  std::vector<FaultPlan> plans(rates.size(), matrix_config(study).fault);
  for (usize r = 0; r < rates.size(); ++r) {
    plans[r].inject.write_fail_rate = rates[r];
    plans[r].inject.stuck_rate = rates[r] / 100.0;
    // Rate 0 still runs the verify loop, so the energy baseline includes
    // the mandatory verify reads and the sweep isolates the cost of the
    // faults themselves (retries, remaps, retirement copies).
    plans[r].force_verify = true;
    plans[r].retry_limit = 3;
  }
  const std::vector<ExperimentMatrix> runs =
      replay_plans(study, traces, schemes, plans);

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
      for (usize b = 0; b < traces.names.size(); ++b) {
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
  bench::emit(energy, study.opt, "fault_sweep_energy");
  std::cout << "\nresilience events:\n";
  bench::emit(events, study.opt, "fault_sweep_events");
}

// Crash consistency (DESIGN.md §7): a strided power-cut sweep per hardware
// scheme, each cut recovered and its outcome tallied; no cut may leave a
// hybrid image, the old-or-new guarantee the exhaustive tier-1 test proves
// per cut. Then the guarantee's price: total energy and log-write flips of
// an atomic-writes run against the same cells without the protocol, so
// the redo-log overhead is isolated from the workload.
void power_failure(const Study& study, Claims& claims) {
  bench::banner("Power-failure sweep: old-or-new coverage and log cost");
  const std::vector<Scheme>& schemes = paper_schemes();
  const u64 samples = study.opt.quick ? 32 : 128;
  const std::vector<CutOutcome> outcomes = grid<CutOutcome>(
      study, schemes.size(), 1,
      [&](usize s, usize) { return sweep_cuts(schemes[s], samples); });

  TextTable table{{"scheme", "pulses", "cuts", "roll-fwd", "roll-back",
                   "hybrid"}};
  usize cuts = 0;
  u64 hybrids = 0;
  for (usize s = 0; s < schemes.size(); ++s) {
    const CutOutcome& out = outcomes[s];
    table.add_row({scheme_name(schemes[s]), std::to_string(out.total_pulses),
                   std::to_string(out.cuts_tested),
                   std::to_string(out.rolled_forward),
                   std::to_string(out.rolled_back),
                   std::to_string(out.hybrids)});
    cuts += out.cuts_tested;
    hybrids += out.hybrids;
  }
  std::cout << "strided power-cut sweep (hybrid must be 0):\n";
  bench::emit(table, study.opt, "powerfail_outcomes");
  claims.push_back({"Power cuts: no hybrid image at any sampled cut",
                    std::to_string(hybrids) + " hybrid in " +
                        std::to_string(cuts) + " cuts",
                    hybrids == 0});

  // The fault plan is otherwise empty, so the delta is pure redo-log
  // traffic.
  const SweepTraces traces = collect_sweep_traces(study, {"gcc", "milc"});
  std::vector<FaultPlan> plans(2, matrix_config(study).fault);
  for (usize atomic = 0; atomic < plans.size(); ++atomic) {
    plans[atomic].atomic_writes = atomic == 1;
  }
  const std::vector<ExperimentMatrix> runs =
      replay_plans(study, traces, schemes, plans);
  const ExperimentMatrix& baseline = runs[0];
  const ExperimentMatrix& atomic = runs[1];

  TextTable cost{{"scheme", "energy x", "log flips/wb"}};
  for (usize s = 0; s < schemes.size(); ++s) {
    double base_pj = 0.0;
    double atomic_pj = 0.0;
    u64 writebacks = 0;
    u64 log_flips = 0;
    for (usize b = 0; b < traces.names.size(); ++b) {
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
  bench::emit(cost, study.opt, "powerfail_cost");
}

// Saturation: where on the load curve does the encoder's write-path
// latency reach the read tail (§3.4.2)? The closed loop runs at a ladder of
// think times, from light load to saturation, at each encode point. At
// light load the write queue absorbs the encode; near saturation drains
// lengthen and p99/p99.9 read latency pays for every extra nanosecond of
// write occupancy. Write energy comes from the real encoders' flips on
// gcc's value mix. The JSON closes with a trade-off block: each encode
// point at the busiest load against DCW there.
void saturation(const Study& study, Claims& claims) {
  const bench::Options& opt = study.opt;
  bench::banner("Saturation sweep: load vs read-latency tail");
  LoadGenConfig load = zipfian_users(opt);
  load.footprint_lines = opt.quick ? (u64{1} << 16) : (u64{1} << 18);
  MemSysConfig mem;
  mem.org.channels = 2;
  const std::vector<double> thinks{1600.0, 400.0, 100.0, 25.0};
  const char* energy_profile = "gcc";

  const std::vector<LoadCell> cells = grid<LoadCell>(
      study, kEncodePoints.size(), thinks.size(), [&](usize p, usize t) {
        LoadGenConfig at = load;
        at.think_ns = thinks[t];
        return load_cell(kEncodePoints[p], at, mem);
      });
  std::vector<SchemeWriteCost> costs;
  std::vector<double> write_pj;
  for (const EncodePoint& p : kEncodePoints) {
    costs.push_back(calibrate_write_cost(p.scheme, energy_profile, load.seed));
    write_pj.push_back(
        costs.back().write_pj(EnergyParams{}, charges_encode_logic(p.scheme)));
  }

  TextTable table{{"scheme", "model", "enc_ns", "think_ns", "GB/s",
                   "p50_ns", "p95_ns", "p99_ns", "p99.9_ns", "drains",
                   "stalls", "write_pJ"}};
  for (usize i = 0; i < cells.size(); ++i) {
    const LoadCell& c = cells[i];
    const LatencyHistogram& h = c.load.stats.read_latency_ns;
    table.add_row({scheme_name(c.point.scheme),
                   encode_model_name(c.point.model),
                   TextTable::fmt(c.encode_ns, 2),
                   TextTable::fmt(thinks[i % thinks.size()], 0),
                   TextTable::fmt(c.load.stats.sustained_gbps(), 3),
                   TextTable::fmt(h.p50(), 0), TextTable::fmt(h.p95(), 0),
                   TextTable::fmt(h.p99(), 0), TextTable::fmt(h.p999(), 0),
                   std::to_string(c.load.stats.drains),
                   std::to_string(c.load.stats.write_stalls),
                   TextTable::fmt(write_pj[i / thinks.size()], 1)});
  }
  bench::emit(table, opt, "saturation_sweep");

  // DCW (the first point) and the kernel-speed encode (the last) at the
  // busiest load.
  const usize peak = static_cast<usize>(
      std::min_element(thinks.begin(), thinks.end()) - thinks.begin());
  const auto at_peak = [&](usize p) -> const LoadCell& {
    return cells[p * thinks.size() + peak];
  };
  const double dcw_p99 = at_peak(0).load.stats.read_latency_ns.p99();
  const double slow_p99 =
      at_peak(kEncodePoints.size() - 1).load.stats.read_latency_ns.p99();
  claims.push_back({"Saturation: a kernel-speed encode lifts p99 above DCW",
                    TextTable::fmt(slow_p99, 0) + " vs " +
                        TextTable::fmt(dcw_p99, 0) + " ns at think " +
                        TextTable::fmt(thinks[peak], 0) + " ns",
                    slow_p99 > dcw_p99});

  if (opt.json_dir.empty()) return;
  bench::JsonFile json{opt.json_dir, "memsys_latency", load.seed};
  json.object("config")
      .field("pattern", load_pattern_name(load.pattern))
      .field("users", load.users)
      .field("requests", load.requests)
      .field("footprint_lines", load.footprint_lines)
      .field("read_fraction", load.read_fraction)
      .field("seed", load.seed)
      .field("channels", mem.org.channels)
      .field("banks_per_channel", mem.org.ranks * mem.org.banks)
      .field("write_queue_capacity", mem.write_queue_capacity)
      .field("high_watermark", mem.high_watermark)
      .field("low_watermark", mem.low_watermark)
      .field("energy_profile", energy_profile)
      .array("think_points_ns");
  for (const double t : thinks) json.item(t);
  json.end().end().array("cells");
  for (usize i = 0; i < cells.size(); ++i) {
    const LoadCell& c = cells[i];
    const MemSysStats& s = c.load.stats;
    const SchemeWriteCost& cost = costs[i / thinks.size()];
    open_load_row(json, c, "think_ns", thinks[i % thinks.size()]);
    json.field("reads", s.reads)
        .field("writes", s.writes)
        .field("array_writes", s.array_writes)
        .field("forwarded_reads", s.forwarded_reads)
        .field("coalesced_writes", s.coalesced_writes)
        .field("write_stalls", s.write_stalls)
        .field("drains", s.drains)
        .field("row_hit_rate", c.load.timing.row_hit_rate())
        .field("makespan_ns", c.load.makespan_ns)
        .field("avg_sets", cost.avg_sets)
        .field("avg_resets", cost.avg_resets)
        .field("write_pj", write_pj[i / thinks.size()])
        .end();
  }
  json.end()
      .object("tradeoff")
      .field("baseline", scheme_name(kEncodePoints[0].scheme) + "/" +
                             encode_model_name(kEncodePoints[0].model))
      .field("at_think_ns", thinks[peak])
      .array("schemes");
  for (usize p = 0; p < kEncodePoints.size(); ++p) {
    json.object()
        .field("scheme", scheme_name(kEncodePoints[p].scheme))
        .field("model", encode_model_name(kEncodePoints[p].model));
    delta_fields(json, at_peak(p), at_peak(0));
    json.field("write_pj_delta_pct", pct_delta(write_pj[p], write_pj[0]))
        .end();
  }
  json.end().end().close();
}

// RAS: fault rate against the read tail and throughput. The closed loop
// runs near saturation, so recovery work has no slack, with the memory
// system's RAS layer active at one write-fail rate (read disturb and stuck
// cells scaled off it, background scrub on) for each encode point.
// Program-and-verify re-pulses, SAFER re-partitions, retirement copies and
// scrub repairs are charged as virtual bank occupancy, so rising fault
// rates surface in p99/p99.9 and GB/s. The JSON closes with a degradation
// block: each faulty cell against the same encode point's fault-free one.
void ras(const Study& study, Claims& /*claims*/) {
  const bench::Options& opt = study.opt;
  bench::banner("RAS sweep: fault rate vs read tail and throughput");
  LoadGenConfig load = zipfian_users(opt);
  load.think_ns = 100.0;
  load.footprint_lines = opt.quick ? (u64{1} << 14) : (u64{1} << 16);
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.ras.inject.seed = 1;
  mem.ras.scrub_interval_ns = 20'000.0;
  // The fault-free rate comes first: every point's baseline.
  const std::vector<double> rates{0.0, 1e-4, 1e-3, 1e-2};

  const std::vector<LoadCell> cells = grid<LoadCell>(
      study, kEncodePoints.size(), rates.size(), [&](usize p, usize r) {
        MemSysConfig at = mem;
        // One knob sweeps all three fault surfaces, in their usual
        // ordering: transient write failures dominate, read disturb an
        // order down, hard-stuck cells two orders down.
        at.ras.inject.write_fail_rate = rates[r];
        at.ras.inject.read_disturb_rate = rates[r] / 10.0;
        at.ras.inject.stuck_rate = rates[r] / 100.0;
        return load_cell(kEncodePoints[p], load, at);
      });

  TextTable table{{"scheme", "model", "enc_ns", "fault rate", "GB/s",
                   "p50_ns", "p99_ns", "p99.9_ns", "retries", "retired",
                   "scrub fix", "UE", "degr"}};
  for (usize i = 0; i < cells.size(); ++i) {
    const LoadCell& c = cells[i];
    const LatencyHistogram& h = c.load.stats.read_latency_ns;
    const RasStats r = c.load.ras.totals();
    table.add_row({scheme_name(c.point.scheme),
                   encode_model_name(c.point.model),
                   TextTable::fmt(c.encode_ns, 2),
                   TextTable::fmt(rates[i % rates.size()], 6),
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

  if (opt.json_dir.empty()) return;
  bench::JsonFile json{opt.json_dir, "ras_memsys", load.seed};
  json.object("config")
      .field("pattern", load_pattern_name(load.pattern))
      .field("users", load.users)
      .field("requests", load.requests)
      .field("footprint_lines", load.footprint_lines)
      .field("read_fraction", load.read_fraction)
      .field("think_ns", load.think_ns)
      .field("seed", load.seed)
      .field("channels", mem.org.channels)
      .field("retry_limit", mem.ras.retry_limit)
      .field("spare_lines", mem.ras.spare_lines)
      .field("scrub_interval_ns", mem.ras.scrub_interval_ns)
      .end()
      .array("cells");
  for (usize i = 0; i < cells.size(); ++i) {
    const LoadCell& c = cells[i];
    const RasStats r = c.load.ras.totals();
    open_load_row(json, c, "fault_rate", rates[i % rates.size()]);
    json.field("faulty_writes", r.faulty_writes)
        .field("write_retries", r.write_retries)
        .field("safer_remaps", r.safer_remaps)
        .field("retired_lines", r.retired_lines)
        .field("scrub_reads", r.scrub_reads)
        .field("scrub_corrections", r.scrub_corrections)
        .field("uncorrectable", r.uncorrectable())
        .field("degraded_channels", r.degraded)
        .field("ras_busy_ns", r.ras_busy_ns)
        .field("makespan_ns", c.load.makespan_ns)
        .end();
  }
  json.end().array("degradation");
  for (usize p = 0; p < kEncodePoints.size(); ++p) {
    const LoadCell& base = cells[p * rates.size()];
    for (usize r = 1; r < rates.size(); ++r) {
      json.object()
          .field("scheme", scheme_name(kEncodePoints[p].scheme))
          .field("model", encode_model_name(kEncodePoints[p].model))
          .field("fault_rate", rates[r]);
      delta_fields(json, cells[p * rates.size() + r], base);
      json.end();
    }
  }
  json.end().close();
}

// Lifetime (§3.5, Fig. 12): flip reduction is endurance, so a scheme that
// halves the flips per write doubles the writes a line sustains before it
// wears out. Figure 12 prices that analytically; this section prices it
// mechanistically. Every cell drives the same keyed zipfian stream through
// the same aging memory system (same endurance draws, same hot lines),
// varying only the flips each array write wears: RAW rewrites every cell
// (kLineBits flips), FNW and READ+SAE charge their encoders' calibrated
// SET+RESET counts. Encode latency is zero everywhere, so pre-failure
// traffic is identical and flips per write is the only variable.
// run_to_failure repeats the workload until the first channel trips,
// recording the survivor-capacity curve and the writes to first
// retirement and to first trip.
//
// The wear ladder is calibrated on bench::seqflip_profile(0.90), not on a
// SPEC stand-in: there FNW flips less than READ+SAE (the Fig. 9
// non-reproduction), and the paper's ordering is realized in the
// sequential-flip regime its §3.2 motivates SAE with, READ+SAE crossing
// below FNW near a complement share of 0.85 (the sequential-flips
// section).
void lifetime(const Study& study, Claims& claims) {
  const bench::Options& opt = study.opt;
  bench::banner("Lifetime sweep: writes to failure per scheme");

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

  // RAW is not a registry scheme (it is the rewrite-every-cell strawman the
  // paper measures everything against), so a point carries its flips per
  // write; 0 = calibrate from the scheme's real encoder.
  struct WearPoint {
    const char* label;
    Scheme scheme;
    double wear_per_write;
  };
  const std::vector<WearPoint> points{
      {"RAW", Scheme::kDcw, static_cast<double>(kLineBits)},
      {"FNW", Scheme::kFnw, 0.0},
      {"READ+SAE", Scheme::kReadSae, 0.0},
  };
  struct LifeCell {
    double wear_per_write = 0.0;
    AgingResult result;
  };
  const WorkloadProfile value_mix = bench::seqflip_profile(0.90);
  const std::vector<LifeCell> cells = grid<LifeCell>(
      study, points.size(), 1, [&](usize i, usize) {
        const WearPoint& p = points[i];
        MemSysConfig at = mem;
        if (p.wear_per_write > 0.0) {
          at.ras.lifetime.wear_per_write_flips = p.wear_per_write;
        } else {
          const SchemeWriteCost cost =
              calibrate_write_cost(p.scheme, value_mix, load.seed, 256, 8);
          at.ras.lifetime.wear_per_write_flips =
              cost.avg_sets + cost.avg_resets;
        }
        return LifeCell{at.ras.lifetime.wear_per_write_flips,
                        run_to_failure(load, aging, at)};
      });

  const auto capacity = [](const AgingResult& r) {
    return r.curve.empty() ? 1.0 : r.curve.back().capacity;
  };
  TextTable table{{"scheme", "flips/wr", "passes", "writes", "1st retire wr",
                   "1st trip wr", "capacity", "stop"}};
  for (usize i = 0; i < cells.size(); ++i) {
    const AgingResult& r = cells[i].result;
    table.add_row({points[i].label,
                   TextTable::fmt(cells[i].wear_per_write, 1),
                   std::to_string(r.passes),
                   std::to_string(r.total_array_writes),
                   std::to_string(r.writes_to_first_retirement),
                   std::to_string(r.writes_to_first_trip),
                   TextTable::fmt(capacity(r), 4), aging_stop_name(r.stop)});
  }
  bench::emit(table, opt, "lifetime_sweep");

  // Flip savings must buy endurance, strictly ordered.
  const u64 raw = cells[0].result.writes_to_first_retirement;
  const u64 fnw = cells[1].result.writes_to_first_retirement;
  const u64 sae = cells[2].result.writes_to_first_retirement;
  claims.push_back({"Sec. 3.5: writes to first retirement READ+SAE > FNW > RAW",
                    std::to_string(sae) + " / " + std::to_string(fnw) +
                        " / " + std::to_string(raw),
                    sae > fnw && fnw > raw});

  if (opt.json_dir.empty()) return;
  bench::JsonFile json{opt.json_dir, "lifetime", load.seed};
  json.object("config")
      .field("pattern", load_pattern_name(load.pattern))
      .field("requests_per_pass", load.requests)
      .field("footprint_lines", load.footprint_lines)
      .field("read_fraction", load.read_fraction)
      .field("seed", load.seed)
      .field("channels", mem.org.channels)
      .field("spare_lines", mem.ras.spare_lines)
      .field("endurance_mean_flips", mem.ras.lifetime.endurance_mean_flips)
      .field("endurance_sigma", mem.ras.lifetime.endurance_sigma)
      .field("age_multiplier", mem.ras.lifetime.age_multiplier)
      .field("lifetime_seed", mem.ras.lifetime.seed)
      .field("until", aging_until_name(aging.until))
      .field("max_passes", aging.max_passes)
      .field("epoch_accesses", aging.epoch_accesses)
      .end()
      .array("cells");
  for (usize i = 0; i < cells.size(); ++i) {
    const AgingResult& r = cells[i].result;
    json.object()
        .field("scheme", points[i].label)
        .field("wear_per_write_flips", cells[i].wear_per_write)
        .field("stop", aging_stop_name(r.stop))
        .field("passes", r.passes)
        .field("accesses", r.accesses)
        .field("array_writes", r.total_array_writes)
        .field("writes_to_first_retirement", r.writes_to_first_retirement)
        .field("first_retirement_ns", r.first_retirement_ns)
        .field("writes_to_first_trip", r.writes_to_first_trip)
        .field("first_trip_ns", r.first_trip_ns)
        .field("survivor_capacity", capacity(r))
        .field("makespan_ns", r.makespan_ns)
        .array("capacity_curve");
    for (const CapacityPoint& p : r.curve) {
      json.object()
          .field("array_writes", p.array_writes)
          .field("time_ns", p.time_ns)
          .field("retired", p.retired)
          .field("degraded", p.degraded)
          .field("capacity", p.capacity)
          .end();
    }
    json.end().end();
  }
  json.end().close();
}

}  // namespace nvmenc::paper
