// spec-read and spec-baselines: the paper's scheme x benchmark matrix on
// the functional simulator (cache hierarchy -> MemoryController ->
// encoders on real line data -> NvmDevice).
//
// Both run run_experiment serially over the same four SPEC stand-ins and
// window; they differ only in the scheme set. spec-read holds the paper's
// schemes (READ, READ+SAE on the SIMD kernels), where the cache filter is
// the larger share of host time; spec-baselines holds FNW, AFNW, COEF and
// CAFO, whose own encoder loops dominate. Splitting them means a change
// that speeds one family and slows the other shows as one worse row.
#include <map>
#include <optional>
#include <unordered_map>

#include "common/table.hpp"
#include "report.hpp"
#include "runner/parallel_runner.hpp"
#include "sim/experiment.hpp"
#include "trace/synthetic.hpp"
#include "tracer.hpp"

namespace nvmenc::bench {
namespace {

/// The profiles span the range of encoder load: bwaves is dominated by
/// silent write-backs, xalancbmk uses nearly every tag, sjeng is the
/// sequential-flip case and gcc sits in the middle.
const std::vector<std::string> kProfiles = {"gcc", "sjeng", "xalancbmk",
                                            "bwaves"};

/// Paper Figures 9 and 10: READ+SAE vs DCW, geomean over 12 SPEC
/// benchmarks.
constexpr double kPaperReadSaeFlips = 0.750;
constexpr double kPaperReadSaeEnergy = 0.797;

struct SpecPlan {
  std::vector<Scheme> schemes;
  Scheme headline;
  u64 warmup = 200'000;
  u64 measured = 1'000'000;
};

SpecPlan plan_for(const Options& o) {
  SpecPlan p;
  if (o.workload == "spec-read") {
    p.schemes = {Scheme::kDcw, Scheme::kRead, Scheme::kReadSae};
    p.headline = Scheme::kReadSae;
  } else {
    p.schemes = {Scheme::kDcw, Scheme::kFnw, Scheme::kAfnw, Scheme::kCoef,
                 Scheme::kCafo};
    p.headline = Scheme::kFnw;
  }
  if (o.quick) {
    p.warmup /= 10;
    p.measured /= 10;
  }
  return p;
}

std::vector<WorkloadProfile> profiles() {
  std::vector<WorkloadProfile> out;
  for (const std::string& name : kProfiles) {
    out.push_back(profile_by_name(name));
  }
  return out;
}

ExperimentConfig experiment_config(const SpecPlan& p, u64 seed, u64 scale) {
  ExperimentConfig c;
  c.seed = seed;
  c.jobs = 1;
  c.collector.warmup_accesses = p.warmup / scale;
  c.collector.measured_accesses = p.measured / scale;
  return c;
}

/// Short scheme tag used in per-layer metric names ("read_sae").
std::string scheme_tag(Scheme s) {
  switch (s) {
    case Scheme::kDcw: return "dcw";
    case Scheme::kFnw: return "fnw";
    case Scheme::kAfnw: return "afnw";
    case Scheme::kCoef: return "coef";
    case Scheme::kCafo: return "cafo";
    case Scheme::kRead: return "read";
    case Scheme::kReadSae: return "read_sae";
    default: return "other";
  }
}

bool same_histogram(const Histogram& a, const Histogram& b) {
  if (a.max_value() != b.max_value() || a.total() != b.total() ||
      a.overflow() != b.overflow()) {
    return false;
  }
  for (usize v = 0; v <= a.max_value(); ++v) {
    if (a.count(v) != b.count(v)) return false;
  }
  return true;
}

/// Bit-exact equality of two matrix cells (every counter the tables read).
bool same_cell(const ReplayResult& a, const ReplayResult& b) {
  const ControllerStats& x = a.stats;
  const ControllerStats& y = b.stats;
  return a.ok() == b.ok() && a.benchmark == b.benchmark &&
         a.scheme == b.scheme && a.meta_bits == b.meta_bits &&
         a.device_flips == b.device_flips &&
         x.demand_reads == y.demand_reads && x.writebacks == y.writebacks &&
         x.silent_writebacks == y.silent_writebacks &&
         x.flips.data == y.flips.data && x.flips.tag == y.flips.tag &&
         x.flips.flag == y.flips.flag && x.flips.sets == y.flips.sets &&
         x.flips.resets == y.flips.resets &&
         x.energy.read_pj == y.energy.read_pj &&
         x.energy.write_pj == y.energy.write_pj &&
         x.energy.logic_pj == y.energy.logic_pj &&
         x.energy.busy_ns == y.energy.busy_ns &&
         same_histogram(x.dirty_words, y.dirty_words);
}

bool same_matrix(const ExperimentMatrix& a, const ExperimentMatrix& b) {
  if (a.benchmarks() != b.benchmarks() || a.schemes() != b.schemes()) {
    return false;
  }
  for (usize i = 0; i < a.benchmarks().size(); ++i) {
    for (usize j = 0; j < a.schemes().size(); ++j) {
      if (!same_cell(a.at(i, j), b.at(i, j))) return false;
    }
  }
  return true;
}

/// Replays a pre-drawn access vector, forwarding the pristine-image
/// function of the generator that drew it, so collect_writebacks sees the
/// exact stream run_experiment would draw inline while the draw itself is
/// timed as its own layer.
class VectorWorkload final : public WorkloadGenerator {
 public:
  VectorWorkload(const std::vector<MemAccess>& stream,
                 const WorkloadGenerator& source)
      : stream_{stream}, source_{source} {}

  MemAccess next() override { return stream_.at(next_++); }
  [[nodiscard]] CacheLine initial_line(u64 line_addr) const override {
    return source_.initial_line(line_addr);
  }
  [[nodiscard]] const std::string& name() const override {
    return source_.name();
  }

 private:
  const std::vector<MemAccess>& stream_;
  const WorkloadGenerator& source_;
  usize next_ = 0;
};

struct EncodeLoop {
  u64 measured_flips = 0;
  u64 measured_writes = 0;
  bool decodes_ok = true;
  u64 decodes = 0;
};

/// The scheme's encoder alone over the cell's write-back stream (warm-up
/// then measured) on a benchmark-owned stored image — the same stored
/// lines the controller keeps in its device, minus the controller.
EncodeLoop encode_loop(const WritebackTrace& trace, Scheme scheme,
                       CallTimer& timer) {
  const EncoderPtr enc = make_encoder(scheme);
  std::unordered_map<u64, StoredLine> image;
  EncodeLoop out;
  u64 written = 0;
  auto write = [&](const WriteBack& wb, bool measured) {
    auto it = image.find(wb.line_addr);
    if (it == image.end()) {
      it = image
               .emplace(wb.line_addr,
                        enc->make_stored(trace.initial_line(wb.line_addr)))
               .first;
    }
    StoredLine& stored = it->second;
    const FlipBreakdown fb =
        timer.time([&] { return enc->encode(stored, wb.data); });
    if (measured) {
      out.measured_flips += fb.total();
      ++out.measured_writes;
    }
    if (++written % 64 == 0) {
      ++out.decodes;
      if (enc->decode(stored) != wb.data) out.decodes_ok = false;
    }
  };
  for (const WriteBack& wb : trace.warmup) write(wb, false);
  for (const WriteBack& wb : trace.measured) write(wb, true);
  return out;
}

void record_outcome(const SpecPlan& plan, const ExperimentMatrix& m,
                    Report& report) {
  const double flips =
      m.average_ratio(plan.headline, Scheme::kDcw, metric_total_flips());
  const double energy =
      m.average_ratio(plan.headline, Scheme::kDcw, metric_energy());
  std::string flips_note = scheme_name(plan.headline) +
                           " / DCW, geomean of " +
                           std::to_string(kProfiles.size()) + " profiles";
  std::string energy_note = flips_note;
  if (plan.headline == Scheme::kReadSae) {
    auto err = [](double v, double ref) {
      return "; paper " + TextTable::fmt(ref, 3) + " over 12 SPEC, error " +
             TextTable::fmt(100.0 * (v - ref) / ref, 1) + "%";
    };
    flips_note += err(flips, kPaperReadSaeFlips);
    energy_note += err(energy, kPaperReadSaeEnergy);
  }
  report.add("flips_vs_dcw", "ratio", false, MetricKind::kSimulated, {flips},
             flips_note);
  report.add("energy_vs_dcw", "ratio", false, MetricKind::kSimulated,
             {energy}, energy_note);
}

/// Per-scheme sums of the traced run.
struct SchemeLedger {
  CallTimer encode;        ///< Encoder::encode calls
  u64 encode_flips = 0;    ///< measured-window flips of the encode loop
  u64 encode_writes = 0;   ///< measured-window writes of the encode loop
  double replay_ns = 0.0;  ///< replay_scheme wall
  u64 replay_writes = 0;   ///< warm-up + measured write-backs replayed
  double energy_pj = 0.0;  ///< measured-window total energy
  u64 writebacks = 0;      ///< measured-window write-backs
};

/// The traced run: one untraced run_experiment repetition as the
/// reference, then the same matrix rebuilt layer by layer under spans
/// (draw -> cache -> replay per scheme), each cell checked against the
/// reference, plus the standalone encode loops that time Encoder::encode.
void traced_spec(const Options& o, const SpecPlan& plan,
                 const std::vector<WorkloadProfile>& profs,
                 const ExperimentConfig& cfg, Report& report) {
  const u64 per_profile =
      cfg.collector.warmup_accesses + cfg.collector.measured_accesses;
  const double ops = static_cast<double>(per_profile * profs.size());

  const double t0 = now_s();
  const ExperimentMatrix reference = run_experiment(profs, plan.schemes, cfg);
  const double untraced_ns = (now_s() - t0) * 1e9;

  Tracer tracer;
  const std::string rep = o.workload + "/rep0";
  double trace_ns = 0.0;
  double cache_ns = 0.0;
  double encode_spans_ns = 0.0;
  u64 measured_wbs = 0;
  u64 silent_wbs = 0;
  double dirty_sum = 0.0;
  std::map<Scheme, SchemeLedger> ledger;

  const double root_ns = tracer.run("matrix", "sim", rep, [&](u64) {
    for (usize b = 0; b < profs.size(); ++b) {
      const std::string req = rep + "/" + profs[b].name;
      tracer.run("profile:" + profs[b].name, "sim", req, [&](u64) {
        SyntheticWorkload source{profs[b], benchmark_seed(cfg.seed, b)};
        std::vector<MemAccess> stream;
        trace_ns += tracer.run("trace.draw", "trace", req, [&](u64 id) {
          stream.reserve(per_profile);
          for (u64 i = 0; i < per_profile; ++i) {
            stream.push_back(source.next());
          }
          tracer.arg(id, "accesses", static_cast<double>(per_profile));
        });
        VectorWorkload replayed{stream, source};
        WritebackTrace wbt;
        cache_ns += tracer.run("cache.collect", "cache", req, [&](u64 id) {
          wbt = collect_writebacks(replayed, cfg.collector);
          tracer.arg(id, "writebacks",
                     static_cast<double>(wbt.warmup.size() +
                                         wbt.measured.size()));
        });
        for (usize s = 0; s < plan.schemes.size(); ++s) {
          const Scheme scheme = plan.schemes[s];
          SchemeLedger& l = ledger[scheme];
          const std::string cell = req + "x" + scheme_name(scheme);
          ReplayResult rr;
          l.replay_ns += tracer.run(
              "nvm.replay." + scheme_tag(scheme), "nvm", cell, [&](u64) {
                rr = replay_scheme(wbt, scheme, cfg.energy, cfg.fault,
                                   b * plan.schemes.size() + s + 1);
              });
          l.replay_writes += wbt.warmup.size() + wbt.measured.size();
          l.energy_pj += rr.stats.energy.total_pj();
          l.writebacks += rr.stats.writebacks;
          report.check(same_cell(rr, reference.at(b, s)),
                       cell + ": traced cell equals run_experiment's");
          if (scheme == Scheme::kDcw) {
            measured_wbs += rr.stats.writebacks;
            silent_wbs += rr.stats.silent_writebacks;
            dirty_sum += rr.stats.dirty_words.mean() *
                         static_cast<double>(rr.stats.dirty_words.total());
          }

          EncodeLoop loop;
          encode_spans_ns += tracer.run(
              "encode." + scheme_tag(scheme), "encoding", cell, [&](u64 id) {
                CallTimer timer;
                loop = encode_loop(wbt, scheme, timer);
                tracer.args(id, "encode", timer);
                l.encode.calls += timer.calls;
                l.encode.total_ns += timer.total_ns;
              });
          l.encode_flips += loop.measured_flips;
          l.encode_writes += loop.measured_writes;
          report.check(loop.measured_flips == rr.stats.flips.total() &&
                           loop.measured_flips == rr.device_flips,
                       cell + ": encode-loop flips equal replay_scheme's");
          report.check(loop.decodes_ok && loop.decodes > 0,
                       cell + ": decode(stored) equals the written line");
        }
      });
    }
  });

  // The matrix proper is the traced run minus the benchmark-only encode
  // loops; whatever of it no layer span covers is the sim glue.
  double nvm_ns = 0.0;
  double encode_ns = 0.0;
  for (const auto& [scheme, l] : ledger) {
    nvm_ns += l.replay_ns;
    encode_ns += l.encode.net_ns();
  }
  const double matrix_ns = root_ns - encode_spans_ns;
  const double residual_ns = matrix_ns - trace_ns - cache_ns - nvm_ns;
  const double measured_accesses = static_cast<double>(
      cfg.collector.measured_accesses * profs.size());
  const double wbs = static_cast<double>(measured_wbs);

  report.layer("trace.ns_per_access", "ns", trace_ns / ops);
  report.layer("cache.ns_per_access", "ns", cache_ns / ops);
  report.layer("cache.writebacks_per_kaccess", "count",
               1e3 * wbs / measured_accesses);
  report.layer("cache.silent_wb_frac", "fraction",
               static_cast<double>(silent_wbs) / wbs);
  report.layer("cache.dirty_words_mean", "words", dirty_sum / wbs);
  for (const auto& [scheme, l] : ledger) {
    const std::string tag = scheme_tag(scheme);
    report.layer("encode." + tag + ".ns_per_write", "ns",
                 l.encode.ns_per_call());
    report.layer("encode." + tag + ".flips_per_write", "flips",
                 static_cast<double>(l.encode_flips) /
                     static_cast<double>(l.encode_writes));
    report.layer("nvm." + tag + ".ns_per_write", "ns",
                 l.replay_ns / static_cast<double>(l.replay_writes));
    report.layer("nvm." + tag + ".pj_per_write", "pJ",
                 l.energy_pj / static_cast<double>(l.writebacks));
  }
  report.layer("sim.residual_frac", "fraction", residual_ns / matrix_ns);
  report.layer("bench.trace_overhead_frac", "fraction",
               matrix_ns / untraced_ns - 1.0);
  layer_ns_per_op(report, {{"trace", trace_ns / ops},
                           {"cache", cache_ns / ops},
                           {"encoding", encode_ns / ops},
                           {"nvm", (nvm_ns - encode_ns) / ops},
                           {"sim", residual_ns / ops}});
  tracer.write_chrome(o.build_dir + "/trace-" + o.workload + ".json");
}

}  // namespace

void run_spec(const Options& o, Report& report) {
  const SpecPlan plan = plan_for(o);
  std::string schemes;
  for (const Scheme s : plan.schemes) {
    if (!schemes.empty()) schemes += ',';
    schemes += scheme_name(s);
  }
  std::string profile_list;
  for (const std::string& p : kProfiles) {
    if (!profile_list.empty()) profile_list += ',';
    profile_list += p;
  }
  report.param("profiles", profile_list);
  report.param("schemes", schemes);
  report.param("headline", scheme_name(plan.headline));
  report.param("hierarchy", "scaled");
  report.param("warmup_accesses", static_cast<double>(plan.warmup));
  report.param("measured_accesses", static_cast<double>(plan.measured));
  report.param("jobs", 1.0);
  report.param("op", "CPU access (warm-up + measured, summed over profiles)");

  // Set-up: inputs and configuration, then a 1/10-scale warm-up matrix so
  // allocator arenas, page tables and branch predictors are warm before
  // the first timed repetition.
  std::vector<WorkloadProfile> profs;
  ExperimentConfig cfg;
  const std::vector<double> setups = time_setups(3, [&] {
    profs = profiles();
    cfg = experiment_config(plan, o.seed, 1);
    const ExperimentMatrix warm = run_experiment(
        profs, plan.schemes, experiment_config(plan, o.seed, 10));
    report.check(warm.failed_cells() == 0, "warm-up matrix has no CellError");
  });

  if (o.trace) {
    traced_spec(o, plan, profs, cfg, report);
    return;
  }

  const double ops = static_cast<double>(
      (cfg.collector.warmup_accesses + cfg.collector.measured_accesses) *
      profs.size());
  std::optional<ExperimentMatrix> first;
  const std::vector<double> reps = timed_reps(o.seconds, o.quick, 3, [&] {
    ExperimentMatrix m = run_experiment(profs, plan.schemes, cfg);
    report.check(m.failed_cells() == 0, "matrix has no CellError");
    for (usize b = 0; b < m.benchmarks().size(); ++b) {
      for (usize s = 0; s < m.schemes().size(); ++s) {
        const ReplayResult& cell = m.at(b, s);
        report.check(cell.ok() && cell.device_flips ==
                                      cell.stats.flips.total(),
                     cell.benchmark + "x" + cell.scheme +
                         ": device flips equal the controller ledger");
      }
    }
    if (!first) {
      first = std::move(m);
    } else {
      report.check(same_matrix(*first, m),
                   "repetition reproduces the first matrix cell for cell");
    }
  });
  report.add("ops_per_s", "op/s", true, MetricKind::kHost, rates(ops, reps));
  report.add("setup_s", "s", false, MetricKind::kHost, setups);
  record_outcome(plan, *first, report);
}

}  // namespace nvmenc::bench
