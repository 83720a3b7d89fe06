// Paper claims: every figure, table, ablation and robustness sweep of
// EXPERIMENTS.md from one run, followed by a table that checks every
// qualitative claim EXPERIMENTS.md makes about them.
//
// The paper derives all five result figures from one simulation per
// benchmark: each benchmark's write-back stream is replayed through every
// scheme (Section 4.1). This bench does the same, with one run_experiment
// over figure_schemes(), and tabulates the matrix five ways:
//
//   Fig. 2   dirty words per write-back and tag utilization, read from the
//            DCW column (the write-back stream is the same for every
//            scheme);
//   Fig. 9   total bit flips / DCW;
//   Fig. 10  energy / DCW;
//   Fig. 11  tag-bit flips / Flip-N-Write, over the schemes with tags;
//   Fig. 12  lifetime under ideal wear leveling / DCW.
//
// Columns READ* / READ+SAE* / AFNW* replay the paper's idealized
// accounting model (core/paper_model.hpp); the unstarred columns are the
// hardware-faithful stateful encoders.
//
// The sections that follow (paper_claims.hpp) print Figure 3, Figure 5
// with Table 1, Section 3.4's overheads, our ablations and the robustness
// sweeps (faults, power cuts, the memory system under load, under faults
// and to wear-out) over the same run: they share its worker pool, read the
// matrix's cells where they replay the same trace, and collect every other
// trace once per (profile, seed, window). --json=<dir> receives the
// memory-system sweeps' results/BENCH_*.json.
//
// The claims table states the documented non-reproductions as measured
// facts too. A model change that flips any verdict exits 1, including one
// that silently "fixes" a non-reproduction.
#include "paper_claims.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "runner/parallel_runner.hpp"

namespace nvmenc::paper {
namespace {

/// The `schemes` columns of `m`, in that order, as a matrix of their own.
ExperimentMatrix select_schemes(const ExperimentMatrix& m,
                                const std::vector<Scheme>& schemes) {
  std::vector<std::vector<ReplayResult>> rows;
  for (const std::string& benchmark : m.benchmarks()) {
    std::vector<ReplayResult>& row = rows.emplace_back();
    for (Scheme s : schemes) row.push_back(m.at(benchmark, s));
  }
  return ExperimentMatrix{m.benchmarks(), schemes, std::move(rows)};
}

/// Benchmark `b`'s DCW statistics: its write-back stream as written.
const ControllerStats& dcw_stats(const ExperimentMatrix& m, usize b) {
  return m.at(m.benchmarks()[b], Scheme::kDcw).stats;
}

void print_fig2(const ExperimentMatrix& m, const bench::Options& opt) {
  bench::banner("Figure 2: dirty words per write-back / tag utilization");
  std::vector<std::string> header{"benchmark"};
  for (usize k = 0; k <= kWordsPerLine; ++k) {
    header.push_back(std::to_string(k) + "w");
  }
  header.push_back("utilization");
  TextTable table{std::move(header)};

  std::vector<double> utils;
  for (usize b = 0; b < m.benchmarks().size(); ++b) {
    const ControllerStats& s = dcw_stats(m, b);
    std::vector<std::string> row{m.benchmarks()[b]};
    for (usize k = 0; k <= kWordsPerLine; ++k) {
      row.push_back(TextTable::fmt(s.dirty_words.fraction(k), 3));
    }
    row.push_back(TextTable::fmt(s.tag_utilization(), 3));
    utils.push_back(s.tag_utilization());
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (usize k = 0; k <= kWordsPerLine; ++k) avg.push_back("");
  avg.push_back(TextTable::fmt(mean(utils), 3));
  table.add_row(std::move(avg));

  bench::emit(table, opt, "fig2_dirty_words");
  std::cout << "\npaper: bwaves util 8.0%, xalancbmk util 93.0%, "
               "average 57.2%\n";
}

/// One DCW-normalized figure (9, 10 or 12).
void print_vs_dcw(const ExperimentMatrix& m, const bench::Options& opt,
                  const std::string& title,
                  const ExperimentMatrix::Metric& metric,
                  const std::string& csv_name, const std::string& paper) {
  bench::banner(title);
  bench::emit(m.normalized_table(metric, Scheme::kDcw), opt, csv_name);
  std::cout << "\npaper averages vs DCW: " << paper << "\n";
}

void print_fig11(const ExperimentMatrix& tags, const bench::Options& opt) {
  bench::banner("Figure 11: tag-bit flips normalized to Flip-N-Write");
  bench::emit(tags.normalized_table(metric_tag_flips(), Scheme::kFnw), opt,
              "fig11_tag_flips");
  const double read_paper = tags.average_ratio(
      Scheme::kReadPaper, Scheme::kFnw, metric_tag_flips());
  const double rs_paper = tags.average_ratio(
      Scheme::kReadSaePaper, Scheme::kFnw, metric_tag_flips());
  std::cout << "\nSAE reduces READ's tag flips by "
            << TextTable::fmt_pct(rs_paper / read_paper - 1.0)
            << " (paper: -21.8%)\n";
  std::cout << "paper averages vs FNW: AFNW 1.234, CAFO 0.676, READ 2.457, "
               "READ+SAE 2.139\n";
}

/// The qualitative claims of EXPERIMENTS.md's Figure 9-11 sections. `m`
/// is the full matrix, `tags` its Figure 11 columns.
Claims check_claims(const ExperimentMatrix& m, const ExperimentMatrix& tags) {
  const auto flips = metric_total_flips();
  const auto energy = metric_energy();
  const auto tag_flips = metric_tag_flips();
  const auto name = [](Scheme s) { return scheme_name(s); };
  const auto fmt = [](double v) { return TextTable::fmt(v); };
  const auto avg = [&](Scheme s, const ExperimentMatrix::Metric& metric) {
    return m.average_ratio(s, Scheme::kDcw, metric);
  };
  const auto tag_avg = [&](Scheme s) {
    return tags.average_ratio(s, Scheme::kFnw, tag_flips);
  };
  std::vector<Scheme> encoders;
  for (Scheme s : m.schemes()) {
    if (s != Scheme::kDcw) encoders.push_back(s);
  }
  Claims claims;

  // Every scheme saves flips and energy; energy is the flip saving diluted
  // by the scheme-independent read energy.
  for (const auto& [statement, metric] :
       {std::pair{"Fig. 9: every scheme's average < 1", flips},
        std::pair{"Fig. 10: every scheme's average < 1", energy}}) {
    const Scheme worst = *std::max_element(
        encoders.begin(), encoders.end(),
        [&](Scheme a, Scheme b) { return avg(a, metric) < avg(b, metric); });
    claims.push_back({statement,
                      "highest " + name(worst) + " " + fmt(avg(worst, metric)),
                      avg(worst, metric) < 1.0});
  }
  const Scheme closest = *std::min_element(
      encoders.begin(), encoders.end(), [&](Scheme a, Scheme b) {
        return avg(a, energy) - avg(a, flips) < avg(b, energy) - avg(b, flips);
      });
  claims.push_back({"Fig. 10: every scheme's average >= its Fig. 9",
                    "closest " + name(closest) + " " +
                        fmt(avg(closest, flips)) + " vs " +
                        fmt(avg(closest, energy)),
                    avg(closest, flips) <= avg(closest, energy)});

  // SAE never costs READ flips on any profile, under either accounting.
  for (const auto& [plain, sae] :
       {std::pair{Scheme::kRead, Scheme::kReadSae},
        std::pair{Scheme::kReadPaper, Scheme::kReadSaePaper}}) {
    double margin = -1.0;
    usize at = 0;
    for (usize b = 0; b < m.benchmarks().size(); ++b) {
      const double d = m.ratio(b, sae, Scheme::kDcw, flips) -
                       m.ratio(b, plain, Scheme::kDcw, flips);
      if (d > margin) {
        margin = d;
        at = b;
      }
    }
    claims.push_back({"Fig. 9: " + name(sae) + " <= " + name(plain) +
                          " on every benchmark",
                      "closest " + m.benchmarks()[at] + " " +
                          TextTable::fmt(margin, 4),
                      margin <= 0.0});
  }

  // sjeng, the sequential-flip-rich profile, gains most under every scheme.
  usize sjeng_lowest = 0;
  std::string miss;
  for (Scheme s : encoders) {
    usize lowest = 0;
    for (usize b = 1; b < m.benchmarks().size(); ++b) {
      if (m.ratio(b, s, Scheme::kDcw, flips) <
          m.ratio(lowest, s, Scheme::kDcw, flips)) {
        lowest = b;
      }
    }
    if (m.benchmarks()[lowest] == "sjeng") {
      ++sjeng_lowest;
    } else if (miss.empty()) {
      miss = "; " + name(s) + ": " + m.benchmarks()[lowest];
    }
  }
  claims.push_back({"Fig. 9: sjeng is every scheme's lowest",
                    std::to_string(sjeng_lowest) + "/" +
                        std::to_string(encoders.size()) + " schemes" + miss,
                    sjeng_lowest == encoders.size()});

  // SAE cuts READ's tag flips; CAFO has the fewest.
  for (const auto& [plain, sae] :
       {std::pair{Scheme::kReadPaper, Scheme::kReadSaePaper},
        std::pair{Scheme::kRead, Scheme::kReadSae}}) {
    claims.push_back({"Fig. 11: " + name(sae) + " < " + name(plain) +
                          " (average)",
                      fmt(tag_avg(sae)) + " vs " + fmt(tag_avg(plain)),
                      tag_avg(sae) < tag_avg(plain)});
  }
  const Scheme fewest = *std::min_element(
      tags.schemes().begin(), tags.schemes().end(),
      [&](Scheme a, Scheme b) { return tag_avg(a) < tag_avg(b); });
  claims.push_back({"Fig. 11: CAFO has the lowest average",
                    "lowest " + name(fewest) + " " + fmt(tag_avg(fewest)),
                    fewest == Scheme::kCafo});

  // READ* has more tag flips than FNW only where few words are dirty (the
  // lowest Fig. 2 utilizations, the paper's regime), and fewer on average.
  double over_util = 0.0;
  double under_util = 1.0;
  std::string over;
  for (usize b = 0; b < tags.benchmarks().size(); ++b) {
    const double r =
        tags.ratio(b, Scheme::kReadPaper, Scheme::kFnw, tag_flips);
    if (r > 1.0) {
      over += (over.empty() ? "" : ", ") + tags.benchmarks()[b] + " " + fmt(r);
      over_util = std::max(over_util, dcw_stats(m, b).tag_utilization());
    } else {
      under_util = std::min(under_util, dcw_stats(m, b).tag_utilization());
    }
  }
  claims.push_back(
      {"Fig. 11: READ* > 1 only at the lowest utilizations",
       (over.empty() ? "none" : over) + "; average " +
           fmt(tag_avg(Scheme::kReadPaper)),
       !over.empty() && over_util < under_util &&
           tag_avg(Scheme::kReadPaper) < 1.0});

  // The documented non-reproductions, stated as the measured facts.
  for (Scheme s : {Scheme::kReadSaePaper, Scheme::kReadSae, Scheme::kCafo}) {
    claims.push_back({"Fig. 9 not reproduced: FNW < " + name(s) +
                          " (average)",
                      fmt(avg(Scheme::kFnw, flips)) + " vs " +
                          fmt(avg(s, flips)),
                      avg(Scheme::kFnw, flips) < avg(s, flips)});
  }
  std::vector<Scheme> ranked = encoders;
  std::sort(ranked.begin(), ranked.end(), [&](Scheme a, Scheme b) {
    return avg(a, flips) > avg(b, flips);
  });
  claims.push_back({"Fig. 9 not reproduced: COEF is the weakest",
                    "highest " + name(ranked[0]) + " " +
                        fmt(avg(ranked[0], flips)) + ", next " +
                        name(ranked[1]) + " " + fmt(avg(ranked[1], flips)),
                    ranked[0] == Scheme::kCoef});
  return claims;
}

int run(const bench::Options& opt) {
  bench::banner("Paper claims: Figures 2 and 9-12 from one matrix");
  const ExperimentConfig cfg = bench::figure_config(opt);
  // SAE-only rides along for the component split, which reads its bwaves
  // cells from this matrix.
  std::vector<Scheme> schemes = figure_schemes();
  schemes.push_back(Scheme::kSaeOnly);
  const ExperimentMatrix all =
      run_experiment(spec2006_profiles(), schemes, cfg, &std::cout);
  const ExperimentMatrix m = select_schemes(all, figure_schemes());
  const ExperimentMatrix tags = select_schemes(
      m, {Scheme::kFnw, Scheme::kAfnw, Scheme::kCafo, Scheme::kReadPaper,
          Scheme::kReadSaePaper, Scheme::kRead, Scheme::kReadSae});

  print_fig2(m, opt);
  print_vs_dcw(m, opt, "Figure 9: bit flips normalized to DCW",
               metric_total_flips(), "fig9_bit_flips",
               "FNW 0.849, AFNW 0.949, COEF 0.875, CAFO 0.822, READ 0.768, "
               "READ+SAE 0.750");
  print_vs_dcw(m, opt, "Figure 10: energy normalized to DCW", metric_energy(),
               "fig10_energy",
               "FNW 0.876, AFNW 0.964, COEF 0.908, CAFO 0.834, READ 0.808, "
               "READ+SAE 0.797");
  print_fig11(tags, opt);
  print_vs_dcw(m, opt, "Figure 12: lifetime normalized to DCW (ideal WL)",
               metric_lifetime(), "fig12_lifetime",
               "FNW 1.343, AFNW 1.153, COEF 1.179, CAFO 1.351, READ 1.462, "
               "READ+SAE 1.521");

  if (const ReplayResult* bad = all.first_failure()) {
    std::cerr << "FAIL: " << all.failed_cells() << "/" << all.total_cells()
              << " matrix cells failed (first: " << bad->benchmark << "/"
              << bad->scheme << " " << bad->error->phase << ": "
              << bad->error->message << "); claims not checked\n";
    return 1;
  }
  Claims claims = check_claims(m, tags);

  const std::unique_ptr<ThreadPool> pool = pool_for(resolve_jobs(opt.jobs));
  Traces traces{cfg};
  const Study study{opt, cfg, pool.get(), all, traces};
  for (const auto section :
       {fig3, fig5_table1, overheads, perf_overhead, read_sae_ablation,
        sequential_flips, meta_wear, mixes, mlc, encryption, compression,
        wear_leveling, faults, power_failure, saturation, ras, lifetime}) {
    section(study, claims);
  }

  bench::banner("Claims (EXPERIMENTS.md)");
  TextTable table{{"claim", "measured", "verdict"}};
  usize failed = 0;
  for (const Claim& c : claims) {
    table.add_row({c.statement, c.measured, c.holds ? "PASS" : "FAIL"});
    if (!c.holds) ++failed;
  }
  table.print(std::cout);
  if (failed > 0) {
    std::cerr << "FAIL: " << failed << " of " << table.rows()
              << " claims no longer hold\n";
    return 1;
  }
  std::cout << "\nall " << table.rows() << " claims hold\n";
  return 0;
}

}  // namespace
}  // namespace nvmenc::paper

int main(int argc, char** argv) {
  return nvmenc::bench::run_main(argc, argv, nvmenc::paper::run);
}
