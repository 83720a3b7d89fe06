// paper_claims sections on the paper's own figures and tables beyond the
// Figure 2 and 9-12 matrix: Figure 3's granularity curve, Figure 5's
// sequential-flip example with Table 1, and Section 3.4's overheads.
#include "paper_claims.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "core/fnw.hpp"
#include "core/paper_model.hpp"
#include "core/read_sae.hpp"
#include "encoding/dcw.hpp"
#include "memsys/loadgen.hpp"
#include "nvm/gate_model.hpp"

namespace nvmenc::paper {
namespace {

/// Cost of a 64-bit write whose low `run` bits are complemented, under a
/// fixed tag count over the word (fresh tag state).
usize fixed_tag_cost(u64 old_word, u64 new_word, usize tags) {
  const usize seg = 64 / tags;
  usize cost = 0;
  for (usize s = 0; s < tags; ++s) {
    const u64 o = (old_word >> (s * seg)) & low_mask(seg);
    const u64 n = (new_word >> (s * seg)) & low_mask(seg);
    const usize h = hamming(o, n);
    cost += std::min(h, (seg - h) + 1);
  }
  return cost;
}

}  // namespace

// Figure 3: Flip-N-Write's flip reduction vs encoding granularity on random
// data. The curve is a binomial identity, so the claim is the paper's two
// points to the printed decimal: the one end-to-end check that FnwEncoder,
// at every granularity, still yields it.
void fig3(const Study& study, Claims& claims) {
  bench::banner("Figure 3: FNW granularity vs bit-flip reduction (random)");

  const int lines = study.opt.quick ? 2'000 : 20'000;
  Xoshiro256 rng{7};
  std::vector<CacheLine> stream;
  stream.reserve(static_cast<usize>(lines));
  for (int i = 0; i < lines; ++i) {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
    stream.push_back(line);
  }

  DcwEncoder dcw;
  StoredLine dcw_stored = dcw.make_stored(stream[0]);
  usize dcw_flips = 0;
  for (usize i = 1; i < stream.size(); ++i) {
    dcw_flips += dcw.encode(dcw_stored, stream[i]).total();
  }

  TextTable table{{"granularity", "flips/DCW", "reduction", "tag share"}};
  std::string at4;
  std::string at16;
  std::vector<double> ratios;
  std::vector<double> tag_shares;
  for (const usize g : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const EncoderPtr enc = make_fnw(g);
    StoredLine stored = enc->make_stored(stream[0]);
    FlipBreakdown total;
    for (usize i = 1; i < stream.size(); ++i) {
      total += enc->encode(stored, stream[i]);
    }
    const double ratio = static_cast<double>(total.total()) /
                         static_cast<double>(dcw_flips);
    const double tag_share = static_cast<double>(total.tag) /
                             static_cast<double>(total.total());
    const std::string reduction = TextTable::fmt_pct(ratio - 1.0);
    if (g == 4) at4 = reduction;
    if (g == 16) at16 = reduction;
    ratios.push_back(ratio);
    tag_shares.push_back(tag_share);
    table.add_row({std::to_string(g), TextTable::fmt(ratio, 4), reduction,
                   TextTable::fmt(tag_share, 3)});
  }
  bench::emit(table, study.opt, "fig3_granularity_sweep");
  std::cout << "\npaper: -21.9% at granularity 4, -14.6% at 16\n";

  claims.push_back({"Fig. 3: FNW -21.9% at g = 4, -14.6% at g = 16",
                    at4 + " / " + at16,
                    at4 == "-21.9%" && at16 == "-14.6%"});
  claims.push_back(
      {"Fig. 3: saving and tag share shrink as g grows 2 -> 64",
       TextTable::fmt_pct(ratios.front() - 1.0) + " -> " +
           TextTable::fmt_pct(ratios.back() - 1.0) + ", tag share " +
           TextTable::fmt(tag_shares.front()) + " -> " +
           TextTable::fmt(tag_shares.back()),
       std::is_sorted(ratios.begin(), ratios.end()) &&
           std::is_sorted(tag_shares.rbegin(), tag_shares.rend())});
}

// Figure 5 and Table 1: the sequential-flips worked example and the
// READ+SAE granularity table. Old 0x0000...0, new 0xFFFF...F costs 16 / 8
// / 1 flips under 16 / 8 / 1 tag bits (all in the tags), and SAE picks the
// coarsest option. The crossover sweep generalizes to partial complement
// runs: fine granularity wins on short runs, coarse on long ones.
void fig5_table1(const Study& study, Claims& claims) {
  const bench::Options& opt = study.opt;
  bench::banner("Figure 5: sequential flips vs encoding granularity");

  std::string example;
  bool example_holds = true;
  {
    // The literal example: 64-bit word, old 0x0, new ~0x0.
    TextTable table{{"tag bits", "granularity", "bit flips"}};
    for (const usize tags : {16u, 8u, 4u, 2u, 1u}) {
      const usize flips = fixed_tag_cost(0, ~u64{0}, tags);
      if (!example.empty()) example += '/';
      example += std::to_string(flips);
      example_holds = example_holds && flips == tags;
      table.add_row({std::to_string(tags), std::to_string(64 / tags),
                     std::to_string(flips)});
    }
    bench::emit(table, opt, "fig5_example");
    std::cout << "paper (Fig. 5): 16 tags -> 16 flips, 8 -> 8, 1 -> 1\n\n";
  }
  claims.push_back({"Fig. 5: 16/8/4/2/1 tags cost 16/8/4/2/1 flips", example,
                    example_holds});

  usize full_complement = 0;
  {
    // Crossover sweep: complement runs of growing length. SAE, choosing
    // among 4 to 32 tags, stays near the cheapest fixed column.
    TextTable table{{"complement run", "16 tags", "4 tags", "1 tag",
                     "READ+SAE model"}};
    for (const usize run : {1u, 2u, 4u, 8u, 16u, 32u, 48u, 64u}) {
      const u64 old_word = 0;
      const u64 new_word = low_mask(run);
      PaperModelReadSae model{{.tag_budget = 32,
                               .redundant_word_aware = true,
                               .granularity_levels = 4}};
      PaperModelLineState state;
      CacheLine old_line;
      CacheLine new_line;
      new_line.set_word(0, new_word);
      const FlipBreakdown fb = model.write(state, old_line, new_line);
      full_complement = fb.data + fb.tag;
      table.add_row({std::to_string(run),
                     std::to_string(fixed_tag_cost(old_word, new_word, 16)),
                     std::to_string(fixed_tag_cost(old_word, new_word, 4)),
                     std::to_string(fixed_tag_cost(old_word, new_word, 1)),
                     std::to_string(full_complement)});
    }
    bench::emit(table, opt, "fig5_crossover");
  }
  // One dirty word at N = 32: the coarsest option leaves 4 tag bits.
  claims.push_back({"Fig. 5: READ+SAE* writes a complement with 4 tags",
                    std::to_string(full_complement) + " flips",
                    full_complement == fixed_tag_cost(0, ~u64{0}, 4)});

  std::string granularities;
  bool doubles = true;
  {
    // Table 1: READ+SAE encoding granularities for N = 32 tag bits.
    bench::banner("Table 1: encoding granularities of READ+SAE (N = 32)");
    TextTable table{{"granularity flag", "tag bits/line", "granularity",
                     "example (M=4)"}};
    for (usize f = 0; f < 4; ++f) {
      const usize bits = ReadSaeEncoder::granularity_bits(4, 32, f);
      if (f > 0) granularities += '/';
      granularities += std::to_string(bits);
      doubles = doubles && bits == usize{8} << f;
      table.add_row(
          {f == 0 ? "00" : f == 1 ? "01" : f == 2 ? "10" : "11",
           std::to_string(32 >> f),
           "64*M/" + std::to_string(32 >> f) + " * ... = " +
               std::to_string(u64{1} << f) + "*64*M/32",
           std::to_string(bits)});
    }
    bench::emit(table, opt, "table1_granularities");
  }
  claims.push_back({"Table 1: each flag step doubles the granularity",
                    "M = 4: " + granularities + " bits", doubles});
}

// Section 3.4's overhead accounting: per-scheme capacity overhead (Section
// 4.1's list) and the encoder gate/energy/latency estimates (Section
// 3.4.2: ~171 K gates, 81.65 pJ per encode, 3.47 ns at 22nm) with the gate
// model's scaling across tag budgets.
void overheads(const Study& study, Claims& claims) {
  const bench::Options& opt = study.opt;
  bench::banner("Section 3.4: capacity overhead per scheme");
  {
    TextTable table{{"scheme", "meta bits/line", "capacity overhead",
                     "paper"}};
    const char* paper[] = {"0%", "12.5%", "-", "0.2%", "9.4%", "7.8%",
                           "8.2%"};
    std::string measured;
    bool matches = true;
    usize i = 0;
    for (Scheme s : paper_schemes()) {
      const EncoderPtr enc = make_encoder(s);
      const std::string overhead =
          TextTable::fmt(enc->capacity_overhead() * 100.0, 1) + "%";
      // Not claimed: COEF, whose paper bit cannot index per-word state
      // (DESIGN.md), and AFNW, which the paper does not size.
      if (s == Scheme::kFnw || s == Scheme::kCafo || s == Scheme::kRead ||
          s == Scheme::kReadSae) {
        measured += (measured.empty() ? "" : " / ") + overhead;
        matches = matches && overhead == paper[i];
      }
      table.add_row({scheme_name(s), std::to_string(enc->meta_bits()),
                     overhead, paper[i++]});
    }
    bench::emit(table, opt, "overhead_capacity");
    claims.push_back(
        {"Sec. 3.4: capacity FNW 12.5%, CAFO 9.4%, READ 7.8%, READ+SAE 8.2%",
         measured, matches});
  }

  bench::banner("Section 3.4.2: encoder logic estimate");
  {
    TextTable table{{"tag budget", "options", "popcount", "compare", "mux",
                     "xor", "total gates"}};
    for (const usize budget : {16u, 32u, 64u}) {
      for (const usize levels : {1u, 4u}) {
        const GateEstimate g = estimate_encoder_gates(budget, levels);
        table.add_row({std::to_string(budget), std::to_string(levels),
                       std::to_string(g.popcount_gates),
                       std::to_string(g.comparator_gates),
                       std::to_string(g.mux_gates),
                       std::to_string(g.xor_gates),
                       std::to_string(g.total())});
      }
    }
    bench::emit(table, opt, "overhead_gates");
    std::cout << "\npaper synthesis (N=32, 4 options, 90nm): ~171K gates, "
                 "81.65 pJ/encode, 3.47 ns at 22nm\n";
    const EnergyParams p;
    std::cout << "energy model charges: " << p.encode_logic_pj
              << " pJ/encode, " << p.encode_latency_ns << " ns/encode\n";
    const double gates =
        static_cast<double>(estimate_encoder_gates(32, 4).total());
    claims.push_back({"Sec. 3.4.2: ~171 K gates at N = 32 with 4 options",
                      TextTable::fmt(gates, 0) + " gates",
                      std::abs(gates / 171'000.0 - 1.0) < 0.01});
  }
}

// Performance overhead of the encode latency (Section 3.4.2). The paper
// synthesizes the READ+SAE encoder at 3.47 ns and argues the performance
// impact is negligible because reads dominate and decode is nearly free.
// Each benchmark's interleaved request stream runs through the memory
// system (one blocking CPU, run_request_stream) with the encode latency
// swept from 0 to an exaggerated 200 ns; "negligible" is under 1% of
// execution time on every benchmark.
void perf_overhead(const Study& study, Claims& claims) {
  bench::banner("Section 3.4.2: performance overhead of encode latency");
  const std::vector<std::string> names{"bwaves", "sjeng", "gcc",
                                       "xalancbmk"};
  const std::vector<double> latencies{0.0, 3.47, 10.0, 50.0, 200.0};
  const std::vector<LoadResult> runs = grid<LoadResult>(
      study, names.size(), latencies.size(), [&](usize b, usize l) {
        MemSysConfig mem;
        mem.org.encode_latency_ns = latencies[l];
        return run_request_stream(study.traces.get(names[b]).requests, mem);
      });

  TextTable table{{"benchmark", "requests", "row hit", "t(0ns)", "+3.47ns",
                   "+10ns", "+50ns", "+200ns", "read lat (3.47ns)"}};
  std::vector<double> at_paper;
  std::vector<double> at_50ns;
  for (usize b = 0; b < names.size(); ++b) {
    const LoadResult* row_runs = &runs[b * latencies.size()];
    const double base_ns = row_runs[0].makespan_ns;
    std::vector<std::string> row{
        names[b], std::to_string(study.traces.get(names[b]).requests.size()),
        TextTable::fmt(row_runs[0].timing.row_hit_rate(), 3),
        TextTable::fmt(base_ns / 1e6, 2) + "ms"};
    for (usize l = 1; l < latencies.size(); ++l) {
      row.push_back(
          TextTable::fmt_pct(row_runs[l].makespan_ns / base_ns - 1.0, 2));
    }
    row.push_back(
        TextTable::fmt(row_runs[1].stats.read_latency_stat.mean(), 1) + "ns");
    table.add_row(std::move(row));
    at_paper.push_back(row_runs[1].makespan_ns / base_ns - 1.0);
    at_50ns.push_back(row_runs[3].makespan_ns / base_ns - 1.0);
  }
  bench::emit(table, study.opt, "perf_overhead");
  std::cout << "\npaper claim: 3.47 ns encode latency has negligible "
               "performance impact (reads dominate; decode is free). Writes "
               "are posted into a 64-entry FR-FCFS write queue per channel "
               "and drain in the background, so the encode rides on array "
               "writes that demand reads rarely wait for.\n";

  const double worst = *std::max_element(at_paper.begin(), at_paper.end());
  claims.push_back({"Sec. 3.4.2: a 3.47 ns encode costs < 1% time everywhere",
                    "worst " + TextTable::fmt_pct(worst, 2), worst < 0.01});
  const double worst_50 = *std::max_element(at_50ns.begin(), at_50ns.end());
  claims.push_back({"Sec. 3.4.2: even a 50 ns encode costs < 10% time",
                    "worst " + TextTable::fmt_pct(worst_50, 2),
                    worst_50 < 0.10});
}

}  // namespace nvmenc::paper
