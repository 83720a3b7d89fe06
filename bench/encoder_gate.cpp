// Perf-regression gate for the SIMD encode kernels.
//
// Measures READ+SAE encode cost twice in one process: on the host's best
// SIMD tier and on the forced-scalar oracle (AdaptiveConfig::simd). The
// gate metric is the RATIO vector_ns / scalar_ns, not an absolute time:
// the scalar path runs on the same machine under the same load, so the
// ratio survives CI-runner heterogeneity that would make a wall-clock
// threshold flap. A kernel regression that slows only the vector path
// raises the ratio; one that slows both paths equally is a build-wide
// problem other benchmarks catch.
//
// The committed baseline lives in results/PERF_GATE_encoder.json as
// {"baseline_ratio": R} — the centered minimum-estimator ratio measured
// on the reference machine. The gate fails (exit 1) when the measured
// ratio exceeds R * (1 + headroom). Headroom is 5%: natural run-to-run
// spread of the interleaved minimum estimator is under ±2%, so 5% never
// fires on noise, and any slowdown past it — in particular the 10% the
// acceptance bar names — is rejected with margin on both sides. Set
// NVMENC_GATE_INJECT=P to inflate the measured vector time by P percent —
// the CI self-test that proves the gate actually rejects a slowdown (see
// ci.yml perf-gate job).
//
// A second interleaved run times Flip-N-Write (8-bit blocks, best tier)
// against READ+SAE's vector tier. FNW is one fixed-width pass of the
// segment kernels READ+SAE evaluates at four granularities, so the gate
// also fails when FNW costs more ns/line than READ+SAE there.
//
//   encoder_gate [--baseline=results/PERF_GATE_encoder.json]
//                [--writes=N] [--reps=R] [--print-ratio]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/fnw.hpp"
#include "core/read_sae.hpp"
#include "core/simd.hpp"

namespace nvmenc {
namespace {

std::vector<CacheLine> make_stream(usize n, u64 seed) {
  // Same value mix as bench/encoder_throughput: zero, small-int and
  // random words, so dirty-word counts span the granularity levels.
  Xoshiro256 rng{seed};
  std::vector<CacheLine> lines;
  lines.reserve(n);
  for (usize i = 0; i < n; ++i) {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      switch (rng.next_below(4)) {
        case 0: break;
        case 1: line.set_word(w, rng.next() & 0xFFFF); break;
        default: line.set_word(w, rng.next()); break;
      }
    }
    lines.push_back(line);
  }
  return lines;
}

/// One timed slice: `writes` encodes over a recycled stream, total ns.
double time_encode_slice(const Encoder& enc,
                         const std::vector<CacheLine>& stream, usize writes,
                         usize phase) {
  StoredLine stored = enc.make_stored(stream[phase % stream.size()]);
  usize flips = 0;  // data dependency so the loop cannot be elided
  const auto start = std::chrono::steady_clock::now();
  for (usize i = 0; i < writes; ++i) {
    flips += enc.encode(stored, stream[(phase + i) % stream.size()]).total();
  }
  const auto end = std::chrono::steady_clock::now();
  if (flips == usize(-1)) std::abort();
  return std::chrono::duration<double, std::nano>(end - start).count();
}

/// Per-line ns of two encoders timed in SLICES a few milliseconds long,
/// strictly alternating (A B A B …) within every repetition, so a load
/// spike or frequency dip on a busy CI runner lands on both almost equally
/// and cancels out of their ratio. Each repetition yields one (A, B) pair;
/// the result is the repetition with the fastest combined time (the
/// minimum is the classic low-noise estimator: interference only ever
/// adds time).
std::pair<double, double> interleaved_ns(const Encoder& a, const Encoder& b,
                                         const std::vector<CacheLine>& stream,
                                         usize writes, usize reps) {
  constexpr usize kSlices = 16;
  const usize slice = writes / kSlices + 1;

  // Warm-up (page-in, branch predictors, frequency governor).
  (void)time_encode_slice(a, stream, slice, 0);
  (void)time_encode_slice(b, stream, slice, 0);

  double best_a = 1e300;
  double best_b = 1e300;
  for (usize r = 0; r < reps; ++r) {
    double total_a = 0.0;
    double total_b = 0.0;
    for (usize s = 0; s < kSlices; ++s) {
      total_a += time_encode_slice(a, stream, slice, s * slice);
      total_b += time_encode_slice(b, stream, slice, s * slice);
    }
    if (total_a + total_b < best_a + best_b) {
      best_a = total_a;
      best_b = total_b;
    }
  }
  const double n = static_cast<double>(kSlices) * static_cast<double>(slice);
  return {best_a / n, best_b / n};
}

struct Measurement {
  double scalar_ns = 0.0;  ///< READ+SAE, ns per line
  double vector_ns = 0.0;
  double fnw_ns = 0.0;         ///< FNW8 on the best tier
  double fnw_anchor_ns = 0.0;  ///< READ+SAE vector, timed against FNW
};

/// READ+SAE scalar against vector (the ratio gate), then READ+SAE vector
/// against FNW. FNW gets its own interleaved run: as a third encoder in
/// the first run's slices it raised the vector/scalar ratio by 2-5 %,
/// most of the ratio gate's headroom.
Measurement measure(usize writes, usize reps) {
  AdaptiveConfig scalar_config;
  scalar_config.simd = SimdTier::kScalar;
  AdaptiveConfig vector_config;
  vector_config.simd = detect_simd_tier();
  const ReadSaeEncoder scalar_enc{scalar_config};
  const ReadSaeEncoder vector_enc{vector_config};
  set_default_simd_tier(detect_simd_tier());  // FNW captures it
  const FnwEncoder fnw_enc{8};
  const std::vector<CacheLine> stream = make_stream(4096, 99);

  Measurement m;
  std::tie(m.scalar_ns, m.vector_ns) =
      interleaved_ns(scalar_enc, vector_enc, stream, writes, reps);
  std::tie(m.fnw_anchor_ns, m.fnw_ns) =
      interleaved_ns(vector_enc, fnw_enc, stream, writes, reps);
  return m;
}

int run_gate(int argc, char** argv) {
  const bench::GateOptions opt = bench::parse_gate_options(
      argc, argv, "--writes", {"results/PERF_GATE_encoder.json", 50'000});

  if (detect_simd_tier() == SimdTier::kScalar) {
    // Nothing to gate: scalar vs scalar is 1.0 by construction.
    std::cout << "encoder_gate: host has no vector tier; gate skipped\n";
    return 0;
  }

  Measurement m = measure(opt.count, opt.reps);
  // Self-test hook: pretend the vector kernels got P percent slower.
  m.vector_ns *= 1.0 + opt.inject_pct / 100.0;
  const double ratio = m.vector_ns / m.scalar_ns;
  if (opt.print_ratio) {
    std::cout << TextTable::fmt(ratio, 4) << "\n";
    return 0;
  }

  const double baseline =
      bench::json_number(opt.baseline, "baseline_ratio");
  const double headroom = 0.05;
  const double limit = baseline * (1.0 + headroom);
  const bool ratio_pass = ratio <= limit;
  const bool fnw_pass = m.fnw_ns <= m.fnw_anchor_ns;
  const bool pass = ratio_pass && fnw_pass;

  TextTable table{{"metric", "value"}};
  table.add_row({"tier", simd_tier_name(detect_simd_tier())});
  table.add_row({"scalar encode (ns/line)", TextTable::fmt(m.scalar_ns, 1)});
  table.add_row({"vector encode (ns/line)", TextTable::fmt(m.vector_ns, 1)});
  table.add_row({"speedup", TextTable::fmt(m.scalar_ns / m.vector_ns, 2)});
  table.add_row({"ratio (vector/scalar)", TextTable::fmt(ratio, 4)});
  table.add_row({"baseline ratio", TextTable::fmt(baseline, 4)});
  table.add_row({"limit (+5% headroom)", TextTable::fmt(limit, 4)});
  table.add_row({"FNW8 encode (ns/line)", TextTable::fmt(m.fnw_ns, 1)});
  table.add_row({"vector encode, FNW run (ns/line)",
                 TextTable::fmt(m.fnw_anchor_ns, 1)});
  table.add_row({"FNW8 / READ+SAE vector",
                 TextTable::fmt(m.fnw_ns / m.fnw_anchor_ns, 4)});
  if (opt.inject_pct != 0.0) {
    table.add_row({"injected slowdown (%)", TextTable::fmt(opt.inject_pct, 1)});
  }
  table.add_row({"verdict", pass ? "PASS" : "FAIL"});
  table.print(std::cout);
  if (!ratio_pass) {
    std::cerr << "encoder_gate: vector/scalar ratio "
              << TextTable::fmt(ratio, 4) << " exceeds "
              << TextTable::fmt(limit, 4)
              << " — the SIMD encode path regressed against its in-process "
                 "scalar anchor\n";
  }
  if (!fnw_pass) {
    std::cerr << "encoder_gate: FNW8 encode " << TextTable::fmt(m.fnw_ns, 1)
              << " ns/line exceeds READ+SAE's "
              << TextTable::fmt(m.fnw_anchor_ns, 1) << " ns/line\n";
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  try {
    return nvmenc::run_gate(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "encoder_gate: " << e.what() << "\n";
    return 2;
  }
}
