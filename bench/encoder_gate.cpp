// Perf-regression gate for the SIMD encode kernels, on the skeleton of
// bench/gate.hpp. It times READ+SAE encode on the host's best SIMD tier
// against the forced-scalar oracle (AdaptiveConfig::simd) and judges
// vector_ns / scalar_ns against results/PERF_GATE_encoder.json. A kernel
// regression that slows only the vector path raises the ratio; one that
// slows both paths equally is a build-wide problem other benchmarks catch.
//
// The headroom is 5%: the interleaved minimum's run-to-run spread on the
// reference machine was under +-2%, so a 10% slowdown (the CI self-test
// injects it) is rejected with margin on both sides.
//
// A second interleaved run times Flip-N-Write (8-bit blocks, best tier)
// against READ+SAE's vector tier, and the gate also fails when FNW costs
// more ns/line: FNW is one fixed-width pass of the segment kernels that
// READ+SAE evaluates at four granularities.
//
//   encoder_gate [--baseline=results/PERF_GATE_encoder.json]
//                [--writes=N] [--reps=R] [--print-ratio]
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/fnw.hpp"
#include "core/read_sae.hpp"
#include "core/simd.hpp"
#include "gate.hpp"

namespace nvmenc {
namespace {

/// Zero, small-int and random words, so dirty-word counts span the
/// granularity levels.
std::vector<CacheLine> make_stream(usize n, u64 seed) {
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

/// Per-line ns of two encoders over `stream`, each warmed up with one
/// slice (page-in, branch predictors, frequency governor) first.
std::pair<double, double> pair_ns(const Encoder& a, const Encoder& b,
                                  const std::vector<CacheLine>& stream,
                                  usize writes, usize reps) {
  const auto slice_of = [&stream](const Encoder& enc) {
    return [&stream, &enc](usize first, usize n) {
      return time_encode_slice(enc, stream, n, first);
    };
  };
  (void)time_encode_slice(a, stream, bench::gate_slice(writes), 0);
  (void)time_encode_slice(b, stream, bench::gate_slice(writes), 0);
  return bench::interleaved_ns(writes, reps, slice_of(a), slice_of(b));
}

/// READ+SAE scalar against vector (the ratio gate), then READ+SAE vector
/// against FNW. FNW gets its own interleaved run: as a third encoder in
/// the first run's slices it raised the vector/scalar ratio by 2-5 %,
/// most of the ratio gate's headroom.
bench::GateReading measure(const bench::GateOptions& opt) {
  const SimdTier tier = detect_simd_tier();
  if (tier == SimdTier::kScalar) {
    // Nothing to gate: scalar vs scalar is 1.0 by construction.
    return {.skipped = "host has no vector tier"};
  }
  AdaptiveConfig scalar_config;
  scalar_config.simd = SimdTier::kScalar;
  AdaptiveConfig vector_config;
  vector_config.simd = tier;
  const ReadSaeEncoder scalar_enc{scalar_config};
  const ReadSaeEncoder vector_enc{vector_config};
  set_default_simd_tier(tier);  // FNW captures it
  const FnwEncoder fnw_enc{8};
  const std::vector<CacheLine> stream = make_stream(4096, 99);

  auto [scalar_ns, vector_ns] =
      pair_ns(scalar_enc, vector_enc, stream, opt.count, opt.reps);
  // fnw_anchor_ns: READ+SAE vector, timed against FNW.
  const auto [fnw_anchor_ns, fnw_ns] =
      pair_ns(vector_enc, fnw_enc, stream, opt.count, opt.reps);
  vector_ns = opt.injected(vector_ns);

  bench::GateReading r{
      .timed_ns = vector_ns,
      .anchor_ns = scalar_ns,
      .head = {{"tier", simd_tier_name(tier)},
               {"scalar encode (ns/line)", TextTable::fmt(scalar_ns, 1)},
               {"vector encode (ns/line)", TextTable::fmt(vector_ns, 1)},
               {"speedup", TextTable::fmt(scalar_ns / vector_ns, 2)}},
      .tail = {{"FNW8 encode (ns/line)", TextTable::fmt(fnw_ns, 1)},
               {"vector encode, FNW run (ns/line)",
                TextTable::fmt(fnw_anchor_ns, 1)},
               {"FNW8 / READ+SAE vector",
                TextTable::fmt(fnw_ns / fnw_anchor_ns, 4)}}};
  if (!(fnw_ns <= fnw_anchor_ns)) {
    r.failures.push_back("FNW8 encode " + TextTable::fmt(fnw_ns, 1) +
                         " ns/line exceeds READ+SAE's " +
                         TextTable::fmt(fnw_anchor_ns, 1) + " ns/line");
  }
  return r;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::bench::gate_main(
      argc, argv,
      {.name = "encoder_gate",
       .count_flag = "--writes",
       .defaults = {.baseline = "results/PERF_GATE_encoder.json",
                    .count = 50'000},
       .ratio = "vector/scalar",
       .headroom = 0.05,
       .regressed = "the SIMD encode path regressed against its in-process "
                    "scalar anchor"},
      nvmenc::measure);
}
