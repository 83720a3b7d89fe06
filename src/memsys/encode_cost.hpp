// Per-scheme write costs for the memory system: the encode latency
// charged to write service time, and the average cell-flip energy of a
// write-back.
//
// The paper's §3.4.2 dismisses READ+SAE's 3.47 ns synthesized encode
// latency as negligible. The memory system makes that claim testable by
// charging encode latency on the write path, where it inflates bank
// occupancy during drains. Two latency sources are provided:
//
//   * kPaper    — the paper's synthesis numbers (3.47 ns for the READ
//                 family at 22 nm; small documented estimates for the
//                 simpler baselines);
//   * kMeasured — this repository's measured software-kernel costs
//                 (results/BENCH_encoder_throughput.json, ns per line),
//                 the "what if the controller ran the encoder at our
//                 kernel's speed" upper bound.
//
// Both tables are compile-time constants so load-generation results stay
// bit-identical across runs — a live calibration would couple simulated
// latency to host noise. Energy, by contrast, IS calibrated from the real
// encoders: calibrate_write_cost replays a seeded sample of line
// transitions through the scheme's encoder and averages the measured
// SET/RESET flips, so the saturation sweep's energy column (in
// bench/paper_claims) reflects actual encoding behaviour rather than a
// constant.
#pragma once

#include <string>

#include "core/schemes.hpp"
#include "nvm/energy_model.hpp"
#include "trace/profile.hpp"

namespace nvmenc {

enum class EncodeLatencyModel : u8 { kNone = 0, kPaper = 1, kMeasured = 2 };

[[nodiscard]] const char* encode_model_name(EncodeLatencyModel model);
/// Parses "none" | "paper" | "measured"; throws std::invalid_argument.
[[nodiscard]] EncodeLatencyModel encode_model_by_name(
    const std::string& name);

/// Hardware-estimate encode latency (ns). READ/READ+SAE/SAE: the paper's
/// 3.47 ns synthesis result; FNW-family baselines: 1 ns (a compare/count
/// tree, far shallower than SAE's four-granularity adder tree); DCW: 0
/// (the differential comparison is part of the array write itself).
[[nodiscard]] double paper_encode_ns(Scheme scheme);

/// Measured software-kernel encode cost (ns per 64 B line), from
/// results/BENCH_encoder_throughput.json ("after" column). Schemes not in
/// that table map to their nearest measured kernel family.
[[nodiscard]] double measured_encode_ns(Scheme scheme);

[[nodiscard]] double encode_latency_ns(Scheme scheme,
                                       EncodeLatencyModel model);

/// Stationary per-write-back cost of a scheme under a profile-like value
/// mix, measured by running the real encoder.
struct SchemeWriteCost {
  double avg_sets = 0.0;    ///< mean 0->1 cell transitions per write-back
  double avg_resets = 0.0;  ///< mean 1->0 cell transitions per write-back
  double meta_bits = 0.0;   ///< the scheme's metadata width

  /// Energy of one write-back: read-before-write sensing of data+meta,
  /// the averaged differential cell writes, and (for the schemes the
  /// paper charges) the encoder-logic energy.
  [[nodiscard]] double write_pj(const EnergyParams& p,
                                bool charge_logic) const noexcept {
    const double sensed =
        static_cast<double>(kLineBits) + meta_bits;
    return sensed * p.read_pj_per_bit + avg_sets * p.set_pj +
           avg_resets * p.reset_pj +
           (charge_logic ? p.encode_logic_pj : 0.0);
  }
};

/// Replays `writes_per_line` seeded transitions of `sample_lines` lines
/// (after two warm-up writes each) through the scheme's encoder, drawing
/// values from the named workload profile's value mix. Deterministic in
/// (scheme, profile, seed). Throws for paper-model accounting schemes,
/// which have no hardware encoder.
[[nodiscard]] SchemeWriteCost calibrate_write_cost(
    Scheme scheme, const std::string& profile_name, u64 seed,
    usize sample_lines = 96, usize writes_per_line = 4);

/// Same calibration against an explicit profile object, for callers that
/// synthesize a value mix instead of naming a SPEC stand-in (e.g. the
/// sequential-flip regime of bench/paper_claims' lifetime section, where
/// the paper's headline scheme ordering is realized — see its
/// sequential-flip sweep).
[[nodiscard]] SchemeWriteCost calibrate_write_cost(
    Scheme scheme, const WorkloadProfile& profile, u64 seed,
    usize sample_lines = 96, usize writes_per_line = 4);

}  // namespace nvmenc
