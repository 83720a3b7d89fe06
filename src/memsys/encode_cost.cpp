#include "memsys/encode_cost.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/patterns.hpp"
#include "trace/profile.hpp"

namespace nvmenc {

const char* encode_model_name(EncodeLatencyModel model) {
  switch (model) {
    case EncodeLatencyModel::kNone:
      return "none";
    case EncodeLatencyModel::kPaper:
      return "paper";
    case EncodeLatencyModel::kMeasured:
      return "measured";
  }
  return "?";
}

double paper_encode_ns(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDcw:
      return 0.0;  // the differential compare is part of the array write
    case Scheme::kRead:
    case Scheme::kReadSae:
    case Scheme::kSaeOnly:
    case Scheme::kReadSaeRotate:
    case Scheme::kReadPaper:
    case Scheme::kReadSaePaper:
      return 3.47;  // Section 3.4.2, 22 nm synthesis
    case Scheme::kFnw:
    case Scheme::kAfnw:
    case Scheme::kCoef:
    case Scheme::kCafo:
    case Scheme::kAfnwPaper:
      return 1.0;  // shallow compare/count tree, estimate
  }
  return 1.0;
}

double measured_encode_ns(Scheme scheme) {
  // results/BENCH_encoder_throughput.json: READ family from the "simd"
  // section (vectorized MaskEval, best tier on the reference machine);
  // the rest from the single-pass kernel column, which SIMD leaves alone.
  switch (scheme) {
    case Scheme::kDcw:
      return 92.8;
    case Scheme::kFnw:
      return 1982.0;
    case Scheme::kAfnw:
    case Scheme::kAfnwPaper:
      return 998.0;
    case Scheme::kCoef:
      return 437.0;
    case Scheme::kCafo:
      return 2510.0;
    case Scheme::kRead:
    case Scheme::kReadPaper:
      return 714.0;
    case Scheme::kReadSae:
    case Scheme::kSaeOnly:
    case Scheme::kReadSaeRotate:
    case Scheme::kReadSaePaper:
      return 813.0;
  }
  return 813.0;
}

double encode_latency_ns(Scheme scheme, EncodeLatencyModel model) {
  switch (model) {
    case EncodeLatencyModel::kNone:
      return 0.0;
    case EncodeLatencyModel::kPaper:
      return paper_encode_ns(scheme);
    case EncodeLatencyModel::kMeasured:
      return measured_encode_ns(scheme);
  }
  return 0.0;
}

namespace {

/// One seeded store episode over `line`: draws a dirty-word count from the
/// profile's PMF, then rewrites that many distinct word slots within their
/// persistent value classes. Mirrors the synthetic workload's episode
/// model, minus the address stream (the calibration only needs values).
void mutate_line(CacheLine& line, u64 line_addr, const WorkloadProfile& p,
                 u64 class_seed, Xoshiro256& rng) {
  const double u = rng.next_double();
  double acc = 0.0;
  usize dirty = 0;
  for (usize k = 0; k < p.dirty_word_pmf.size(); ++k) {
    acc += p.dirty_word_pmf[k];
    if (u < acc) {
      dirty = k;
      break;
    }
  }
  bool chosen[kWordsPerLine] = {};
  for (usize n = 0; n < dirty; ++n) {
    usize w = static_cast<usize>(rng.next_below(kWordsPerLine));
    while (chosen[w]) w = (w + 1) % kWordsPerLine;
    chosen[w] = true;
    const WordClass cls = assign_word_class(class_seed, line_addr, w, p.mix);
    line.set_word(w, update_class_value(rng, cls, line.word(w)));
  }
}

}  // namespace

SchemeWriteCost calibrate_write_cost(Scheme scheme,
                                     const std::string& profile_name,
                                     u64 seed, usize sample_lines,
                                     usize writes_per_line) {
  return calibrate_write_cost(scheme, profile_by_name(profile_name), seed,
                              sample_lines, writes_per_line);
}

SchemeWriteCost calibrate_write_cost(Scheme scheme,
                                     const WorkloadProfile& profile,
                                     u64 seed, usize sample_lines,
                                     usize writes_per_line) {
  require(!is_paper_model(scheme),
          "paper-model accounting schemes have no hardware encoder to "
          "calibrate");
  require(sample_lines >= 1 && writes_per_line >= 1,
          "calibration needs at least one line and one write");
  const EncoderPtr enc = make_encoder(scheme);

  SplitMix64 sm{seed};
  const u64 class_seed = sm.next();
  const u64 rng_seed = sm.next();
  Xoshiro256 rng{rng_seed};

  u64 sets = 0;
  u64 resets = 0;
  for (usize i = 0; i < sample_lines; ++i) {
    const u64 line_addr = static_cast<u64>(i) * 977u;  // spread addresses
    CacheLine logical = initial_line(line_addr, class_seed, profile.mix,
                                     profile.zero_word_bias);
    StoredLine stored = enc->make_stored(logical);
    // Two warm-up writes move the stored image off the pristine all-zero
    // metadata state so the measured window is stationary.
    for (usize w = 0; w < 2; ++w) {
      mutate_line(logical, line_addr, profile, class_seed, rng);
      (void)enc->encode(stored, logical);
    }
    for (usize w = 0; w < writes_per_line; ++w) {
      mutate_line(logical, line_addr, profile, class_seed, rng);
      const FlipBreakdown fb = enc->encode(stored, logical);
      sets += fb.sets;
      resets += fb.resets;
    }
  }
  const double n =
      static_cast<double>(sample_lines) * static_cast<double>(writes_per_line);
  SchemeWriteCost cost;
  cost.avg_sets = static_cast<double>(sets) / n;
  cost.avg_resets = static_cast<double>(resets) / n;
  cost.meta_bits = static_cast<double>(enc->meta_bits());
  return cost;
}

}  // namespace nvmenc
