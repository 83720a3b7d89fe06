// The paper models on the shared kernels against their earlier bit loops.
//
// tests/reference_paper_model.hpp keeps PaperModelReadSae, PaperModelAfnw
// and replay_paper_model as they were before the models ran on
// segment_popcount -> segment_min_cost -> segment_flip_select ->
// flip_selected_segments (READ+SAE) and payload_fnw_encode (AFNW). After
// every write the FlipBreakdown (all five fields) and the line's model
// state must be identical:
//   - READ/READ+SAE at every tag budget 2..64, granularity levels 1..4,
//     word-aware on and off, on the scalar tier and the host's best;
//   - on the six adversarial write classes (silent, single-word, all-dirty
//     and complement runs among them) and the write-back streams of all
//     twelve benchmark profiles.
// replay_scheme's paper-model path must equal the reference replay field
// for field, energies included. NVMENC_FUZZ_WRITES raises the per-class
// stream length (CI's sanitizer job runs 20000).
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/paper_model.hpp"
#include "encoder_test_util.hpp"
#include "reference_paper_model.hpp"
#include "sim/collector.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

using testutil::WriteClass;

u64 class_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 1'500;
}

/// The twelve profiles' write-back streams, collected once per process on
/// shrunken working sets and caches so a short window writes back densely.
struct ProfileStreams {
  std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
  std::vector<WritebackTrace> traces;
};

const ProfileStreams& profile_streams() {
  static const ProfileStreams streams = [] {
    ProfileStreams s;
    CollectorConfig cc;
    cc.caches = {
        {.name = "L1", .size_bytes = 8 * kLineBytes, .ways = 2},
        {.name = "L2", .size_bytes = 64 * kLineBytes, .ways = 4},
    };
    cc.warmup_accesses = 1'000;
    cc.measured_accesses = 30'000;
    for (WorkloadProfile p : spec2006_profiles()) {
      p.working_set_lines = std::min<usize>(p.working_set_lines, 512);
      s.workloads.push_back(std::make_unique<SyntheticWorkload>(p, 2024));
      s.traces.push_back(collect_writebacks(*s.workloads.back(), cc));
    }
    return s;
  }();
  return streams;
}

void expect_same_flips(const FlipBreakdown& got, const FlipBreakdown& want,
                       const std::string& what) {
  ASSERT_EQ(got.data, want.data) << what;
  ASSERT_EQ(got.tag, want.tag) << what;
  ASSERT_EQ(got.flag, want.flag) << what;
  ASSERT_EQ(got.sets, want.sets) << what;
  ASSERT_EQ(got.resets, want.resets) << what;
}

void expect_same_state(const PaperModelLineState& got,
                       const PaperModelLineState& want,
                       const std::string& what) {
  ASSERT_EQ(got.tags, want.tags) << what;
  ASSERT_EQ(got.dirty_flag, want.dirty_flag) << what;
  ASSERT_EQ(got.gran_flag, want.gran_flag) << what;
}

void expect_same_state(const PaperModelAfnwState& got,
                       const PaperModelAfnwState& want,
                       const std::string& what) {
  ASSERT_EQ(got.tags, want.tags) << what;
  ASSERT_EQ(got.patterns, want.patterns) << what;
}

bool same(const FlipBreakdown& a, const FlipBreakdown& b) {
  return a.data == b.data && a.tag == b.tag && a.flag == b.flag &&
         a.sets == b.sets && a.resets == b.resets;
}
bool same(const PaperModelLineState& a, const PaperModelLineState& b) {
  return a.tags == b.tags && a.dirty_flag == b.dirty_flag &&
         a.gran_flag == b.gran_flag;
}
bool same(const PaperModelAfnwState& a, const PaperModelAfnwState& b) {
  return a.tags == b.tags && a.patterns == b.patterns;
}

/// Drives the production model and its reference over per-line logical
/// images, comparing flips and state after every write.
template <typename Model, typename Reference>
class Lockstep {
 public:
  /// `initial_line` gives a line's logical image before its first write.
  Lockstep(const Model& model, const Reference& reference,
           std::function<CacheLine(u64)> initial_line)
      : model_{model},
        reference_{reference},
        initial_line_{std::move(initial_line)} {}

  /// False, after reporting the mismatch under `what()`, when the two
  /// disagree. `what` builds its label only then.
  template <typename What>
  bool write(u64 addr, const CacheLine& next, const What& what) {
    auto it = lines_.find(addr);
    if (it == lines_.end()) {
      it = lines_.emplace(addr, Line{initial_line_(addr)}).first;
    }
    Line& line = it->second;
    const FlipBreakdown got = model_.write(line.state, line.image, next);
    const FlipBreakdown want =
        reference_.write(line.reference_state, line.image, next);
    line.image = next;
    if (same(got, want) && same(line.state, line.reference_state)) {
      return true;
    }
    expect_same_flips(got, want, what());
    expect_same_state(line.state, line.reference_state, what());
    return false;
  }

 private:
  struct Line {
    CacheLine image;
    typename Model::State state{};
    typename Model::State reference_state{};
  };
  const Model& model_;
  const Reference& reference_;
  std::function<CacheLine(u64)> initial_line_;
  std::unordered_map<u64, Line> lines_;
};

/// Every write class on its own line, then every profile's warm-up and
/// measured write-backs.
template <typename Model, typename Reference>
void run_all_streams(const Model& model, const Reference& reference,
                     const std::string& label) {
  const u64 writes = class_writes();
  for (usize c = 0; c < std::size(testutil::kAllWriteClasses); ++c) {
    const WriteClass wc = testutil::kAllWriteClasses[c];
    Xoshiro256 rng{0x9A9E7u * 131 + c};
    CacheLine logical = testutil::random_line(rng);
    const CacheLine initial = logical;
    Lockstep<Model, Reference> line{model, reference,
                                    [&](u64) { return initial; }};
    for (u64 i = 0; i < writes; ++i) {
      // Interleave random writes so the tag state keeps moving (a pure
      // silent or complement stream freezes it after two writes).
      const CacheLine next = testutil::next_line(
          rng, logical, i % 4 == 3 ? WriteClass::kRandom : wc);
      const bool ok = line.write(0, next, [&] {
        return label + " " + testutil::write_class_name(wc) + " write " +
               std::to_string(i);
      });
      if (!ok) return;
      logical = next;
    }
  }
  for (const WritebackTrace& trace : profile_streams().traces) {
    Lockstep<Model, Reference> lines{model, reference, trace.initial_line};
    usize i = 0;
    for (const std::vector<WriteBack>* wbs :
         {&trace.warmup, &trace.measured}) {
      for (const WriteBack& wb : *wbs) {
        const bool ok = lines.write(wb.line_addr, wb.data, [&] {
          return label + " " + trace.benchmark + " write-back " +
                 std::to_string(i);
        });
        if (!ok) return;
        ++i;
      }
    }
  }
}

std::vector<AdaptiveConfig> read_configs() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (detect_simd_tier() != SimdTier::kScalar) {
    tiers.push_back(detect_simd_tier());
  }
  std::vector<AdaptiveConfig> out;
  for (usize budget = 2; budget <= 64; budget *= 2) {
    for (usize levels = 1; levels <= 4; ++levels) {
      if ((budget >> (levels - 1)) < 1) continue;
      for (bool aware : {true, false}) {
        for (SimdTier tier : tiers) {
          out.push_back({.tag_budget = budget,
                         .redundant_word_aware = aware,
                         .granularity_levels = levels,
                         .simd = tier});
        }
      }
    }
  }
  return out;
}

std::string config_name(const AdaptiveConfig& c) {
  return "budget" + std::to_string(c.tag_budget) + "_levels" +
         std::to_string(c.granularity_levels) +
         (c.redundant_word_aware ? "_aware" : "_alldirty") + "_" +
         simd_tier_name(c.simd.value_or(SimdTier::kScalar));
}

class PaperModelDifferential : public ::testing::TestWithParam<usize> {};

TEST_P(PaperModelDifferential, ReadSaeMatchesReferenceOnEveryWrite) {
  const AdaptiveConfig config = read_configs()[GetParam()];
  const PaperModelReadSae model{config};
  const testutil::PaperModelReadSae reference{config};
  ASSERT_EQ(model.meta_bits(), reference.meta_bits());
  run_all_streams(model, reference, config_name(config));
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsLevelsTiers, PaperModelDifferential,
    ::testing::Range(usize{0}, read_configs().size()),
    [](const ::testing::TestParamInfo<usize>& param_info) {
      return config_name(read_configs()[param_info.param]);
    });

TEST(PaperModelDifferential, AfnwMatchesReferenceOnEveryWrite) {
  const PaperModelAfnw model;
  const testutil::PaperModelAfnw reference;
  ASSERT_EQ(model.meta_bits(), reference.meta_bits());
  run_all_streams(model, reference, "AFNW*");
}

TEST(PaperModelDifferential, ReplaySchemeMatchesReferenceReplay) {
  const EnergyParams energy;
  for (const WritebackTrace& trace : profile_streams().traces) {
    for (Scheme scheme :
         {Scheme::kReadPaper, Scheme::kReadSaePaper, Scheme::kAfnwPaper}) {
      const std::string what = trace.benchmark + " " + scheme_name(scheme);
      const ReplayResult got = replay_scheme(trace, scheme, energy);
      const ReplayResult want =
          testutil::replay_paper_model(trace, scheme, energy, nullptr);
      EXPECT_EQ(got.benchmark, want.benchmark) << what;
      EXPECT_EQ(got.scheme, want.scheme) << what;
      EXPECT_EQ(got.meta_bits, want.meta_bits) << what;
      EXPECT_EQ(got.device_flips, want.device_flips) << what;
      EXPECT_FALSE(got.error.has_value()) << what;
      const ControllerStats& g = got.stats;
      const ControllerStats& w = want.stats;
      EXPECT_EQ(g.demand_reads, w.demand_reads) << what;
      EXPECT_EQ(g.writebacks, w.writebacks) << what;
      EXPECT_EQ(g.silent_writebacks, w.silent_writebacks) << what;
      expect_same_flips(g.flips, w.flips, what);
      for (usize k = 0; k <= kWordsPerLine; ++k) {
        EXPECT_EQ(g.dirty_words.count(k), w.dirty_words.count(k)) << what;
      }
      EXPECT_EQ(g.dirty_words.overflow(), w.dirty_words.overflow()) << what;
      EXPECT_EQ(g.energy.read_pj, w.energy.read_pj) << what;
      EXPECT_EQ(g.energy.write_pj, w.energy.write_pj) << what;
      EXPECT_EQ(g.energy.logic_pj, w.energy.logic_pj) << what;
      EXPECT_EQ(g.energy.busy_ns, w.energy.busy_ns) << what;
      EXPECT_EQ(g.resilience.verified_writes, 0u) << what;
    }
  }
}

}  // namespace
}  // namespace nvmenc
