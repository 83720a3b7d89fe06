// Differential fuzz harness: SIMD vs scalar encoders, bit for bit.
//
// Two encoders of the same scheme — one pinned to the scalar kernels (the
// oracle), one on the best tier the host offers — are driven through
// identical randomized write streams. After EVERY write the full stored
// image (data cells + metadata, i.e. tags, flags and rotation counters)
// and the flip ledger must match exactly; any daylight between the tiers
// is an encoding bug, not a rounding question.
//
// Coverage axes:
//   * all seven hardware-faithful schemes (DCW, FNW, AFNW, COEF, CAFO,
//     READ, READ+SAE), constructed under a forced process-default tier;
//   * the six adversarial write classes of encoder_test_util.hpp, each as
//     a pure stream and as a mixed stream;
//   * random READ+SAE configurations (tag budget, granularity levels,
//     dirty-word pooling, tag rotation), forced per-encoder through
//     AdaptiveConfig::simd — both tiers side by side in one process;
//   * Flip-N-Write at every block width, from packed 1-bit segments over
//     several 64-segment chunks to whole-word segments.
//
// The stream length is fixed-seed and short for tier-1 ctest; CI's long
// mode raises it via NVMENC_FUZZ_WRITES (see .github/workflows/ci.yml).
// On hosts without a vector tier both encoders resolve to scalar and the
// suite degenerates to a self-check, keeping the test list stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>

#include "common/rng.hpp"
#include "core/fnw.hpp"
#include "core/read_sae.hpp"
#include "core/schemes.hpp"
#include "core/simd.hpp"
#include "encoder_test_util.hpp"

namespace nvmenc {
namespace {

using testutil::kAllWriteClasses;
using testutil::next_line;
using testutil::random_line;
using testutil::WriteClass;
using testutil::write_class_name;

constexpr u64 kSeed = 0x5EED'F02D'1FFull;

u64 fuzz_writes() {
  if (const char* env = std::getenv("NVMENC_FUZZ_WRITES")) {
    const u64 n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 300;  // tier-1 budget; the CI fuzz job runs 20000
}

/// Schemes with a hardware Encoder (the paper-model schemes have none).
constexpr Scheme kFuzzSchemes[] = {
    Scheme::kDcw,  Scheme::kFnw,  Scheme::kAfnw,   Scheme::kCoef,
    Scheme::kCafo, Scheme::kRead, Scheme::kReadSae,
};

/// Constructs the same scheme twice: once under a scalar process default,
/// once under the host's best tier. Restores the default afterwards.
struct TierPair {
  EncoderPtr oracle;  ///< scalar kernels
  EncoderPtr vector;  ///< detect_simd_tier() kernels
};

TierPair make_pair(Scheme scheme) {
  const SimdTier before = default_simd_tier();
  TierPair pair;
  set_default_simd_tier(SimdTier::kScalar);
  pair.oracle = make_encoder(scheme);
  set_default_simd_tier(detect_simd_tier());
  pair.vector = make_encoder(scheme);
  set_default_simd_tier(before);
  return pair;
}

/// Drives both encoders through one write and asserts the stored images
/// and flip ledgers stayed identical. Returns false once they diverge so
/// the caller can stop instead of cascading thousands of failures.
[[nodiscard]] bool step_both(const Encoder& oracle, const Encoder& vector,
                             StoredLine& so, StoredLine& sv,
                             const CacheLine& next, const std::string& what) {
  const FlipBreakdown fo = oracle.encode(so, next);
  const FlipBreakdown fv = vector.encode(sv, next);
  EXPECT_EQ(so.data, sv.data) << what << ": data cells diverged";
  EXPECT_EQ(so.meta, sv.meta) << what << ": metadata diverged";
  EXPECT_EQ(fo.data, fv.data) << what;
  EXPECT_EQ(fo.tag, fv.tag) << what;
  EXPECT_EQ(fo.flag, fv.flag) << what;
  EXPECT_EQ(fo.sets, fv.sets) << what;
  EXPECT_EQ(fo.resets, fv.resets) << what;
  EXPECT_EQ(oracle.decode(so), next) << what << ": oracle decode";
  EXPECT_EQ(vector.decode(sv), next) << what << ": vector decode";
  return so.data == sv.data && so.meta == sv.meta;
}

void fuzz_stream(const Encoder& oracle, const Encoder& vector, u64 seed,
                 u64 writes, const WriteClass* pure_class) {
  Xoshiro256 rng{seed};
  CacheLine logical = random_line(rng);
  StoredLine so = oracle.make_stored(logical);
  StoredLine sv = vector.make_stored(logical);
  ASSERT_EQ(so.data, sv.data) << "make_stored data";
  ASSERT_EQ(so.meta, sv.meta) << "make_stored meta";

  for (u64 i = 0; i < writes; ++i) {
    const WriteClass wc =
        pure_class != nullptr
            ? *pure_class
            : kAllWriteClasses[rng.next_below(std::size(kAllWriteClasses))];
    logical = next_line(rng, logical, wc);
    const std::string what = oracle.name() + " write " + std::to_string(i) +
                             " (" + write_class_name(wc) + ")";
    if (!step_both(oracle, vector, so, sv, logical, what)) return;
  }
}

TEST(SimdFuzzTest, AllSchemesMixedStream) {
  const u64 writes = fuzz_writes();
  for (Scheme scheme : kFuzzSchemes) {
    const TierPair pair = make_pair(scheme);
    fuzz_stream(*pair.oracle, *pair.vector, kSeed ^ static_cast<u64>(scheme),
                writes, nullptr);
  }
}

TEST(SimdFuzzTest, AllSchemesPureClassStreams) {
  // Pure streams hit the stationary behavior a mixed stream dilutes:
  // all-silent exercises the zero-dirty early exit, all-complement the
  // saturated flip path, all-sparse the single-tag granularities.
  const u64 writes = std::max<u64>(fuzz_writes() / 4, 50);
  for (Scheme scheme : kFuzzSchemes) {
    const TierPair pair = make_pair(scheme);
    for (WriteClass wc : kAllWriteClasses) {
      fuzz_stream(*pair.oracle, *pair.vector,
                  kSeed ^ (static_cast<u64>(scheme) << 8) ^
                      static_cast<u64>(wc),
                  writes, &wc);
    }
  }
}

TEST(SimdFuzzTest, RandomReadSaeConfigs) {
  // Random legal AdaptiveConfigs, tiers forced per-encoder through the
  // config override rather than the process default.
  const u64 writes = std::max<u64>(fuzz_writes() / 4, 50);
  Xoshiro256 rng{kSeed ^ 0xCF6};
  for (int c = 0; c < 16; ++c) {
    AdaptiveConfig config;
    config.tag_budget = usize{2} << rng.next_below(5);  // 2..64
    const usize max_levels = std::min<usize>(
        4, static_cast<usize>(std::countr_zero(config.tag_budget)) + 1);
    config.granularity_levels = 1 + rng.next_below(max_levels);
    config.redundant_word_aware = rng.next_below(2) == 0;
    config.rotate_tags = config.tag_budget <= 32 && rng.next_below(2) == 0;
    config.validate();

    AdaptiveConfig oracle_config = config;
    oracle_config.simd = SimdTier::kScalar;
    AdaptiveConfig vector_config = config;
    vector_config.simd = SimdTier::kAvx2;  // capped to the host's best
    const ReadSaeEncoder oracle{oracle_config};
    const ReadSaeEncoder vector{vector_config};
    EXPECT_EQ(oracle.simd_tier(), SimdTier::kScalar);
    EXPECT_EQ(vector.simd_tier(), detect_simd_tier());

    fuzz_stream(oracle, vector, kSeed ^ (static_cast<u64>(c) << 16), writes,
                nullptr);
  }
}

TEST(SimdFuzzTest, FnwAllGranularities) {
  // FnwEncoder captures the process default at construction, so each
  // tier is forced there.
  const u64 writes = fuzz_writes();
  const SimdTier before = default_simd_tier();
  for (usize g = 1; g <= 64; g *= 2) {
    set_default_simd_tier(SimdTier::kScalar);
    const FnwEncoder oracle{g};
    set_default_simd_tier(detect_simd_tier());
    const FnwEncoder vector{g};
    set_default_simd_tier(before);
    EXPECT_EQ(oracle.simd_tier(), SimdTier::kScalar);
    EXPECT_EQ(vector.simd_tier(), detect_simd_tier());

    fuzz_stream(oracle, vector, kSeed ^ (static_cast<u64>(g) << 24), writes,
                nullptr);
  }
}

TEST(SimdFuzzTest, EncoderCapturesTierAtConstruction) {
  // Changing the process default must not retier an existing encoder.
  const SimdTier before = default_simd_tier();
  AdaptiveConfig config;
  const ReadSaeEncoder enc{config};
  const SimdTier captured = enc.simd_tier();
  set_default_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(enc.simd_tier(), captured);
  set_default_simd_tier(before);
}

}  // namespace
}  // namespace nvmenc
