// Differential harness for the word-level baseline encoders. Each
// production encoder runs in lockstep with an independent oracle:
//
//   * FnwEncoder (segment kernels) against MaskCosetEncoder with masks
//     {0, low_mask(g)} (reference_mask_coset.hpp), at every granularity g
//     in {1, 2, 4, ..., 64};
//   * AfnwEncoder, CoefEncoder and CafoEncoder against the bit-at-a-time
//     implementations kept in reference_baselines.hpp.
//
// After every write the stored data cells, the metadata, all five flip
// ledger fields and the decoded line must be identical. Streams: each of
// the six adversarial write classes, a mixed stream, and the write-back
// streams of all twelve benchmark profiles. NVMENC_FUZZ_WRITES raises the
// per-class stream length (CI's sanitizer job runs 20000).
#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/fnw.hpp"
#include "encoder_test_util.hpp"
#include "encoding/afnw.hpp"
#include "encoding/cafo.hpp"
#include "encoding/coef.hpp"
#include "reference_baselines.hpp"
#include "reference_mask_coset.hpp"
#include "sim/collector.hpp"
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

constexpr usize kFnwGranularities[] = {1, 2, 4, 8, 16, 32, 64};
constexpr int kPairs = static_cast<int>(std::size(kFnwGranularities)) + 3;

struct EncoderPair {
  EncoderPtr kernel;
  EncoderPtr oracle;
};

/// Pair i: FNW at kFnwGranularities[i] for the first seven, then AFNW,
/// COEF and CAFO.
EncoderPair make_pair(int i) {
  const auto idx = static_cast<usize>(i);
  if (idx < std::size(kFnwGranularities)) {
    const usize g = kFnwGranularities[idx];
    return {make_fnw(g), std::make_unique<testutil::MaskCosetEncoder>(
                             "MaskCoset-FNW", g,
                             std::vector<u64>{0, low_mask(g)})};
  }
  switch (idx - std::size(kFnwGranularities)) {
    case 0:
      return {std::make_unique<AfnwEncoder>(),
              std::make_unique<testutil::ReferenceAfnw>()};
    case 1:
      return {std::make_unique<CoefEncoder>(),
              std::make_unique<testutil::ReferenceCoef>()};
    default:
      return {std::make_unique<CafoEncoder>(),
              std::make_unique<testutil::ReferenceCafo>()};
  }
}

/// Drives one write through both encoders and asserts that the stored
/// images, flip ledgers and decodes are identical.
void step_both(const EncoderPair& pair, StoredLine& sk, StoredLine& so,
               const CacheLine& next, const std::string& what) {
  const FlipBreakdown fk = pair.kernel->encode(sk, next);
  const FlipBreakdown fo = pair.oracle->encode(so, next);
  ASSERT_EQ(sk.data, so.data) << what << ": stored data diverge";
  ASSERT_TRUE(sk.meta == so.meta) << what << ": stored metadata diverge";
  ASSERT_EQ(fk.data, fo.data) << what;
  ASSERT_EQ(fk.tag, fo.tag) << what;
  ASSERT_EQ(fk.flag, fo.flag) << what;
  ASSERT_EQ(fk.sets, fo.sets) << what;
  ASSERT_EQ(fk.resets, fo.resets) << what;
  const CacheLine decoded = pair.kernel->decode(sk);
  ASSERT_EQ(decoded, pair.oracle->decode(so)) << what << ": decode diverges";
  ASSERT_EQ(decoded, next) << what << ": decode is not the written line";
}

void start_both(const EncoderPair& pair, const CacheLine& line,
                StoredLine& sk, StoredLine& so) {
  ASSERT_EQ(pair.kernel->meta_bits(), pair.oracle->meta_bits());
  sk = pair.kernel->make_stored(line);
  so = pair.oracle->make_stored(line);
  ASSERT_EQ(sk.data, so.data) << "make_stored data";
  ASSERT_TRUE(sk.meta == so.meta) << "make_stored meta";
}

class BaselineDifferentialClasses
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BaselineDifferentialClasses, KernelMatchesOracle) {
  const auto [pair_idx, class_idx] = GetParam();
  const EncoderPair pair = make_pair(pair_idx);
  const WriteClass wc = testutil::kAllWriteClasses[class_idx];
  Xoshiro256 rng{0xBA5Eu * 131 + static_cast<u64>(pair_idx) * 17 +
                 static_cast<u64>(class_idx)};
  CacheLine logical = testutil::random_line(rng);
  StoredLine sk;
  StoredLine so;
  start_both(pair, logical, sk, so);
  if (HasFatalFailure()) return;
  const u64 writes = class_writes();
  for (u64 i = 0; i < writes; ++i) {
    // Interleave random writes so the stored tag state keeps moving (a
    // pure silent or complement stream freezes it after two writes).
    logical = testutil::next_line(rng, logical,
                                  i % 4 == 3 ? WriteClass::kRandom : wc);
    step_both(pair, sk, so, logical,
              pair.kernel->name() + " " + testutil::write_class_name(wc) +
                  " write " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodersAllClasses, BaselineDifferentialClasses,
    ::testing::Combine(::testing::Range(0, kPairs), ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      const int p = std::get<0>(param_info.param);
      const int k = std::get<1>(param_info.param);
      std::string name = make_pair(p).kernel->name() + "_" +
                         testutil::write_class_name(
                             testutil::kAllWriteClasses[k]);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(BaselineDifferential, MixedAdversarialStream) {
  // All six classes interleaved at random: the transitions between
  // classes (a complement right after a sparse write) move the most tags.
  for (int p = 0; p < kPairs; ++p) {
    const EncoderPair pair = make_pair(p);
    Xoshiro256 rng{4242};
    CacheLine logical = testutil::random_line(rng);
    StoredLine sk;
    StoredLine so;
    start_both(pair, logical, sk, so);
    if (HasFatalFailure()) return;
    for (int i = 0; i < 2'000; ++i) {
      logical = testutil::next_line(
          rng, logical, testutil::kAllWriteClasses[rng.next_below(6)]);
      step_both(pair, sk, so, logical,
                pair.kernel->name() + " mixed write " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
}

class BaselineDifferentialProfiles : public ::testing::TestWithParam<int> {};

TEST_P(BaselineDifferentialProfiles, FullProfileStreamMatchesOracle) {
  // The write-back stream each benchmark profile feeds the matrix,
  // replayed per line through every pair.
  WorkloadProfile profile =
      spec2006_profiles()[static_cast<usize>(GetParam())];
  // Shrink the working set and cache hierarchy so 22k accesses generate a
  // dense write-back stream; the access mix and value patterns are
  // unchanged.
  profile.working_set_lines = std::min<usize>(profile.working_set_lines, 512);
  SyntheticWorkload workload{profile, 1234};
  CollectorConfig cc;
  cc.caches = {
      {.name = "L1", .size_bytes = 8 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 64 * kLineBytes, .ways = 4},
  };
  cc.warmup_accesses = 2'000;
  cc.measured_accesses = 20'000;
  const WritebackTrace trace = collect_writebacks(workload, cc);

  for (int p = 0; p < kPairs; ++p) {
    const EncoderPair pair = make_pair(p);
    std::unordered_map<u64, std::pair<StoredLine, StoredLine>> lines;
    int writes = 0;
    for (const std::vector<WriteBack>* wbs : {&trace.warmup, &trace.measured}) {
      for (const WriteBack& wb : *wbs) {
        auto it = lines.find(wb.line_addr);
        if (it == lines.end()) {
          it = lines.try_emplace(wb.line_addr).first;
          start_both(pair, trace.initial_line(wb.line_addr),
                     it->second.first, it->second.second);
          if (HasFatalFailure()) return;
        }
        step_both(pair, it->second.first, it->second.second, wb.data,
                  pair.kernel->name() + " " + trace.benchmark +
                      " write-back " + std::to_string(writes));
        if (HasFatalFailure()) return;
        ++writes;
      }
    }
    EXPECT_GT(writes, 100) << "profile produced too few write-backs to test";
  }
}

INSTANTIATE_TEST_SUITE_P(TwelveBenchmarks, BaselineDifferentialProfiles,
                         ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return spec2006_profiles()[static_cast<usize>(
                                                          param_info.param)]
                               .name;
                         });

}  // namespace
}  // namespace nvmenc
