#include "sim/collector.hpp"
#include "sim/replay.hpp"

#include <gtest/gtest.h>

#include "core/read_sae.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

std::vector<CacheConfig> tiny_hierarchy() {
  return {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
}

CollectorConfig tiny_collector() {
  CollectorConfig c;
  c.caches = tiny_hierarchy();
  c.warmup_accesses = 2000;
  c.measured_accesses = 10000;
  return c;
}

WorkloadProfile small_profile(const std::string& name) {
  WorkloadProfile p = profile_by_name(name);
  p.working_set_lines = 256;
  return p;
}

TEST(Collector, ProducesWritebacks) {
  SyntheticWorkload wl{small_profile("gcc"), 3};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  EXPECT_EQ(trace.benchmark, "gcc");
  EXPECT_GT(trace.warmup.size(), 0u);
  EXPECT_GT(trace.measured.size(), 100u);
  EXPECT_GT(trace.demand_reads, 0u);
  EXPECT_EQ(trace.initial_line(0x40), wl.initial_line(0x40));
}

TEST(Collector, DeterministicForSameSeed) {
  SyntheticWorkload a{small_profile("milc"), 9};
  SyntheticWorkload b{small_profile("milc"), 9};
  const WritebackTrace ta = collect_writebacks(a, tiny_collector());
  const WritebackTrace tb = collect_writebacks(b, tiny_collector());
  ASSERT_EQ(ta.measured.size(), tb.measured.size());
  for (usize i = 0; i < ta.measured.size(); ++i) {
    EXPECT_EQ(ta.measured[i].line_addr, tb.measured[i].line_addr);
    EXPECT_EQ(ta.measured[i].data, tb.measured[i].data);
  }
}

TEST(Replay, DcwFlipsMatchManualRecomputation) {
  SyntheticWorkload wl{small_profile("sjeng"), 5};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  const ReplayResult r = replay_scheme(trace, Scheme::kDcw);

  // Recompute by hand with a flat image.
  std::unordered_map<u64, CacheLine> image;
  auto line_of = [&](u64 addr) -> CacheLine& {
    auto it = image.find(addr);
    if (it == image.end()) {
      it = image.emplace(addr, trace.initial_line(addr)).first;
    }
    return it->second;
  };
  for (const WriteBack& wb : trace.warmup) line_of(wb.line_addr) = wb.data;
  usize flips = 0;
  for (const WriteBack& wb : trace.measured) {
    CacheLine& cur = line_of(wb.line_addr);
    flips += cur.hamming(wb.data);
    cur = wb.data;
  }
  EXPECT_EQ(r.stats.flips.total(), flips);
  EXPECT_EQ(r.stats.flips.tag, 0u);
  EXPECT_EQ(r.device_flips, flips);
}

TEST(Replay, StatsCoverMeasuredWindowOnly) {
  SyntheticWorkload wl{small_profile("gcc"), 7};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  const ReplayResult r = replay_scheme(trace, Scheme::kFnw);
  EXPECT_EQ(r.stats.writebacks, trace.measured.size());
  EXPECT_EQ(r.stats.demand_reads, trace.demand_reads);
}

TEST(Replay, AllPaperSchemesRunAndStayConsistent) {
  SyntheticWorkload wl{small_profile("omnetpp"), 11};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  const ReplayResult dcw = replay_scheme(trace, Scheme::kDcw);
  for (Scheme scheme : paper_schemes()) {
    const ReplayResult r = replay_scheme(trace, scheme);
    EXPECT_EQ(r.stats.writebacks, dcw.stats.writebacks);
    EXPECT_EQ(r.stats.flips.total(), r.device_flips) << r.scheme;
    EXPECT_EQ(r.stats.flips.sets + r.stats.flips.resets,
              r.stats.flips.total())
        << r.scheme;
    // The dirty-word histogram is scheme-independent.
    for (usize k = 0; k <= kWordsPerLine; ++k) {
      EXPECT_EQ(r.stats.dirty_words.count(k), dcw.stats.dirty_words.count(k));
    }
  }
}

TEST(Replay, EncodeLogicEnergyOnlyForReadSchemes) {
  SyntheticWorkload wl{small_profile("wrf"), 13};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  EXPECT_EQ(replay_scheme(trace, Scheme::kFnw).stats.energy.logic_pj, 0.0);
  EXPECT_GT(replay_scheme(trace, Scheme::kReadSae).stats.energy.logic_pj,
            0.0);
}

TEST(Replay, PaperModelsChargeEncodeLogicOnlyForTheReadFamily) {
  // AFNW* is AFNW's accounting, and AFNW's encoder is not charged; READ+SAE*
  // pays READ+SAE's encoder energy on the same non-silent write-backs.
  SyntheticWorkload wl{small_profile("gcc"), 19};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  EXPECT_EQ(replay_scheme(trace, Scheme::kAfnwPaper).stats.energy.logic_pj,
            0.0);
  const double sae_pj =
      replay_scheme(trace, Scheme::kReadSaePaper).stats.energy.logic_pj;
  EXPECT_GT(sae_pj, 0.0);
  EXPECT_DOUBLE_EQ(
      sae_pj, replay_scheme(trace, Scheme::kReadSae).stats.energy.logic_pj);
}

TEST(Replay, ReadEnergyIsIdenticalAcrossSchemes) {
  // The paper's accounting (Section 4.2.2): "the energy consumption of
  // other operations such as reads is the same in all the seven schemes".
  SyntheticWorkload wl{small_profile("bzip2"), 17};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  const ReplayResult dcw = replay_scheme(trace, Scheme::kDcw);
  const ReplayResult fnw = replay_scheme(trace, Scheme::kFnw);
  EXPECT_DOUBLE_EQ(fnw.stats.energy.read_pj, dcw.stats.energy.read_pj);
}

TEST(Replay, EncoderPathMatchesTheScheme) {
  // replay_scheme runs every hardware scheme through replay_encoder, so
  // the registry's READ+SAE encoder replays it exactly; another tag budget
  // is a different encoder on the same path.
  SyntheticWorkload wl{small_profile("gcc"), 19};
  const WritebackTrace trace = collect_writebacks(wl, tiny_collector());
  const ReplayResult scheme = replay_scheme(trace, Scheme::kReadSae);
  const ReplayResult encoder =
      replay_encoder(trace, make_read_sae(), /*charge_encode_logic=*/true);
  EXPECT_EQ(encoder.stats.flips.total(), scheme.stats.flips.total());
  EXPECT_EQ(encoder.stats.flips.tag, scheme.stats.flips.tag);
  EXPECT_EQ(encoder.device_flips, scheme.device_flips);
  EXPECT_DOUBLE_EQ(encoder.stats.energy.total_pj(),
                   scheme.stats.energy.total_pj());

  const ReplayResult wide = replay_encoder(trace, make_read_sae(64));
  EXPECT_EQ(wide.stats.writebacks, scheme.stats.writebacks);
  EXPECT_GT(wide.meta_bits, scheme.meta_bits);
  EXPECT_EQ(wide.stats.energy.logic_pj, 0.0);
}

}  // namespace
}  // namespace nvmenc
