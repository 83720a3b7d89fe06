// End-to-end pipeline tests: workload -> caches -> write-back stream
// (collect_writebacks), then write-back stream -> controller -> device
// (replay_scheme), the path every functional run takes.
#include <gtest/gtest.h>

#include "sim/collector.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

CollectorConfig small_config(u64 warmup, u64 measured, bool drain = false) {
  CollectorConfig c;
  c.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  c.warmup_accesses = warmup;
  c.measured_accesses = measured;
  c.drain = drain;
  return c;
}

SyntheticWorkload small_workload(const std::string& name, u64 seed) {
  WorkloadProfile p = profile_by_name(name);
  p.working_set_lines = 256;
  return SyntheticWorkload{p, seed};
}

TEST(Simulator, RunsAndCollectsStats) {
  SyntheticWorkload wl = small_workload("gcc", 1);
  const ReplayResult r = replay_scheme(
      collect_writebacks(wl, small_config(0, 20000)), Scheme::kReadSae);
  EXPECT_GT(r.stats.writebacks, 100u);
  EXPECT_GT(r.stats.flips.total(), 0u);
  EXPECT_GT(r.stats.energy.total_pj(), 0.0);
}

TEST(Simulator, WarmupResetsStats) {
  // Warm-up write-backs reach the device but not the statistics.
  SyntheticWorkload idle = small_workload("gcc", 2);
  const WritebackTrace warm_only =
      collect_writebacks(idle, small_config(1000, 0));
  ASSERT_GT(warm_only.warmup.size(), 0u);
  EXPECT_EQ(replay_scheme(warm_only, Scheme::kDcw).stats.writebacks, 0u);

  SyntheticWorkload wl = small_workload("gcc", 2);
  EXPECT_GT(replay_scheme(collect_writebacks(wl, small_config(1000, 5000)),
                          Scheme::kDcw)
                .stats.writebacks,
            0u);
}

// The decisive integration property: after draining the caches, the NVM
// stored images must decode to exactly the workload's program-order memory
// image, for every hardware scheme.
TEST(Simulator, NvmDecodesToProgramImageAfterDrain) {
  SyntheticWorkload wl = small_workload("sjeng", 3);
  const WritebackTrace trace =
      collect_writebacks(wl, small_config(0, 30000, /*drain=*/true));

  // The flat memory a program-order replay of the identical workload
  // stream (same profile, same seed) leaves behind.
  SyntheticWorkload program = small_workload("sjeng", 3);
  std::unordered_map<u64, CacheLine> image;
  for (int i = 0; i < 30000; ++i) {
    const MemAccess a = program.next();
    if (a.op != Op::kWrite) continue;
    auto it = image.find(a.line_addr());
    if (it == image.end()) {
      it = image.emplace(a.line_addr(), program.initial_line(a.line_addr()))
               .first;
    }
    it->second.set_word(a.word_index(), a.value);
  }

  for (Scheme scheme : all_schemes()) {
    if (is_paper_model(scheme)) continue;
    // The device and controller replay_encoder builds, kept in scope so
    // the stored images can be read back.
    const EncoderPtr init = make_encoder(scheme);
    NvmDevice device{NvmDeviceConfig{}, [&](u64 addr) {
                       return init->make_stored(trace.initial_line(addr));
                     }};
    MemoryController controller{ControllerConfig{}, make_encoder(scheme),
                                device};
    for (const auto* window : {&trace.warmup, &trace.measured}) {
      for (const WriteBack& wb : *window) {
        controller.write_line(wb.line_addr, wb.data);
      }
    }
    usize checked = 0;
    for (const auto& [addr, want] : image) {
      ASSERT_EQ(controller.read_line(addr), want)
          << scheme_name(scheme) << " line " << std::hex << addr;
      ++checked;
    }
    EXPECT_GT(checked, 50u) << scheme_name(scheme);
  }
}

TEST(Simulator, SchemesSeeIdenticalWritebackCounts) {
  SyntheticWorkload wl = small_workload("milc", 4);
  const WritebackTrace trace = collect_writebacks(wl, small_config(0, 20000));
  ASSERT_GT(trace.measured.size(), 0u);
  for (Scheme scheme : all_schemes()) {
    EXPECT_EQ(replay_scheme(trace, scheme).stats.writebacks,
              trace.measured.size())
        << scheme_name(scheme);
  }
}

TEST(Simulator, ReadSaeFlipsBelowDcw) {
  SyntheticWorkload wl = small_workload("gcc", 5);
  const WritebackTrace trace = collect_writebacks(wl, small_config(0, 30000));
  EXPECT_LT(replay_scheme(trace, Scheme::kReadSae).stats.flips.total(),
            replay_scheme(trace, Scheme::kDcw).stats.flips.total());
}

}  // namespace
}  // namespace nvmenc
