#include "nvm/controller.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/schemes.hpp"

namespace nvmenc {
namespace {

struct Rig {
  explicit Rig(Scheme scheme, ControllerConfig config = {})
      : encoder_for_init{make_encoder(scheme)},
        device{NvmDeviceConfig{},
               [this](u64) { return encoder_for_init->make_stored({}); }},
        controller{config, make_encoder(scheme), device} {}

  EncoderPtr encoder_for_init;
  NvmDevice device;
  MemoryController controller;
};

TEST(Controller, RequiresEncoder) {
  NvmDevice dev{NvmDeviceConfig{}, [](u64) {
                  StoredLine s;
                  s.meta = BitBuf{0};
                  return s;
                }};
  EXPECT_THROW(MemoryController({}, nullptr, dev), std::invalid_argument);
}

TEST(Controller, ReadCountsAndEnergy) {
  Rig rig{Scheme::kDcw};
  (void)rig.controller.read_line(0x40);
  (void)rig.controller.read_line(0x80);
  const ControllerStats& s = rig.controller.stats();
  EXPECT_EQ(s.demand_reads, 2u);
  const EnergyParams p;
  EXPECT_DOUBLE_EQ(s.energy.read_pj, 2.0 * 512 * p.read_pj_per_bit);
  EXPECT_DOUBLE_EQ(s.energy.busy_ns, 2.0 * p.read_latency_ns);
}

TEST(Controller, WriteFlipAccountingMatchesClosedForm) {
  Rig rig{Scheme::kDcw};
  CacheLine line;
  line.set_word(0, 0xF);  // 4 set bits over an all-zero device line
  rig.controller.write_line(0x40, line);
  const ControllerStats& s = rig.controller.stats();
  EXPECT_EQ(s.writebacks, 1u);
  EXPECT_EQ(s.flips.total(), 4u);
  EXPECT_EQ(s.flips.sets, 4u);
  EXPECT_EQ(s.flips.resets, 0u);
  const EnergyParams p;
  EXPECT_DOUBLE_EQ(s.energy.write_pj, 4.0 * p.set_pj);
  // Read-before-write senses the full line.
  EXPECT_DOUBLE_EQ(s.energy.read_pj, 512 * p.read_pj_per_bit);
}

TEST(Controller, SilentWritebackCounted) {
  Rig rig{Scheme::kDcw};
  rig.controller.write_line(0x40, CacheLine{});  // identical to pristine
  EXPECT_EQ(rig.controller.stats().silent_writebacks, 1u);
  EXPECT_EQ(rig.controller.stats().dirty_words.count(0), 1u);
  EXPECT_EQ(rig.controller.stats().flips.total(), 0u);
}

TEST(Controller, DirtyWordHistogram) {
  Rig rig{Scheme::kDcw};
  CacheLine line;
  line.set_word(1, 5);
  line.set_word(2, 6);
  rig.controller.write_line(0x40, line);
  line.set_word(3, 7);
  rig.controller.write_line(0x40, line);
  const Histogram& h = rig.controller.stats().dirty_words;
  EXPECT_EQ(h.count(2), 1u);  // first write dirtied 2 words
  EXPECT_EQ(h.count(1), 1u);  // second write dirtied 1 more
  EXPECT_NEAR(rig.controller.stats().tag_utilization(), 1.5 / 8.0, 1e-12);
}

TEST(Controller, ReadBackDecodesWrites) {
  for (Scheme scheme : paper_schemes()) {
    Rig rig{scheme};
    Xoshiro256 rng{7};
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
    rig.controller.write_line(0x40, line);
    EXPECT_EQ(rig.controller.read_line(0x40), line) << scheme_name(scheme);
  }
}

TEST(Controller, EncodeLogicChargedWhenConfigured) {
  ControllerConfig config;
  config.charge_encode_logic = true;
  Rig rig{Scheme::kReadSae, config};
  CacheLine line;
  line.set_word(0, 1);
  rig.controller.write_line(0x40, line);
  EXPECT_DOUBLE_EQ(rig.controller.stats().energy.logic_pj,
                   EnergyParams{}.encode_logic_pj);

  Rig no_logic{Scheme::kReadSae};
  no_logic.controller.write_line(0x40, line);
  EXPECT_DOUBLE_EQ(no_logic.controller.stats().energy.logic_pj, 0.0);
}

TEST(Controller, ReadsChargeNoLogicEnergy) {
  // Decode logic is negligible (paper §3.4.2): a read pays for sensing and
  // array time only, even on a controller that charges every encode.
  ControllerConfig config;
  config.charge_encode_logic = true;
  Rig rig{Scheme::kReadSae, config};
  CacheLine line;
  line.set_word(0, 1);
  rig.controller.write_line(0x40, line);
  const EnergyLedger after_write = rig.controller.stats().energy;
  EXPECT_EQ(rig.controller.read_line(0x40), line);
  (void)rig.controller.read_line(0x80);
  const EnergyLedger& e = rig.controller.stats().energy;
  const EnergyParams p;
  EXPECT_DOUBLE_EQ(e.logic_pj, p.encode_logic_pj);  // the write's only
  EXPECT_DOUBLE_EQ(e.read_pj - after_write.read_pj,
                   2.0 * 512 * p.read_pj_per_bit);
  EXPECT_DOUBLE_EQ(e.busy_ns - after_write.busy_ns, 2.0 * p.read_latency_ns);
  EXPECT_DOUBLE_EQ(e.write_pj, after_write.write_pj);
}

TEST(Controller, DeviceFlipTotalsMatchStats) {
  Rig rig{Scheme::kReadSae};
  Xoshiro256 rng{11};
  for (int i = 0; i < 100; ++i) {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) {
      if (rng.next_bool(0.4)) line.set_word(w, rng.next());
    }
    rig.controller.write_line((rng.next_below(16)) * kLineBytes, line);
  }
  EXPECT_EQ(rig.device.total_flips(),
            rig.controller.stats().flips.total());
}

TEST(Controller, ResetStatsClearsCountersOnly) {
  Rig rig{Scheme::kDcw};
  CacheLine line;
  line.set_word(0, 1);
  rig.controller.write_line(0x40, line);
  rig.controller.reset_stats();
  EXPECT_EQ(rig.controller.stats().writebacks, 0u);
  EXPECT_EQ(rig.controller.stats().flips.total(), 0u);
  // Stored state is untouched: the line still reads back.
  EXPECT_EQ(rig.controller.read_line(0x40), line);
}

}  // namespace
}  // namespace nvmenc
