#include "nvm/device.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/rng.hpp"
#include "encoding/dcw.hpp"

namespace nvmenc {
namespace {

NvmDevice::Initializer zero_init() {
  return [](u64) {
    StoredLine s;
    s.meta = BitBuf{0};
    return s;
  };
}

TEST(Device, RequiresInitializer) {
  EXPECT_THROW(NvmDevice(NvmDeviceConfig{}, nullptr), std::invalid_argument);
}

TEST(Device, LazyInitialization) {
  usize init_calls = 0;
  NvmDevice dev{NvmDeviceConfig{}, [&](u64 addr) {
                  ++init_calls;
                  StoredLine s;
                  s.data.set_word(0, addr);
                  s.meta = BitBuf{0};
                  return s;
                }};
  EXPECT_EQ(dev.load(0x1000).data.word(0), 0x1000u);
  EXPECT_EQ(dev.load(0x1000).data.word(0), 0x1000u);
  EXPECT_EQ(init_calls, 1u);
  EXPECT_EQ(dev.touched_lines(), 1u);
}

TEST(Device, StoreUpdatesImageAndWear) {
  NvmDevice dev{NvmDeviceConfig{}, zero_init()};
  StoredLine image;
  image.meta = BitBuf{0};
  image.data.set_word(0, 0xFF);
  dev.store(0x40, image, 8);
  EXPECT_EQ(dev.load(0x40).data.word(0), 0xFFu);
  ASSERT_NE(dev.wear(0x40), nullptr);
  EXPECT_EQ(dev.wear(0x40)->flips, 8u);
  EXPECT_EQ(dev.wear(0x40)->writes, 1u);
  EXPECT_EQ(dev.total_flips(), 8u);
  EXPECT_EQ(dev.total_writes(), 1u);
  EXPECT_EQ(dev.wear(0x80), nullptr);
}

TEST(Device, BitWearSampling) {
  NvmDeviceConfig config;
  config.bit_wear_sample = 2;  // every second line
  NvmDevice dev{config, zero_init()};
  StoredLine image;
  image.meta = BitBuf{0};
  image.data.set_word(0, 0b101);
  dev.store(0, image, 2);          // line index 0: sampled
  dev.store(kLineBytes, image, 2); // line index 1: not sampled
  ASSERT_NE(dev.bit_wear(0), nullptr);
  EXPECT_EQ(dev.bit_wear(kLineBytes), nullptr);
  const std::vector<u64>& wear = *dev.bit_wear(0);
  EXPECT_EQ(wear[0], 1u);
  EXPECT_EQ(wear[1], 0u);
  EXPECT_EQ(wear[2], 1u);
}

TEST(Device, BitWearTracksMetaRegion) {
  NvmDeviceConfig config;
  config.bit_wear_sample = 1;
  NvmDevice dev{config, [](u64) {
                  StoredLine s;
                  s.meta = BitBuf{8};
                  return s;
                }};
  StoredLine image;
  image.meta = BitBuf{8};
  image.meta.set_bit(3, true);
  dev.store(0, image, 1);
  const std::vector<u64>& wear = *dev.bit_wear(0);
  ASSERT_EQ(wear.size(), kLineBits + 8);
  EXPECT_EQ(wear[kLineBits + 3], 1u);
}

TEST(Device, InjectedStuckBitHoldsValue) {
  NvmDevice dev{NvmDeviceConfig{}, zero_init()};
  dev.inject_stuck_bit(0x40, 5);  // stuck at current value (0)
  EXPECT_EQ(dev.failed_lines(), 1u);
  StoredLine image;
  image.meta = BitBuf{0};
  image.data.set_word(0, 0xFF);  // tries to set bits 0..7
  dev.store(0x40, image, 8);
  EXPECT_EQ(dev.load(0x40).data.word(0), 0xFFu & ~(u64{1} << 5));
}

TEST(Device, InjectRejectsMetaPositions) {
  NvmDevice dev{NvmDeviceConfig{}, zero_init()};
  EXPECT_THROW(dev.inject_stuck_bit(0, kLineBits), std::invalid_argument);
}

TEST(Device, EnduranceFailureSticksCells) {
  NvmDeviceConfig config;
  config.endurance = 3;
  config.bit_wear_sample = 1;  // endurance tracking needs bit wear
  NvmDevice dev{config, zero_init()};
  StoredLine a;
  a.meta = BitBuf{0};
  a.data.set_word(0, 1);
  StoredLine b;
  b.meta = BitBuf{0};
  // Toggle bit 0 repeatedly: 3 flips reach the endurance limit.
  dev.store(0, a, 1);
  dev.store(0, b, 1);
  dev.store(0, a, 1);
  EXPECT_EQ(dev.failed_lines(), 1u);
  // The cell is now stuck at its last value (1).
  dev.store(0, b, 1);
  EXPECT_EQ(dev.load(0).data.word(0), 1u);
}

TEST(Device, WearCountersSurviveU32Overflow) {
  // Aging-scale regression: accumulated flips past 2^32 must not wrap.
  // (A u32 counter would report 1'705'032'704 here.)
  static_assert(std::is_same_v<decltype(LineWear{}.flips), u64>);
  static_assert(std::is_same_v<decltype(LineWear{}.writes), u64>);
  NvmDevice dev{NvmDeviceConfig{}, zero_init()};
  StoredLine image;
  image.meta = BitBuf{0};
  const usize big = usize{3'000'000'000};
  dev.store(0x40, image, big);
  dev.store(0x40, image, big);
  EXPECT_EQ(dev.wear(0x40)->flips, u64{6'000'000'000});
  EXPECT_EQ(dev.total_flips(), u64{6'000'000'000});
}

TEST(Device, BitWearCountersAreU64) {
  NvmDeviceConfig config;
  config.bit_wear_sample = 1;
  NvmDevice dev{config, zero_init()};
  StoredLine image;
  image.meta = BitBuf{0};
  image.data.set_word(0, 1);
  dev.store(0, image, 1);
  static_assert(
      std::is_same_v<decltype(*dev.bit_wear(0)), const std::vector<u64>&>);
  EXPECT_EQ((*dev.bit_wear(0))[0], 1u);
}

TEST(Device, RejectsUnalignedAddresses) {
  // Line-index callers (addr 1, 2, ...) used to land inside line 0's
  // neighborhood and defeat the bit-wear sampling stride; the convention
  // is line-aligned byte addresses, enforced loudly.
  NvmDevice dev{NvmDeviceConfig{}, zero_init()};
  StoredLine image;
  image.meta = BitBuf{0};
  EXPECT_THROW((void)dev.load(1), std::invalid_argument);
  EXPECT_THROW(dev.store(kLineBytes + 7, image, 0), std::invalid_argument);
  EXPECT_THROW((void)dev.wear(3), std::invalid_argument);
  EXPECT_THROW((void)dev.bit_wear(5), std::invalid_argument);
  EXPECT_NO_THROW((void)dev.load(0));
  EXPECT_NO_THROW((void)dev.load(kLineBytes));
}

TEST(Device, StuckBitCountsLineOnce) {
  NvmDevice dev{NvmDeviceConfig{}, zero_init()};
  dev.inject_stuck_bit(0x40, 1);
  dev.inject_stuck_bit(0x40, 2);
  EXPECT_EQ(dev.failed_lines(), 1u);
  dev.inject_stuck_bit(0x80, 1);
  EXPECT_EQ(dev.failed_lines(), 2u);
}

}  // namespace
}  // namespace nvmenc
