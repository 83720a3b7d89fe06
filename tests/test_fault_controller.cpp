#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/schemes.hpp"
#include "encoding/dcw.hpp"
#include "fault/secded.hpp"
#include "nvm/controller.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

CacheLine random_line(Xoshiro256& rng) {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
  return line;
}

NvmDevice::Initializer dcw_initializer() {
  return [](u64) { return DcwEncoder{}.make_stored({}); };
}

TEST(FaultController, VerifyRepairsTransientWriteFaults) {
  FaultInjector injector{
      FaultInjectorConfig{.write_fail_rate = 0.2, .seed = 7}};
  NvmDevice device{NvmDeviceConfig{.injector = &injector},
                   dcw_initializer()};
  ControllerConfig config;
  config.fault.force_verify = true;
  config.fault.retry_limit = 6;
  MemoryController ctrl{config, std::make_unique<DcwEncoder>(), device};

  Xoshiro256 rng{1};
  const usize writes = 200;
  for (usize i = 0; i < writes; ++i) {
    const u64 addr = 0x40 * (1 + rng.next_below(16));
    const CacheLine data = random_line(rng);
    ctrl.write_line(addr, data);
    ASSERT_EQ(ctrl.read_line(addr), data) << "write " << i;
  }
  const ResilienceStats& r = ctrl.stats().resilience;
  EXPECT_EQ(ctrl.stats().writebacks, writes);
  EXPECT_EQ(r.verified_writes, writes);
  // ~20% of ~256 programmed cells fail per write: retries are certain.
  EXPECT_GT(r.write_retries, 0u);
  EXPECT_EQ(r.sdc_detected, 0u);
  EXPECT_GT(injector.transient_faults(), 0u);
}

TEST(FaultController, RetryEnergyEscalatesExponentially) {
  FaultInjector injector{
      FaultInjectorConfig{.write_fail_rate = 0.5, .seed = 3}};
  NvmDevice device{NvmDeviceConfig{.injector = &injector},
                   dcw_initializer()};
  ControllerConfig config;
  config.fault.force_verify = true;
  config.fault.retry_limit = 8;
  MemoryController ctrl{config, std::make_unique<DcwEncoder>(), device};

  Xoshiro256 rng{2};
  const double before = ctrl.stats().energy.write_pj;
  CacheLine data = random_line(rng);
  ctrl.write_line(0x40, data);
  const double faulty_write_pj = ctrl.stats().energy.write_pj - before;

  // The same flip count on an ideal device costs strictly less: every
  // retry re-pulses cells at 2^attempt x nominal energy.
  NvmDevice ideal{NvmDeviceConfig{}, dcw_initializer()};
  MemoryController ideal_ctrl{config, std::make_unique<DcwEncoder>(), ideal};
  ideal_ctrl.write_line(0x40, data);
  EXPECT_GT(faulty_write_pj, ideal_ctrl.stats().energy.write_pj);
  EXPECT_GT(ctrl.stats().resilience.write_retries, 0u);
}

TEST(FaultController, StuckCellsEscalateToSaferRemap) {
  FaultInjector injector{
      FaultInjectorConfig{.stuck_rate = 0.002, .seed = 11}};
  NvmDevice device{NvmDeviceConfig{.injector = &injector},
                   dcw_initializer()};
  ControllerConfig config;
  config.fault.force_verify = true;
  MemoryController ctrl{config, std::make_unique<DcwEncoder>(), device};

  Xoshiro256 rng{3};
  const usize writes = 150;
  for (usize i = 0; i < writes; ++i) {
    const u64 addr = 0x40 * (1 + rng.next_below(4));
    const CacheLine data = random_line(rng);
    ctrl.write_line(addr, data);
    // The contract under hard faults: the logical view stays exact, via
    // re-pulse, SAFER re-partition or retirement — whatever it takes.
    ASSERT_EQ(ctrl.read_line(addr), data) << "write " << i;
  }
  const ResilienceStats& r = ctrl.stats().resilience;
  EXPECT_GT(injector.hard_faults(), 0u);
  EXPECT_GT(r.retry_exhaustions, 0u);
  EXPECT_GT(r.safer_remaps, 0u);
  EXPECT_EQ(r.sdc_detected, 0u);
}

TEST(FaultController, UnrecoverablePatternRetiresToSpareLine) {
  NvmDevice device{NvmDeviceConfig{}, dcw_initializer()};
  FaultContext fault{device};
  // The hub pattern (see test_safer.cpp) defeats every SAFER partition.
  fault.safer.report_fault(0x40, 0, false);
  for (usize b = 0; b < 9; ++b) {
    fault.safer.report_fault(0x40, usize{1} << b, false);
  }
  ControllerConfig config;
  config.fault.force_verify = true;
  MemoryController ctrl{config, std::make_unique<DcwEncoder>(), device,
                        &fault};

  Xoshiro256 rng{4};
  CacheLine data = random_line(rng);
  data.set_bit(0, true);  // conflicts with the stuck cell at bit 0
  ctrl.write_line(0x40, data);

  EXPECT_EQ(ctrl.stats().resilience.line_retirements, 1u);
  ASSERT_TRUE(fault.remap.contains(0x40));
  EXPECT_GE(fault.remap.at(0x40), kSpareRegionBase);
  EXPECT_EQ(ctrl.read_line(0x40), data);

  // The retired line keeps working through the spare: no second spare.
  const CacheLine next = random_line(rng);
  ctrl.write_line(0x40, next);
  EXPECT_EQ(ctrl.read_line(0x40), next);
  EXPECT_EQ(ctrl.stats().resilience.line_retirements, 1u);
  EXPECT_EQ(fault.spares_used, 1u);
}

TEST(FaultController, ProtectedMetadataCorrectsSingleCellFlips) {
  EncoderPtr init_encoder = make_encoder(Scheme::kFnw);
  const Encoder* enc = init_encoder.get();
  ASSERT_GT(enc->meta_bits(), 0u);
  NvmDevice device{NvmDeviceConfig{}, [enc](u64) {
                     StoredLine s = enc->make_stored({});
                     s.meta = secded_protect(s.meta);
                     return s;
                   }};
  ControllerConfig config;
  config.fault.force_verify = true;
  config.fault.protect_meta = true;
  MemoryController ctrl{config, make_encoder(Scheme::kFnw), device};

  Xoshiro256 rng{5};
  CacheLine data = random_line(rng);
  ctrl.write_line(0x40, data);
  data = random_line(rng);
  ctrl.write_line(0x40, data);  // FNW tags now carry real state
  EXPECT_GT(ctrl.stats().resilience.check_flips, 0u);

  // Flip one stored metadata payload cell behind the controller's back.
  StoredLine tampered = device.load(0x40);
  tampered.meta.set_bit(0, !tampered.meta.bit(0));
  device.store(0x40, tampered, 1);

  EXPECT_EQ(ctrl.read_line(0x40), data);  // SECDED corrected the flip
  EXPECT_EQ(ctrl.stats().resilience.meta_corrected, 1u);
  EXPECT_EQ(ctrl.stats().resilience.meta_uncorrectable, 0u);

  // A double flip in one chunk is detected, not silently mis-corrected.
  // Rewrite first: reads do not scrub, so the earlier flip is still in
  // the device and a third flip would alias back into correctable range.
  data = random_line(rng);
  ctrl.write_line(0x40, data);
  tampered = device.load(0x40);
  tampered.meta.set_bit(1, !tampered.meta.bit(1));
  tampered.meta.set_bit(2, !tampered.meta.bit(2));
  device.store(0x40, tampered, 2);
  (void)ctrl.read_line(0x40);
  EXPECT_GE(ctrl.stats().resilience.meta_uncorrectable, 1u);
}

TEST(FaultController, InactivePlanIsBitIdenticalAndVerifyOnlyAddsReads) {
  // The acceptance differential: with all rates zero and protection off,
  // every scheme's replay statistics are bit-identical to the legacy
  // pipeline; forcing the verify loop on (still fault-free) must change
  // nothing but the verify-read energy.
  WorkloadProfile profile = profile_by_name("gcc");
  profile.working_set_lines = 256;
  SyntheticWorkload workload{profile, 42};
  CollectorConfig collector;
  collector.caches = {
      {.name = "L1", .size_bytes = 4 * kLineBytes, .ways = 2},
      {.name = "L2", .size_bytes = 32 * kLineBytes, .ways = 4},
  };
  collector.warmup_accesses = 2000;
  collector.measured_accesses = 10000;
  const WritebackTrace trace = collect_writebacks(workload, collector);

  for (const Scheme scheme :
       {Scheme::kDcw, Scheme::kFnw, Scheme::kAfnw, Scheme::kCoef,
        Scheme::kCafo, Scheme::kRead, Scheme::kReadSae}) {
    const ReplayResult legacy = replay_scheme(trace, scheme);
    const ReplayResult inactive =
        replay_scheme(trace, scheme, EnergyParams{}, FaultPlan{});
    EXPECT_EQ(legacy.stats.flips.data, inactive.stats.flips.data);
    EXPECT_EQ(legacy.stats.flips.tag, inactive.stats.flips.tag);
    EXPECT_EQ(legacy.stats.flips.flag, inactive.stats.flips.flag);
    EXPECT_EQ(legacy.stats.writebacks, inactive.stats.writebacks);
    EXPECT_EQ(legacy.stats.silent_writebacks,
              inactive.stats.silent_writebacks);
    EXPECT_EQ(legacy.device_flips, inactive.device_flips);
    EXPECT_DOUBLE_EQ(legacy.stats.energy.total_pj(),
                     inactive.stats.energy.total_pj());
    EXPECT_EQ(inactive.stats.resilience.verified_writes, 0u);

    FaultPlan verify_only;
    verify_only.force_verify = true;
    const ReplayResult verified =
        replay_scheme(trace, scheme, EnergyParams{}, verify_only);
    EXPECT_EQ(legacy.stats.flips.data, verified.stats.flips.data)
        << scheme_name(scheme);
    EXPECT_EQ(legacy.stats.flips.tag, verified.stats.flips.tag);
    EXPECT_EQ(legacy.stats.flips.flag, verified.stats.flips.flag);
    EXPECT_EQ(legacy.device_flips, verified.device_flips);
    EXPECT_DOUBLE_EQ(legacy.stats.energy.write_pj,
                     verified.stats.energy.write_pj);
    EXPECT_GT(verified.stats.energy.read_pj, legacy.stats.energy.read_pj);
    EXPECT_EQ(verified.stats.resilience.verified_writes,
              verified.stats.writebacks);
    EXPECT_EQ(verified.stats.resilience.write_retries, 0u);
  }
}

TEST(FaultController, RetryLimitValidated) {
  NvmDevice device{NvmDeviceConfig{}, dcw_initializer()};
  ControllerConfig config;
  config.fault.force_verify = true;
  config.fault.retry_limit = 99;
  EXPECT_THROW(
      (MemoryController{config, std::make_unique<DcwEncoder>(), device}),
      std::invalid_argument);
}

}  // namespace
}  // namespace nvmenc
