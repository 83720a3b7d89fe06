// Power-failure atomicity: the differential proof of the commit protocol.
//
// The central theorem of the crash-consistency layer: with atomic_writes
// on, a power cut at ANY program-pulse boundary recovers to the full old
// or the full new logical line image — never a hybrid. The proof is an
// exhaustive sweep: calibrate the total pulse count of a multi-write
// scenario, then re-run it once per possible cut point for every one of
// the paper's seven hardware schemes, recover, and check the decoded
// line against the version history. A companion test shows the protocol
// is necessary, not incidental: the same cut without it leaves a hybrid.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/schemes.hpp"
#include "fault/power_failure.hpp"
#include "fault/secded.hpp"
#include "nvm/controller.hpp"

namespace nvmenc {
namespace {

CacheLine random_line(Xoshiro256& rng) {
  CacheLine line;
  for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
  return line;
}

/// The scenario under test: three successive write-backs of one line.
/// Returns the number of writes that completed before the power died.
usize run_writes(MemoryController& ctrl, u64 addr,
                 const std::vector<CacheLine>& versions, bool& torn) {
  usize completed = 0;
  torn = false;
  try {
    for (usize i = 1; i < versions.size(); ++i) {
      ctrl.write_line(addr, versions[i]);
      ++completed;
    }
  } catch (const PowerLossError&) {
    torn = true;
  }
  return completed;
}

/// Exhaustive cut-point sweep for one scheme; asserts old-or-new at every
/// cut and that both recovery directions are exercised.
void sweep_scheme(Scheme scheme, const ControllerConfig& config,
                  bool protect) {
  const u64 addr = 0x40;
  Xoshiro256 rng{0xC0FFEE ^ static_cast<u64>(scheme)};
  std::vector<CacheLine> versions;
  versions.emplace_back();  // v0: the pristine (all-zero) logical image
  for (int i = 0; i < 3; ++i) versions.push_back(random_line(rng));

  auto make_device = [scheme, protect](PowerFailurePlan* plan) {
    NvmDeviceConfig dc;
    dc.power = plan;
    return NvmDevice{dc, [scheme, protect](u64) {
                       StoredLine s =
                           make_encoder(scheme)->make_stored(CacheLine{});
                       if (protect) s.meta = secded_protect(s.meta);
                       return s;
                     }};
  };

  // Calibration: an unarmed plan counts the scenario's total pulses.
  PowerFailurePlan calibration;
  {
    NvmDevice device = make_device(&calibration);
    FaultContext fault{device};
    MemoryController ctrl{config, make_encoder(scheme), device, &fault};
    bool torn = false;
    ASSERT_EQ(run_writes(ctrl, addr, versions, torn), versions.size() - 1);
    ASSERT_FALSE(torn);
  }
  const u64 total_pulses = calibration.pulses_seen;
  ASSERT_GT(total_pulses, 0u) << scheme_name(scheme);

  u64 forwards = 0;
  u64 backs = 0;
  for (u64 cut = 0; cut <= total_pulses; ++cut) {
    PowerFailurePlan plan;
    plan.cut_after_pulses = cut;
    NvmDevice device = make_device(&plan);
    FaultContext fault{device};
    usize completed = 0;
    bool torn = false;
    {
      MemoryController ctrl{config, make_encoder(scheme), device, &fault};
      completed = run_writes(ctrl, addr, versions, torn);
    }
    ASSERT_EQ(torn, cut < total_pulses) << scheme_name(scheme) << " cut "
                                        << cut;

    // "Reboot": a fresh controller over the same array + fault state runs
    // the recovery scan, then the line is demand-read as usual.
    MemoryController rebooted{config, make_encoder(scheme), device, &fault};
    rebooted.recover();
    const CacheLine recovered = rebooted.read_line(addr);
    const CacheLine& old_image = versions[completed];
    const CacheLine& new_image =
        versions[std::min(completed + 1, versions.size() - 1)];
    const bool is_old = recovered == old_image;
    const bool is_new = recovered == new_image;
    ASSERT_TRUE(is_old || is_new)
        << scheme_name(scheme) << ": hybrid line after cut " << cut << "/"
        << total_pulses << " (" << completed << " writes completed)";
    const ResilienceStats& r = rebooted.stats().resilience;
    EXPECT_EQ(r.recovery_scans, 1u);
    if (r.rolled_forward > 0) {
      // A committed log always replays the FULL new image.
      EXPECT_TRUE(is_new) << scheme_name(scheme) << " cut " << cut;
      ++forwards;
    }
    backs += r.rolled_back;

    // Idempotence: recovering again changes nothing.
    MemoryController again{config, make_encoder(scheme), device, &fault};
    again.recover();
    EXPECT_EQ(again.read_line(addr), recovered)
        << scheme_name(scheme) << " cut " << cut;
  }
  // The sweep must exercise both recovery directions, or it proved less
  // than it claims.
  EXPECT_GT(forwards, 0u) << scheme_name(scheme);
  EXPECT_GT(backs, 0u) << scheme_name(scheme);
}

TEST(PowerFailure, OldOrNewForEverySchemeAtEveryCutPoint) {
  ControllerConfig config;
  config.verify.atomic_writes = true;
  for (const Scheme scheme : paper_schemes()) {
    sweep_scheme(scheme, config, /*protect=*/false);
  }
}

TEST(PowerFailure, OldOrNewHoldsUnderVerifyAndSecded) {
  // The protocol must also cover the resilient write path: verify reads,
  // SECDED check-cell refreshes and re-pulses all draw from the same
  // power budget.
  ControllerConfig config;
  config.verify.atomic_writes = true;
  config.verify.program_and_verify = true;
  config.verify.protect_meta = true;
  sweep_scheme(Scheme::kReadSae, config, /*protect=*/true);
}

TEST(PowerFailure, TornWriteWithoutProtocolLeavesHybrid) {
  // The control experiment: same device-level cut, no commit protocol.
  // Some cut point must leave a line that is neither old nor new —
  // otherwise the atomicity machinery would be redundant.
  const u64 addr = 0x40;
  Xoshiro256 rng{7};
  const CacheLine new_data = random_line(rng);

  // Calibrate the single plain write.
  PowerFailurePlan calibration;
  const Scheme scheme = Scheme::kDcw;
  auto initializer = [scheme](u64) {
    return make_encoder(scheme)->make_stored(CacheLine{});
  };
  {
    NvmDeviceConfig dc;
    dc.power = &calibration;
    NvmDevice device{dc, initializer};
    MemoryController ctrl{ControllerConfig{}, make_encoder(scheme), device};
    ctrl.write_line(addr, new_data);
  }
  ASSERT_GT(calibration.pulses_seen, 2u);

  bool hybrid_seen = false;
  for (u64 cut = 1; cut < calibration.pulses_seen; ++cut) {
    PowerFailurePlan plan;
    plan.cut_after_pulses = cut;
    NvmDeviceConfig dc;
    dc.power = &plan;
    NvmDevice device{dc, initializer};
    MemoryController ctrl{ControllerConfig{}, make_encoder(scheme), device};
    try {
      ctrl.write_line(addr, new_data);
    } catch (const PowerLossError& e) {
      EXPECT_EQ(e.line_addr(), addr);
      EXPECT_LT(e.pulses_applied(), calibration.pulses_seen);
    }
    const CacheLine decoded = make_encoder(scheme)->decode(device.load(addr));
    if (decoded != CacheLine{} && decoded != new_data) hybrid_seen = true;
  }
  EXPECT_TRUE(hybrid_seen);
}

TEST(PowerFailure, UnarmedPlanOnlyCounts) {
  PowerFailurePlan plan;
  EXPECT_FALSE(plan.armed());
  EXPECT_EQ(plan.grant(100), 100u);
  EXPECT_EQ(plan.pulses_seen, 100u);
  EXPECT_FALSE(plan.tripped);

  plan.cut_after_pulses = 150;
  EXPECT_TRUE(plan.armed());
  EXPECT_EQ(plan.grant(50), 50u);  // lands exactly on the budget: completes
  EXPECT_FALSE(plan.tripped);
  EXPECT_EQ(plan.grant(10), 0u);  // the next store gets nothing
  EXPECT_TRUE(plan.tripped);
  EXPECT_FALSE(plan.armed());
  EXPECT_EQ(plan.grant(10), 10u);  // recovery runs at full power
}

TEST(PowerFailure, RecoveryScrubsSingleMetaFlip) {
  // A disturbed metadata cell found by the post-crash scan is corrected
  // AND written back (scrubbed), so it cannot stack into a double error.
  const Scheme scheme = Scheme::kFnw;
  EncoderPtr probe = make_encoder(scheme);
  ASSERT_GT(probe->meta_bits(), 0u);
  NvmDevice device{NvmDeviceConfig{}, [scheme](u64) {
                     StoredLine s =
                         make_encoder(scheme)->make_stored(CacheLine{});
                     s.meta = secded_protect(s.meta);
                     return s;
                   }};
  ControllerConfig config;
  config.verify.program_and_verify = true;
  config.verify.protect_meta = true;
  FaultContext fault{device};
  Xoshiro256 rng{3};
  {
    MemoryController ctrl{config, make_encoder(scheme), device, &fault};
    ctrl.write_line(0x40, random_line(rng));
    ctrl.write_line(0x40, random_line(rng));
  }
  StoredLine tampered = device.load(0x40);
  tampered.meta.set_bit(0, !tampered.meta.bit(0));
  device.store(0x40, tampered, 1);

  MemoryController rebooted{config, make_encoder(scheme), device, &fault};
  rebooted.recover();
  EXPECT_EQ(rebooted.stats().resilience.meta_corrected, 1u);
  EXPECT_EQ(rebooted.stats().resilience.recovery_retired, 0u);

  // The scrub repaired the array: a second scan sees a clean line.
  MemoryController again{config, make_encoder(scheme), device, &fault};
  again.recover();
  EXPECT_EQ(again.stats().resilience.meta_corrected, 0u);
  EXPECT_GT(again.stats().resilience.recovered_clean, 0u);
}

TEST(PowerFailure, RecoveryEscalatesSecdedDoubleErrorToRetirement) {
  // PR 3's graceful-degradation promise under torn metadata: a SECDED
  // double error discovered during recovery with no committed log to
  // replay is counted and the line retired — never silently "corrected"
  // into plausible garbage.
  const Scheme scheme = Scheme::kFnw;
  NvmDevice device{NvmDeviceConfig{}, [scheme](u64) {
                     StoredLine s =
                         make_encoder(scheme)->make_stored(CacheLine{});
                     s.meta = secded_protect(s.meta);
                     return s;
                   }};
  ControllerConfig config;
  config.verify.program_and_verify = true;
  config.verify.protect_meta = true;
  FaultContext fault{device};
  Xoshiro256 rng{4};
  CacheLine last;
  {
    MemoryController ctrl{config, make_encoder(scheme), device, &fault};
    ctrl.write_line(0x40, random_line(rng));
    last = random_line(rng);
    ctrl.write_line(0x40, last);
  }
  // Two flips in one SECDED chunk: uncorrectable by construction.
  StoredLine tampered = device.load(0x40);
  tampered.meta.set_bit(1, !tampered.meta.bit(1));
  tampered.meta.set_bit(2, !tampered.meta.bit(2));
  device.store(0x40, tampered, 2);

  MemoryController rebooted{config, make_encoder(scheme), device, &fault};
  rebooted.recover();
  const ResilienceStats& r = rebooted.stats().resilience;
  EXPECT_GE(r.meta_uncorrectable, 1u);
  EXPECT_EQ(r.recovery_retired, 1u);
  EXPECT_EQ(r.line_retirements, 1u);
  EXPECT_EQ(fault.spares_used, 1u);
  EXPECT_EQ(fault.remap.count(0x40), 1u);  // the line now lives on a spare

  // The replay-phase combination: the retired line keeps serving (with
  // best-effort metadata) instead of wedging the run.
  MemoryController after{config, make_encoder(scheme), device, &fault};
  const CacheLine again = after.read_line(0x40);
  (void)again;  // decode of best-effort metadata: must not throw
  const CacheLine fresh = random_line(rng);
  after.write_line(0x40, fresh);
  EXPECT_EQ(after.read_line(0x40), fresh);
}

}  // namespace
}  // namespace nvmenc
