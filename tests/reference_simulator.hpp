// The online pipeline the repository shipped before every functional run
// moved to collect → replay, kept verbatim as a differential-testing
// oracle.
//
// Simulator runs workload -> caches -> controller -> NVM device in one
// pass, one scheme at a time: the cache hierarchy writes back straight into
// the scheme's MemoryController, and demand fetches decode through it.
// Its callers (`nvmenc run`, the functional `nvmenc replay`,
// examples/inmemory_kvstore) now collect the write-back stream once and
// replay it per scheme; test_pipeline_differential.cpp holds them to this
// class field for field.
#pragma once

#include <memory>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "common/error.hpp"
#include "core/schemes.hpp"
#include "nvm/controller.hpp"
#include "trace/workload.hpp"

namespace nvmenc::testutil {

struct SimConfig {
  std::vector<CacheConfig> caches = scaled_hierarchy();
  EnergyParams energy;
  NvmDeviceConfig device;
  u64 warmup_accesses = 100'000;
};

class Simulator {
 public:
  Simulator(SimConfig config, std::unique_ptr<WorkloadGenerator> workload,
            Scheme scheme)
      : config_{std::move(config)}, workload_{std::move(workload)} {
    require(workload_ != nullptr, "simulator needs a workload");

    EncoderPtr encoder = make_encoder(scheme);
    const Encoder* enc = encoder.get();
    const WorkloadGenerator* wl = workload_.get();
    device_ = std::make_unique<NvmDevice>(
        config_.device, [enc, wl](u64 addr) {
          return enc->make_stored(wl->initial_line(addr));
        });

    ControllerConfig cc;
    cc.energy = config_.energy;
    cc.charge_encode_logic = charges_encode_logic(scheme);
    controller_ = std::make_unique<MemoryController>(cc, std::move(encoder),
                                                     *device_);
    hierarchy_ =
        std::make_unique<CacheHierarchy>(config_.caches, *controller_);
  }

  /// Runs `accesses` CPU accesses through the pipeline.
  void run(u64 accesses) {
    for (u64 i = 0; i < accesses; ++i) {
      hierarchy_->access(workload_->next());
    }
  }

  /// Runs the configured warm-up window and clears the statistics.
  void warmup() {
    run(config_.warmup_accesses);
    reset_stats();
  }

  /// Writes all dirty cache contents back to the NVM (end of simulation).
  void drain() { hierarchy_->flush(); }

  [[nodiscard]] const ControllerStats& stats() const noexcept {
    return controller_->stats();
  }
  [[nodiscard]] const CacheHierarchy& caches() const noexcept {
    return *hierarchy_;
  }
  [[nodiscard]] NvmDevice& device() noexcept { return *device_; }
  [[nodiscard]] const Encoder& encoder() const noexcept {
    return controller_->encoder();
  }
  [[nodiscard]] WorkloadGenerator& workload() noexcept { return *workload_; }

  /// Clears controller statistics (used after warm-up).
  void reset_stats() { controller_->reset_stats(); }

 private:
  SimConfig config_;
  std::unique_ptr<WorkloadGenerator> workload_;
  std::unique_ptr<NvmDevice> device_;
  std::unique_ptr<MemoryController> controller_;
  std::unique_ptr<CacheHierarchy> hierarchy_;
};

}  // namespace nvmenc::testutil
