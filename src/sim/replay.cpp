#include "sim/replay.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "core/paper_model.hpp"
#include "fault/secded.hpp"

namespace nvmenc {

namespace {

/// Abandon the replay if a stop was requested. Checked once per paper-model
/// write-back and once per controller batch.
inline void check_cancel(const CancellationToken* cancel) {
  if (cancel != nullptr && cancel->stop_requested()) throw CancelledRun{};
}

/// Write-backs per controller batch: large enough to amortize dispatch,
/// small enough that a cancellation request lands promptly.
constexpr usize kWriteBatch = 256;

/// Drives a whole write-back stream through the controller's batched entry
/// point, checking for cancellation between chunks.
void write_all(MemoryController& controller,
               std::span<const WriteBack> stream,
               const CancellationToken* cancel) {
  for (usize i = 0; i < stream.size(); i += kWriteBatch) {
    check_cancel(cancel);
    controller.write_lines(
        stream.subspan(i, std::min(kWriteBatch, stream.size() - i)));
  }
}

/// Replays through the paper's idealized accounting (no Encoder, no
/// device): a flat logical image plus per-line tag/flag state.
ReplayResult replay_paper_model(const WritebackTrace& trace, Scheme scheme,
                                const EnergyParams& energy,
                                const CancellationToken* cancel) {
  AdaptiveConfig config;
  config.granularity_levels = scheme == Scheme::kReadSaePaper ? 4 : 1;
  const PaperModelReadSae read_model{config};
  const PaperModelAfnw afnw_model;

  std::unordered_map<u64, CacheLine> image;
  std::unordered_map<u64, PaperModelLineState> read_states;
  std::unordered_map<u64, PaperModelAfnwState> afnw_states;
  auto line_of = [&](u64 addr) -> CacheLine& {
    auto it = image.find(addr);
    if (it == image.end()) {
      it = image.emplace(addr, trace.initial_line(addr)).first;
    }
    return it->second;
  };
  auto model_write = [&](u64 addr, const CacheLine& old_line,
                         const CacheLine& new_line) {
    if (scheme == Scheme::kAfnwPaper) {
      return afnw_model.write(afnw_states[addr], old_line, new_line);
    }
    return read_model.write(read_states[addr], old_line, new_line);
  };

  ReplayResult result;
  result.benchmark = trace.benchmark;
  result.scheme = scheme_name(scheme);
  result.meta_bits = scheme == Scheme::kAfnwPaper ? afnw_model.meta_bits()
                                                  : read_model.meta_bits();

  for (const WriteBack& wb : trace.warmup) {
    check_cancel(cancel);
    CacheLine& old_line = line_of(wb.line_addr);
    (void)model_write(wb.line_addr, old_line, wb.data);
    old_line = wb.data;
  }
  ControllerConfig cc;
  cc.energy = energy;
  cc.charge_encode_logic = charges_encode_logic(scheme);
  for (const WriteBack& wb : trace.measured) {
    check_cancel(cancel);
    CacheLine& old_line = line_of(wb.line_addr);
    const usize dirty_words = popcount(wb.data.dirty_mask(old_line));
    const FlipBreakdown fb = model_write(wb.line_addr, old_line, wb.data);
    old_line = wb.data;

    ++result.stats.writebacks;
    if (dirty_words == 0) ++result.stats.silent_writebacks;
    result.stats.dirty_words.add(dirty_words);
    result.stats.flips += fb;
    result.stats.energy.add_write(
        cc.energy, kLineBits, fb.sets, fb.resets,
        cc.charge_encode_logic && dirty_words > 0);
  }
  result.device_flips = result.stats.flips.total();
  result.stats.energy.add_reads(cc.energy, kLineBits,
                                trace.demand_reads);
  result.stats.demand_reads = trace.demand_reads;
  return result;
}

}  // namespace

ReplayResult replay_scheme(const WritebackTrace& trace, Scheme scheme,
                           const EnergyParams& energy, const FaultPlan& fault,
                           u64 fault_seed_salt,
                           const CancellationToken* cancel) {
  if (is_paper_model(scheme)) {
    // Idealized accounting has no device, hence no cells to misbehave.
    return replay_paper_model(trace, scheme, energy, cancel);
  }
  ReplayResult result = replay_encoder(
      trace, [scheme] { return make_encoder(scheme); },
      charges_encode_logic(scheme), energy, fault, fault_seed_salt, cancel);
  result.scheme = scheme_name(scheme);
  return result;
}

ReplayResult replay_encoder(const WritebackTrace& trace,
                            const EncoderFactory& make,
                            bool charge_encode_logic,
                            const EnergyParams& energy, const FaultPlan& fault,
                            u64 fault_seed_salt,
                            const CancellationToken* cancel) {
  EncoderPtr encoder = make();
  const Encoder* enc = encoder.get();

  std::optional<FaultInjector> injector;
  NvmDeviceConfig device_config;
  if (fault.inject.any()) {
    FaultInjectorConfig inject = fault.inject;
    inject.seed = SplitMix64{fault.inject.seed ^ fault_seed_salt}.next();
    injector.emplace(inject);
    device_config.injector = &*injector;
  }

  const bool protect = fault.protect_meta;
  NvmDevice device{
      device_config,
      [&trace, enc, protect](u64 addr) {
        StoredLine stored = enc->make_stored(trace.initial_line(addr));
        if (protect) stored.meta = secded_protect(stored.meta);
        return stored;
      }};

  ControllerConfig config;
  config.energy = energy;
  config.charge_encode_logic = charge_encode_logic;
  // Atomicity alone does not imply verify reads: an atomic-only plan runs
  // the plain differential store inside the commit protocol.
  config.verify.program_and_verify =
      fault.inject.any() || fault.protect_meta || fault.force_verify;
  config.verify.retry_limit = fault.retry_limit;
  config.verify.protect_meta = protect;
  config.verify.atomic_writes = fault.atomic_writes;

  // SAFER encodings, the remap table and retired lines are device state:
  // one context spans the warm-up and measured controllers.
  std::optional<FaultContext> fault_context;
  FaultContext* fault_state = nullptr;
  if (fault.active()) {
    fault_context.emplace(device);
    fault_state = &*fault_context;
  }

  // Warm-up pass on a throwaway controller sharing the device: brings
  // stored images, tags and flags to steady state.
  {
    MemoryController warmup{config, make(), device, nullptr, fault_state};
    write_all(warmup, trace.warmup, cancel);
  }

  const u64 flips_before = device.total_flips();
  MemoryController controller{config, std::move(encoder), device, nullptr,
                              fault_state};
  write_all(controller, trace.measured, cancel);

  ReplayResult result;
  result.benchmark = trace.benchmark;
  result.scheme = enc->name();
  result.stats = controller.stats();
  result.meta_bits = controller.encoder().meta_bits();
  result.device_flips = device.total_flips() - flips_before;

  // Demand fetches of the measured window: identical work across schemes,
  // included so energy ratios are diluted by read energy exactly as in the
  // paper (Section 4.2.2).
  result.stats.energy.add_reads(config.energy,
                                kLineBits,
                                trace.demand_reads);
  result.stats.demand_reads += trace.demand_reads;
  return result;
}

}  // namespace nvmenc
