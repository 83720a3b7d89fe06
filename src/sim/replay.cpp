#include "sim/replay.hpp"

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/paper_model.hpp"
#include "fault/secded.hpp"

namespace nvmenc {

namespace {

/// Abandon the replay if a stop was requested. Checked once per write-back.
inline void check_cancel(const CancellationToken* cancel) {
  if (cancel != nullptr && cancel->stop_requested()) throw CancelledRun{};
}

/// Drives a write-back stream through the controller.
void write_all(MemoryController& controller,
               const std::vector<WriteBack>& stream,
               const CancellationToken* cancel) {
  for (const WriteBack& wb : stream) {
    check_cancel(cancel);
    controller.write_line(wb.line_addr, wb.data);
  }
}

/// Demand fetches of the measured window: identical work across schemes,
/// included so energy ratios are diluted by read energy exactly as in the
/// paper (Section 4.2.2).
void add_demand_reads(ReplayResult& result, const WritebackTrace& trace,
                      const EnergyParams& energy) {
  result.stats.energy.add_reads(energy, kLineBits, trace.demand_reads);
  result.stats.demand_reads += trace.demand_reads;
}

/// Replays through the paper's idealized accounting (no Encoder, no
/// device): one record per line, its logical image plus the model's
/// persistent tag/flag state.
template <typename Model>
ReplayResult replay_paper_model(const WritebackTrace& trace, Scheme scheme,
                                const Model& model,
                                const EnergyParams& energy,
                                const CancellationToken* cancel) {
  struct Line {
    CacheLine image;
    typename Model::State state{};
  };
  std::unordered_map<u64, Line> lines;
  auto line_of = [&](u64 addr) -> Line& {
    auto it = lines.find(addr);
    if (it == lines.end()) {
      it = lines.emplace(addr, Line{trace.initial_line(addr)}).first;
    }
    return it->second;
  };

  ReplayResult result;
  result.benchmark = trace.benchmark;
  result.scheme = scheme_name(scheme);
  result.meta_bits = model.meta_bits();

  for (const WriteBack& wb : trace.warmup) {
    check_cancel(cancel);
    Line& line = line_of(wb.line_addr);
    (void)model.write(line.state, line.image, wb.data);
    line.image = wb.data;
  }
  const bool charge = charges_encode_logic(scheme);
  ControllerStats& stats = result.stats;
  for (const WriteBack& wb : trace.measured) {
    check_cancel(cancel);
    Line& line = line_of(wb.line_addr);
    const usize dirty_words = popcount(wb.data.dirty_mask(line.image));
    const FlipBreakdown fb = model.write(line.state, line.image, wb.data);
    line.image = wb.data;

    ++stats.writebacks;
    if (dirty_words == 0) ++stats.silent_writebacks;
    stats.dirty_words.add(dirty_words);
    stats.flips += fb;
    stats.energy.add_write(energy, kLineBits, fb.sets, fb.resets,
                           charge && dirty_words > 0);
  }
  result.device_flips = stats.flips.total();
  add_demand_reads(result, trace, energy);
  return result;
}

}  // namespace

ReplayResult replay_scheme(const WritebackTrace& trace, Scheme scheme,
                           const EnergyParams& energy, const FaultPlan& fault,
                           u64 fault_seed_salt,
                           const CancellationToken* cancel) {
  // Idealized accounting has no device, hence no cells to misbehave.
  if (scheme == Scheme::kAfnwPaper) {
    return replay_paper_model(trace, scheme, PaperModelAfnw{}, energy,
                              cancel);
  }
  if (is_paper_model(scheme)) {
    AdaptiveConfig config;
    config.granularity_levels = scheme == Scheme::kReadSaePaper ? 4 : 1;
    return replay_paper_model(trace, scheme, PaperModelReadSae{config},
                              energy, cancel);
  }
  ReplayResult result =
      replay_encoder(trace, make_encoder(scheme), charges_encode_logic(scheme),
                     energy, fault, fault_seed_salt, cancel);
  result.scheme = scheme_name(scheme);
  return result;
}

ReplayResult replay_encoder(const WritebackTrace& trace, EncoderPtr encoder,
                            bool charge_encode_logic,
                            const EnergyParams& energy, const FaultPlan& fault,
                            u64 fault_seed_salt,
                            const CancellationToken* cancel) {
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

  // One controller spans both windows, so the SAFER encodings, the remap
  // table and the retired lines of its fault context (active exactly when
  // the plan is) carry from warm-up into the measured window.
  MemoryController controller{config, std::move(encoder), device};
  write_all(controller, trace.warmup, cancel);
  const u64 flips_before = device.total_flips();
  controller.reset_stats();
  write_all(controller, trace.measured, cancel);

  ReplayResult result;
  result.benchmark = trace.benchmark;
  result.scheme = enc->name();
  result.stats = controller.stats();
  result.meta_bits = enc->meta_bits();
  result.device_flips = device.total_flips() - flips_before;
  add_demand_reads(result, trace, energy);
  return result;
}

}  // namespace nvmenc
