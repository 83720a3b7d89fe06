// Lifetime study: endurance failure and wear leveling on the PCM device.
//
// Runs hot-spotted traffic against a small PCM region with a (scaled-down)
// endurance limit, and shows the two levers the paper's Section 4.2.4
// discusses: fewer flips per write (READ+SAE vs DCW) and wear leveling
// (Start-Gap vs none). Also demonstrates stuck-at fault injection.
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/schemes.hpp"
#include "nvm/controller.hpp"
#include "nvm/recovery.hpp"
#include "wear/wear_leveler.hpp"

using namespace nvmenc;

namespace {

/// Drives hot-spotted patterned writes through a controller until the
/// first line fails (any cell exceeds `endurance` flips) or `max_writes`.
u64 writes_until_failure(Scheme scheme, u64 endurance, u64 max_writes) {
  EncoderPtr enc = make_encoder(scheme);
  const Encoder* e = enc.get();
  NvmDeviceConfig dc;
  dc.endurance = endurance;
  dc.bit_wear_sample = 1;  // track every line: we want exact failure
  NvmDevice device{dc, [e](u64) { return e->make_stored({}); }};
  MemoryController ctl{{}, std::move(enc), device};

  Xoshiro256 rng{11};
  std::vector<CacheLine> images(16);
  for (u64 n = 1; n <= max_writes; ++n) {
    // 80% of writes hit 4 hot lines.
    const u64 line = rng.next_bool(0.8) ? rng.next_below(4)
                                        : rng.next_below(16);
    CacheLine& img = images[line];
    // Patterned update: two words get fresh small values.
    img.set_word(rng.next_below(kWordsPerLine), rng.next() & 0xFFFF);
    img.set_word(rng.next_below(kWordsPerLine), rng.next());
    ctl.write_line(line * kLineBytes, img);
    if (device.failed_lines() > 0) return n;
  }
  return max_writes;
}

}  // namespace

int main() {
  std::cout << "PCM lifetime study (endurance scaled to 10k flips/cell)\n\n";

  const u64 endurance = 10'000;
  const u64 cap = 10'000'000;

  // Note the honest twist: encoders that concentrate flip activity on a
  // few tag cells (READ+SAE) can see their FIRST cell fail sooner than
  // DCW even while flipping fewer bits in total -- per-cell endurance is
  // the binding limit (bench/paper_claims, metadata wear). Fixed-tag
  // schemes like Flip-N-Write spread tag wear across 64 cells and extend
  // first-failure markedly.
  TextTable table{{"scheme", "writes until first cell failure", "vs DCW"}};
  const u64 dcw_life = writes_until_failure(Scheme::kDcw, endurance, cap);
  for (Scheme scheme :
       {Scheme::kDcw, Scheme::kFnw, Scheme::kCafo, Scheme::kReadSae}) {
    const u64 life = scheme == Scheme::kDcw
                         ? dcw_life
                         : writes_until_failure(scheme, endurance, cap);
    table.add_row({scheme_name(scheme), std::to_string(life),
                   TextTable::fmt_pct(static_cast<double>(life) /
                                          static_cast<double>(dcw_life) -
                                      1.0)});
  }
  table.print(std::cout);

  // Wear leveling on top: the same hot-spot stream through deployed
  // Start-Gap (static randomization + per-32-line-region gaps).
  std::cout << "\nwear leveling (uniformity = fraction of ideal life):\n";
  RegionedLeveler start_gap{256, 32, [](usize lines) {
                              return std::make_unique<StartGapLeveler>(
                                  lines, /*gap_interval=*/4);
                            }};
  IdealWearLeveler ideal{256};
  Xoshiro256 rng{13};
  for (int i = 0; i < 400'000; ++i) {
    const u64 line = rng.next_bool(0.8) ? rng.next_below(4)
                                        : rng.next_below(256);
    start_gap.on_write(line * kLineBytes, 20);
    ideal.on_write(line * kLineBytes, 20);
  }
  std::cout << "  no WL (hot lines pinned): ~"
            << TextTable::fmt(4.0 / 256.0 / 0.8, 3)
            << "   Start-Gap: "
            << TextTable::fmt(start_gap.report().uniformity, 3)
            << "   ideal: " << TextTable::fmt(ideal.report().uniformity, 3)
            << "\n";

  // Stuck-at faults: a failed cell silently holds its value; SAFER [16]
  // re-partitions the line so the data can still be stored exactly.
  std::cout << "\nstuck-at faults and SAFER recovery:\n";
  EncoderPtr enc = make_encoder(Scheme::kDcw);
  const Encoder* e = enc.get();
  NvmDevice device{NvmDeviceConfig{}, [e](u64) { return e->make_stored({}); }};
  {
    // Without recovery: the write is silently corrupted.
    MemoryController ctl{{}, make_encoder(Scheme::kDcw), device};
    device.inject_stuck_bit(0, 7);
    CacheLine want;
    want.set_word(0, 0xFF);
    ctl.write_line(0, want);
    std::cout << "  no recovery: wrote word 0 = 0xff with bit 7 stuck at 0"
              << " -> read back 0x" << std::hex
              << ctl.read_line(0).word(0) << std::dec << "\n";
  }
  {
    // With SAFER: the store routes around an accumulating fault set.
    NvmDevice dev2{NvmDeviceConfig{}, [e](u64) { return e->make_stored({}); }};
    FaultTolerantStore safer{dev2};
    Xoshiro256 frng{99};
    usize survived = 0;
    bool retired = false;
    CacheLine data;
    for (int f = 0; f < 32; ++f) {
      const usize bit = static_cast<usize>(frng.next_below(kLineBits));
      safer.report_fault(0, bit, dev2.load(0).data.bit(bit));
      for (usize w = 0; w < kWordsPerLine; ++w) data.set_word(w, frng.next());
      StoredLine image;
      image.data = data;
      image.meta = BitBuf{0};
      if (!safer.store(0, image, 1)) {
        // SAFER exhausted: no partition covers the fault set. A real
        // controller retires the line to a spare now (see
        // MemoryController's program-and-verify path).
        std::cout << "  SAFER-32: line retired after fault " << (f + 1)
                  << " (" << safer.unrecoverable_lines()
                  << " unrecoverable)\n";
        retired = true;
        break;
      }
      if (safer.load(0).data != data) break;
      ++survived;
    }
    std::cout << "  SAFER-32: the line stored exact data through "
              << survived << " accumulated stuck cells"
              << (retired ? "" : "; never exhausted in this run") << "\n";
  }
  return 0;
}
