#include "fault/fault_injector.hpp"

#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace nvmenc {

void check_retry_limit(usize retry_limit) {
  if (retry_limit <= kMaxRetryLimit) return;
  throw std::invalid_argument{
      "retry limit " + std::to_string(retry_limit) + " exceeds the bound of " +
      std::to_string(kMaxRetryLimit) + " re-pulses per write"};
}

FaultInjector::FaultInjector(FaultInjectorConfig config) : config_{config} {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  require(rate_ok(config_.write_fail_rate) &&
              rate_ok(config_.read_disturb_rate) &&
              rate_ok(config_.stuck_rate),
          "fault rates must be probabilities in [0, 1]");
}

Xoshiro256 FaultInjector::event_rng(u64 line_addr, u64 seq,
                                    u64 salt) const noexcept {
  u64 key = SplitMix64{config_.seed ^ line_addr}.next();
  key = SplitMix64{key ^ seq}.next();
  key = SplitMix64{key ^ salt}.next();
  return Xoshiro256{key};
}

WriteFaults FaultInjector::on_store(u64 line_addr, u64 seq,
                                    const StoredLine& prev,
                                    const StoredLine& next) {
  WriteFaults faults;
  Xoshiro256 rng = event_rng(line_addr, seq, /*salt=*/0);

  // Programmed cells are exactly the differing positions (differential
  // write). Walk them in fixed ascending order so the draw sequence is a
  // pure function of (seed, line, seq, old image, new image).
  auto pulse = [&](usize cell, bool data_cell) {
    if (rng.next_bool(config_.write_fail_rate)) {
      faults.failed_cells.push_back(cell);
      ++transient_;
      return;  // a pulse that never landed cannot weld the cell
    }
    if (data_cell && rng.next_bool(config_.stuck_rate)) {
      faults.new_stuck_cells.push_back(cell);
      ++hard_;
    }
  };

  for (usize w = 0; w < kWordsPerLine; ++w) {
    u64 diff = prev.data.word(w) ^ next.data.word(w);
    while (diff != 0) {
      const usize bit = w * 64 + static_cast<usize>(std::countr_zero(diff));
      diff &= diff - 1;
      pulse(bit, /*data_cell=*/true);
    }
  }
  const usize meta_bits = prev.meta.size() < next.meta.size()
                              ? prev.meta.size()
                              : next.meta.size();
  for (usize i = 0; i < meta_bits; ++i) {
    if (prev.meta.bit(i) != next.meta.bit(i)) {
      pulse(kLineBits + i, /*data_cell=*/false);
    }
  }
  return faults;
}

std::optional<usize> FaultInjector::on_load(u64 line_addr, u64 seq,
                                            usize cells) {
  if (config_.read_disturb_rate <= 0.0 || cells == 0) return std::nullopt;
  Xoshiro256 rng = event_rng(line_addr, seq, /*salt=*/1);
  if (!rng.next_bool(config_.read_disturb_rate)) return std::nullopt;
  ++disturbs_;
  return static_cast<usize>(rng.next_below(cells));
}

}  // namespace nvmenc
