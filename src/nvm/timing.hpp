// Banked PCM timing model (the NVMain-style performance side).
//
// The paper's Table 2 gives array timings (read 100 ns, write 150 ns) and
// Section 3.4.2 argues the 3.47 ns encode latency is negligible because
// system performance is read-dominated. This model makes that claim
// checkable: a channel/bank decomposition with per-bank row buffers, bank
// occupancy, and a shared data bus. One MemoryTimingModel is one channel —
// its kBanks banks and its bus — owned by the ChannelShard that arbitrates
// it (memsys/channel_shard.hpp), the way a real controller keeps each
// channel's availability times to itself. Every channel has the same
// geometry and Table 2 timings, so they are constants; only the channel
// count and the scheme's encode latency vary between runs (MemOrg).
//
// The model is deliberately event-light: one completion time per request,
// no command-level DDR protocol — enough to expose queueing and row
// locality, which is what the encode-latency question touches.
#pragma once

#include <array>

#include "common/error.hpp"
#include "common/types.hpp"

namespace nvmenc {

/// The geometry and array timings of every channel: eight banks with
/// 4 KiB row buffers, and the paper's Table 2 array latencies.
inline constexpr usize kBanks = 8;      ///< per channel
inline constexpr u64 kRowBytes = 4096;  ///< row-buffer width
inline constexpr double kReadNs = 100.0;     ///< array read, row open (Table 2)
inline constexpr double kWriteNs = 150.0;    ///< array write, row open (Table 2)
inline constexpr double kRowCycleNs = 60.0;  ///< precharge + activate on a miss
inline constexpr double kBusNs = 8.0;        ///< line transfer on the channel bus
static_assert(kRowBytes % kLineBytes == 0,
              "a row must hold a whole number of lines");

/// What varies between runs of that one geometry: the channel count, and
/// the encode latency the scheme adds to each array write.
struct MemOrg {
  usize channels = 1;
  double encode_latency_ns = 0.0;  ///< added to writes (paper: 3.47)

  void validate() const {
    require(channels >= 1, "memory organization must be non-empty");
  }
};

/// Physical location of a line.
struct BankAddress {
  usize channel = 0;
  usize bank = 0;  ///< bank index within the channel
  u64 row = 0;
};

/// Channel a line maps to — the first step of decompose(), exposed
/// separately so drivers can route requests without decomposing further.
[[nodiscard]] inline usize channel_of_line(const MemOrg& org,
                                           u64 line_addr) noexcept {
  return static_cast<usize>((line_addr / kRowBytes) % org.channels);
}

/// Line address -> channel/bank/row. Consecutive lines fill a row, rows
/// interleave across channels then banks (row-interleaved mapping).
[[nodiscard]] inline BankAddress decompose(const MemOrg& org,
                                           u64 line_addr) noexcept {
  const u64 above_channel = line_addr / kRowBytes / org.channels;
  return {channel_of_line(org, line_addr),
          static_cast<usize>(above_channel % kBanks), above_channel / kBanks};
}

/// Remaps a line address into `channel`'s row group, preserving the
/// within-row offset (rows interleave over channels in decompose, so this
/// replaces the row's channel digit and nothing else). The sharded load
/// generator pins user streams with this, and the RAS layer reuses it to
/// redirect traffic off degraded channels (ras_remap_line).
[[nodiscard]] inline u64 pin_line_to_channel(const MemOrg& org, u64 addr,
                                             usize channel) noexcept {
  const u64 row_id = addr / kRowBytes;
  const u64 pinned_row = (row_id / org.channels) * org.channels + channel;
  return pinned_row * kRowBytes + addr % kRowBytes;
}

enum class MemOp : u8 { kRead, kWrite };

struct TimingStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;

  [[nodiscard]] double row_hit_rate() const noexcept {
    const u64 total = row_hits + row_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(total);
  }

  /// Folds `other` into this accumulator; every field is an exact count.
  void merge(const TimingStats& other) noexcept;

  [[nodiscard]] bool operator==(const TimingStats&) const = default;
};

/// One channel's kBanks banks and its bus. Bank indices are flattened as
/// in BankAddress::bank.
class MemoryTimingModel {
 public:
  explicit MemoryTimingModel(MemOrg org);

  /// Services one request to this channel arriving at `arrival_ns`;
  /// returns its completion time. The caller decides issue order (the
  /// shard's FR-FCFS arbiter); each bank serves what it is given FCFS.
  double access(u64 line_addr, MemOp op, double arrival_ns);

  [[nodiscard]] const TimingStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MemOrg& org() const noexcept { return org_; }

  /// Earliest time the bank is free.
  [[nodiscard]] double bank_free_at(usize bank) const {
    return bank_at(bank).free_at;
  }

  /// True when the bank's row buffer currently holds `row` — the FR-FCFS
  /// row-hit test an external arbiter needs to prefer open-row requests.
  [[nodiscard]] bool row_open(usize bank, u64 row) const {
    const BankState& state = bank_at(bank);
    return state.row_valid && state.open_row == row;
  }

  /// Holds the bank busy for `extra_ns` beyond max(free_at, from_ns):
  /// the RAS layer's hook for charging recovery work (program-and-verify
  /// re-pulses, SAFER re-partitions, retirement copies) in virtual time.
  /// The occupancy delays every later request on the bank — exactly how
  /// faulty media surfaces in the read tail — without touching the bus or
  /// the row counters.
  void occupy_bank(usize bank, double from_ns, double extra_ns);

 private:
  struct BankState {
    double free_at = 0.0;
    u64 open_row = ~u64{0};
    bool row_valid = false;
  };

  // Inline with its two readers: the shard's arbiter asks for a bank's
  // state on every wake recomputation and every issue scan.
  [[nodiscard]] const BankState& bank_at(usize bank) const {
    require(bank < kBanks, "bank index out of range");
    return banks_[bank];
  }

  MemOrg org_;
  std::array<BankState, kBanks> banks_{};
  double bus_free_at_ = 0.0;
  TimingStats stats_;
};

}  // namespace nvmenc
