// Banked PCM timing model (the NVMain-style performance side).
//
// The paper's Table 2 gives array timings (read 100 ns, write 150 ns) and
// Section 3.4.2 argues the 3.47 ns encode latency is negligible because
// system performance is read-dominated. This model makes that claim
// checkable: a channel/rank/bank decomposition with per-bank row buffers,
// bank occupancy, and a shared data bus. One MemoryTimingModel is one
// channel — its ranks*banks banks and its bus — owned by the ChannelShard
// that arbitrates it (memsys/channel_shard.hpp), the way a real
// controller keeps each channel's availability times to itself.
//
// The model is deliberately event-light: one completion time per request,
// no command-level DDR protocol — enough to expose queueing and row
// locality, which is what the encode-latency question touches.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace nvmenc {

struct MemOrg {
  usize channels = 1;
  usize ranks = 1;
  usize banks = 8;          ///< per rank
  usize row_bytes = 4096;   ///< row-buffer width

  double t_read_ns = 100.0;        ///< array read, row open (Table 2)
  double t_write_ns = 150.0;       ///< array write, row open (Table 2)
  double t_row_cycle_ns = 60.0;    ///< precharge + activate on a row miss
  double t_bus_ns = 8.0;           ///< line transfer on the channel bus
  double encode_latency_ns = 0.0;  ///< added to writes (paper: 3.47)

  void validate() const {
    require(channels >= 1 && ranks >= 1 && banks >= 1,
            "memory organization must be non-empty");
    require(row_bytes >= kLineBytes && row_bytes % kLineBytes == 0,
            "row must hold a whole number of lines");
  }
};

/// Physical location of a line.
struct BankAddress {
  usize channel = 0;
  usize bank = 0;  ///< flattened rank*banks + bank
  u64 row = 0;
};

/// Channel a line maps to — the first step of decompose(), exposed
/// separately so drivers can route requests without decomposing further.
[[nodiscard]] inline usize channel_of_line(const MemOrg& org,
                                           u64 line_addr) noexcept {
  return static_cast<usize>((line_addr / org.row_bytes) % org.channels);
}

/// Line address -> channel/bank/row. Consecutive lines fill a row, rows
/// interleave across channels then banks (row-interleaved mapping).
[[nodiscard]] inline BankAddress decompose(const MemOrg& org,
                                           u64 line_addr) noexcept {
  const u64 above_channel = line_addr / org.row_bytes / org.channels;
  const usize banks_per_channel = org.ranks * org.banks;
  return {channel_of_line(org, line_addr),
          static_cast<usize>(above_channel % banks_per_channel),
          above_channel / banks_per_channel};
}

/// Remaps a line address into `channel`'s row group, preserving the
/// within-row offset (rows interleave over channels in decompose, so this
/// replaces the row's channel digit and nothing else). The sharded load
/// generator pins user streams with this, and the RAS layer reuses it to
/// redirect traffic off degraded channels (ras_remap_line).
[[nodiscard]] inline u64 pin_line_to_channel(const MemOrg& org, u64 addr,
                                             usize channel) noexcept {
  const u64 row_id = addr / org.row_bytes;
  const u64 pinned_row = (row_id / org.channels) * org.channels + channel;
  return pinned_row * org.row_bytes + addr % org.row_bytes;
}

enum class MemOp : u8 { kRead, kWrite };

struct TimingStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  RunningStat read_latency_ns;   ///< arrival -> data returned
  RunningStat write_latency_ns;  ///< arrival -> cells committed
  LatencyHistogram read_latency_hist;   ///< same samples, tail percentiles
  LatencyHistogram write_latency_hist;

  [[nodiscard]] double row_hit_rate() const noexcept {
    const u64 total = row_hits + row_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(total);
  }

  /// Folds `other` into this accumulator. Counters and histogram buckets
  /// are exact; the RunningStats use the parallel combine. Per-shard
  /// stats merge in channel-id order so results are independent of how
  /// many threads advanced the shards.
  void merge(const TimingStats& other) noexcept;

  [[nodiscard]] bool operator==(const TimingStats&) const = default;
};

/// One channel's banks and bus. Bank indices are flattened rank*banks +
/// bank, as in BankAddress::bank.
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
  /// the latency statistics of the access that triggered it.
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
    require(bank < banks_.size(), "bank index out of range");
    return banks_[bank];
  }

  MemOrg org_;
  std::vector<BankState> banks_;
  double bus_free_at_ = 0.0;
  TimingStats stats_;
};

}  // namespace nvmenc
