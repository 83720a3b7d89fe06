#include "nvm/timing.hpp"

#include <algorithm>

namespace nvmenc {

MemoryTimingModel::MemoryTimingModel(MemOrg org) : org_{org} {
  org_.validate();
}

void TimingStats::merge(const TimingStats& other) noexcept {
  reads += other.reads;
  writes += other.writes;
  row_hits += other.row_hits;
  row_misses += other.row_misses;
}

double MemoryTimingModel::access(u64 line_addr, MemOp op,
                                 double arrival_ns) {
  const BankAddress where = decompose(org_, line_addr);
  BankState& bank = banks_[where.bank];

  // The request starts when both it has arrived and the bank is free.
  double start = std::max(arrival_ns, bank.free_at);

  // Row buffer: a miss pays precharge + activate before the array access.
  double service = 0.0;
  if (bank.row_valid && bank.open_row == where.row) {
    ++stats_.row_hits;
  } else {
    ++stats_.row_misses;
    service += kRowCycleNs;
    bank.open_row = where.row;
    bank.row_valid = true;
  }
  if (op == MemOp::kRead) {
    service += kReadNs;
  } else {
    service += org_.encode_latency_ns + kWriteNs;
  }

  // The line transfer needs the channel bus; serialize on it.
  const double array_done = start + service;
  const double bus_start = std::max(array_done, bus_free_at_);
  const double completion = bus_start + kBusNs;
  bus_free_at_ = completion;
  bank.free_at = completion;

  if (op == MemOp::kRead) {
    ++stats_.reads;
  } else {
    ++stats_.writes;
  }
  return completion;
}

void MemoryTimingModel::occupy_bank(usize bank, double from_ns,
                                    double extra_ns) {
  require(bank < kBanks, "bank index out of range");
  BankState& state = banks_[bank];
  state.free_at = std::max(state.free_at, from_ns) + extra_ns;
}

}  // namespace nvmenc
