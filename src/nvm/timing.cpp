#include "nvm/timing.hpp"

#include <algorithm>

namespace nvmenc {

MemoryTimingModel::MemoryTimingModel(MemOrg org) : org_{org} {
  org_.validate();
  banks_.resize(org_.ranks * org_.banks);
}

void TimingStats::merge(const TimingStats& other) noexcept {
  reads += other.reads;
  writes += other.writes;
  row_hits += other.row_hits;
  row_misses += other.row_misses;
  read_latency_ns.merge(other.read_latency_ns);
  write_latency_ns.merge(other.write_latency_ns);
  read_latency_hist.merge(other.read_latency_hist);
  write_latency_hist.merge(other.write_latency_hist);
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
    service += org_.t_row_cycle_ns;
    bank.open_row = where.row;
    bank.row_valid = true;
  }
  if (op == MemOp::kRead) {
    service += org_.t_read_ns;
  } else {
    service += org_.encode_latency_ns + org_.t_write_ns;
  }

  // The line transfer needs the channel bus; serialize on it.
  const double array_done = start + service;
  const double bus_start = std::max(array_done, bus_free_at_);
  const double completion = bus_start + org_.t_bus_ns;
  bus_free_at_ = completion;
  bank.free_at = completion;

  const double latency = completion - arrival_ns;
  if (op == MemOp::kRead) {
    ++stats_.reads;
    stats_.read_latency_ns.add(latency);
    stats_.read_latency_hist.add(latency);
  } else {
    ++stats_.writes;
    stats_.write_latency_ns.add(latency);
    stats_.write_latency_hist.add(latency);
  }
  return completion;
}

void MemoryTimingModel::occupy_bank(usize bank, double from_ns,
                                    double extra_ns) {
  require(bank < banks_.size(), "bank index out of range");
  BankState& state = banks_[bank];
  state.free_at = std::max(state.free_at, from_ns) + extra_ns;
}

}  // namespace nvmenc
