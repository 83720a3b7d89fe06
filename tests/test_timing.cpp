#include "nvm/timing.hpp"

#include <gtest/gtest.h>

#include "memsys/loadgen.hpp"

namespace nvmenc {
namespace {

MemOrg simple_org() {
  MemOrg org;
  org.channels = 1;
  return org;
}

/// On one channel, row r lands on bank r % kBanks: this many bytes on,
/// the same bank opens its next row.
constexpr u64 kSameBankNextRow = kBanks * kRowBytes;

TEST(MemOrg, Validation) {
  MemOrg bad = simple_org();
  bad.channels = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(simple_org().validate());
}

TEST(Timing, DecomposeInterleavesRowsAcrossBanks) {
  const MemOrg org = simple_org();
  const BankAddress a = decompose(org, 0);
  const BankAddress b = decompose(org, 4096);   // next row
  const BankAddress c = decompose(org, kSameBankNextRow);  // bank 0 again
  EXPECT_EQ(a.bank, 0u);
  EXPECT_EQ(b.bank, 1u);
  EXPECT_EQ(decompose(org, 8192).bank, 2u);
  EXPECT_EQ(c.bank, 0u);
  EXPECT_EQ(c.row, a.row + 1);
  // Lines within one row share bank and row.
  const BankAddress a2 = decompose(org, 64);
  EXPECT_EQ(a2.bank, a.bank);
  EXPECT_EQ(a2.row, a.row);
}

TEST(Timing, ColdReadPaysRowCycle) {
  MemoryTimingModel model{simple_org()};
  const double done = model.access(0, MemOp::kRead, 0.0);
  EXPECT_DOUBLE_EQ(done, 60 + 100 + 8);
  EXPECT_EQ(model.stats().row_misses, 1u);
}

TEST(Timing, RowHitSkipsRowCycle) {
  MemoryTimingModel model{simple_org()};
  (void)model.access(0, MemOp::kRead, 0.0);
  const double start = 1000.0;
  const double done = model.access(64, MemOp::kRead, start);  // same row
  EXPECT_DOUBLE_EQ(done, start + 100 + 8);
  EXPECT_EQ(model.stats().row_hits, 1u);
}

TEST(Timing, RowConflictReopens) {
  MemoryTimingModel model{simple_org()};
  (void)model.access(0, MemOp::kRead, 0.0);
  // Same bank (bank 0), different row: kBanks rows ahead.
  const double done = model.access(kSameBankNextRow, MemOp::kRead, 1000.0);
  EXPECT_DOUBLE_EQ(done, 1000 + 60 + 100 + 8);
  EXPECT_EQ(model.stats().row_misses, 2u);
}

TEST(Timing, BusyBankQueuesRequest) {
  MemoryTimingModel model{simple_org()};
  const double first = model.access(0, MemOp::kWrite, 0.0);
  // Second request to the same bank arrives while it is busy.
  const double second = model.access(64, MemOp::kRead, 10.0);
  EXPECT_DOUBLE_EQ(second, first + 100 + 8);  // row hit after the write
  EXPECT_GT(second - 10.0, 100 + 8);          // latency includes queueing
}

TEST(Timing, DifferentBanksOverlapButShareBus) {
  MemoryTimingModel model{simple_org()};
  const double a = model.access(0, MemOp::kRead, 0.0);     // bank 0
  const double b = model.access(4096, MemOp::kRead, 0.0);  // bank 1
  // Arrays overlap; the second transfer waits only for the bus.
  EXPECT_DOUBLE_EQ(a, 168.0);
  EXPECT_DOUBLE_EQ(b, 176.0);  // 168 + bus
}

TEST(Timing, EncodeLatencyAddsToWritesOnly) {
  MemOrg org = simple_org();
  org.encode_latency_ns = 3.47;
  MemoryTimingModel model{org};
  const double w = model.access(0, MemOp::kWrite, 0.0);
  EXPECT_DOUBLE_EQ(w, 60 + 3.47 + 150 + 8);
  MemoryTimingModel model2{org};
  const double r = model2.access(0, MemOp::kRead, 0.0);
  EXPECT_DOUBLE_EQ(r, 60 + 100 + 8);
}

TEST(Timing, StatsCountEachAccessOnce) {
  // TimingStats is four counters: every access is one read or one write,
  // and one row hit or one row miss.
  MemoryTimingModel model{simple_org()};
  (void)model.access(0, MemOp::kRead, 0.0);           // bank 0: miss
  (void)model.access(64, MemOp::kRead, 500.0);        // same row: hit
  (void)model.access(4096, MemOp::kWrite, 1000.0);    // bank 1: miss
  (void)model.access(kSameBankNextRow, MemOp::kWrite, 2000.0);  // conflict
  (void)model.access(kSameBankNextRow + 64, MemOp::kRead, 3000.0);  // hit
  const TimingStats& s = model.stats();
  EXPECT_EQ(s.reads, 3u);
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(s.row_hits, 2u);
  EXPECT_EQ(s.row_misses, 3u);
  EXPECT_DOUBLE_EQ(s.row_hit_rate(), 2.0 / 5.0);
  EXPECT_EQ(TimingStats{}.row_hit_rate(), 0.0);
}

TEST(Timing, StatsMergeAddsEveryCounter) {
  // Channels merge by adding counters, so the merged row-hit rate is the
  // rate over both channels' accesses, not a mean of the two rates.
  MemoryTimingModel a{simple_org()};
  MemoryTimingModel b{simple_org()};
  (void)a.access(0, MemOp::kRead, 0.0);
  (void)a.access(64, MemOp::kWrite, 500.0);
  (void)b.access(0, MemOp::kWrite, 0.0);
  (void)b.access(8192, MemOp::kRead, 500.0);
  (void)b.access(8192 + 64, MemOp::kRead, 1000.0);
  TimingStats merged = a.stats();
  merged.merge(b.stats());
  EXPECT_EQ(merged.reads, 3u);
  EXPECT_EQ(merged.writes, 2u);
  EXPECT_EQ(merged.row_hits, 2u);
  EXPECT_EQ(merged.row_misses, 3u);
  EXPECT_DOUBLE_EQ(merged.row_hit_rate(), 2.0 / 5.0);
  const TimingStats before = merged;
  merged.merge(TimingStats{});
  EXPECT_EQ(merged, before);
}

TEST(Timing, BankFreeAtBoundsChecked) {
  MemoryTimingModel model{simple_org()};
  EXPECT_THROW((void)model.bank_free_at(kBanks), std::invalid_argument);
  EXPECT_EQ(model.bank_free_at(0), 0.0);
  EXPECT_THROW(model.occupy_bank(kBanks, 0.0, 1.0), std::invalid_argument);
  model.occupy_bank(1, 10.0, 5.0);
  EXPECT_EQ(model.bank_free_at(1), 15.0);
}

TEST(PerfReplay, ReadsStallWritesPost) {
  MemSysConfig mem;
  mem.org = simple_org();
  // read (stalls), write (posted), read.
  const std::vector<MemRequest> reqs{
      {0, false}, {4096, true}, {8192, false}};
  const LoadResult r = run_request_stream(reqs, mem);
  EXPECT_EQ(r.timing.reads, 2u);
  EXPECT_EQ(r.timing.writes, 1u);
  EXPECT_EQ(r.stats.write_stalls, 0u);  // accepted on arrival
  // Each read waits for its data: two cold reads plus the CPU gaps.
  EXPECT_GT(r.makespan_ns, 2 * (60 + 100 + 8) + 3 * kCpuGapNs);
}

TEST(PerfReplay, HigherEncodeLatencySlowsWriteHeavyStreams) {
  std::vector<MemRequest> reqs;
  for (u64 i = 0; i < 2000; ++i) {
    reqs.push_back({i * 64, i % 2 == 0});
  }
  MemSysConfig fast;
  fast.org = simple_org();
  MemSysConfig slow = fast;
  slow.org.encode_latency_ns = 200.0;
  const LoadResult a = run_request_stream(reqs, fast);
  const LoadResult b = run_request_stream(reqs, slow);
  EXPECT_GT(b.makespan_ns, a.makespan_ns);
}

TEST(PerfReplay, EmptyStream) {
  const LoadResult r = run_request_stream({}, MemSysConfig{});
  EXPECT_EQ(r.makespan_ns, 0.0);
  EXPECT_EQ(r.timing.reads, 0u);
}

TEST(Timing, DecomposeRoundTripsAcrossChannels) {
  MemOrg org = simple_org();
  org.channels = 3;
  for (u64 line = 0; line < 5000; ++line) {
    const u64 addr = line * kLineBytes;
    const BankAddress where = decompose(org, addr);
    ASSERT_LT(where.channel, org.channels);
    ASSERT_LT(where.bank, kBanks);
    // Reconstruct the row id from its (channel, bank, row) digits: the
    // mapping must be a bijection on row ids.
    const u64 row_id = addr / kRowBytes;
    const u64 rebuilt =
        (where.row * kBanks + where.bank) * org.channels + where.channel;
    EXPECT_EQ(rebuilt, row_id);
    // Lines within one row land on the same bank.
    EXPECT_EQ(decompose(org, addr + kLineBytes - 1).bank, where.bank);
  }
}

TEST(Timing, RowOpenTracksTheRowBuffer) {
  MemoryTimingModel model{simple_org()};
  const BankAddress where = decompose(model.org(), 0);
  EXPECT_FALSE(model.row_open(where.bank, where.row));
  (void)model.access(0, MemOp::kRead, 0.0);
  EXPECT_TRUE(model.row_open(where.bank, where.row));
  EXPECT_FALSE(model.row_open(where.bank, where.row + 1));
  // A different row on the same bank evicts the open row.
  const u64 far = kSameBankNextRow;  // rows interleave: same bank, next row
  const BankAddress where2 = decompose(model.org(), far);
  ASSERT_EQ(where2.bank, where.bank);
  (void)model.access(far, MemOp::kRead, 1000.0);
  EXPECT_FALSE(model.row_open(where.bank, where.row));
  EXPECT_TRUE(model.row_open(where2.bank, where2.row));
  EXPECT_THROW((void)model.row_open(9, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nvmenc
