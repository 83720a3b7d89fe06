// Zero-allocation guarantee of the replay hot path.
//
// This binary (and only this binary) replaces the global operator new to
// feed the counting hook in common/alloc_hook.hpp. The test warms a
// MemorySystem past its queues' high-water marks, arms the counter, and
// then pushes tens of thousands more accesses through the
// submit -> arbitrate -> complete path: a single steady-state heap
// allocation fails the test. This is the enforcement half of the
// ChannelShard container design (RingBuffer, FlatSetU64, reserved
// vectors and completion heap). The closed-loop engine's drivers
// (run_load, run_load_sharded, run_request_stream) are held to the same
// rule by comparing the allocations of runs of N and 2N requests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/alloc_hook.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/memory_system.hpp"
#include "trace/synthetic.hpp"

// Counting replacements: every allocation in this process funnels through
// alloc_hook_record (a no-op unless armed).
void* operator new(std::size_t size) {
  nvmenc::alloc_hook_record(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nvmenc {
namespace {

MemSysConfig hot_config() {
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.org.encode_latency_ns = 3.47;
  return mem;
}

/// A pre-generated access stream: the real replay decodes records out of
/// an mmap'd trace, so the armed window must not include workload
/// generation (which allocates internally and is not the path under
/// test).
std::vector<MemAccess> make_stream(u64 seed, usize n) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> out;
  out.reserve(n);
  for (usize i = 0; i < n; ++i) out.push_back(workload.next());
  return out;
}

/// Open-loop pump mirroring replay_impl's per-access work.
void pump(MemorySystem& sys, const std::vector<MemAccess>& stream,
          u64& index, u64 count, double inter_arrival_ns) {
  for (u64 i = 0; i < count; ++i, ++index) {
    const double now = static_cast<double>(index) * inter_arrival_ns;
    while (sys.step_until(now)) {
    }
    const MemAccess& a = stream[index % stream.size()];
    (void)sys.submit(a.line_addr(),
                     a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
                     now);
  }
}

TEST(AllocHotPathTest, HookCountsOnlyWhileArmed) {
  // Call the replaceable operator directly: `delete new int` is legal for
  // the optimizer to elide, a direct ::operator new call is not.
  alloc_hook_arm(false);
  const u64 before = alloc_hook_count();
  ::operator delete(::operator new(32));
  EXPECT_EQ(alloc_hook_count(), before);
  alloc_hook_arm(true);
  ::operator delete(::operator new(32));
  alloc_hook_arm(false);
  EXPECT_EQ(alloc_hook_count(), before + 1);
  EXPECT_GE(alloc_hook_bytes(), 32u);
}

TEST(AllocHotPathTest, SteadyStateReplayNeverAllocates) {
  // Sub-saturation offered load (25 ns spacing vs ~100 ns reads over two
  // channels) so queues oscillate instead of growing without bound; the
  // containers reach their high-water marks during warmup.
  constexpr double kInterArrivalNs = 25.0;
  MemorySystem sys{hot_config()};
  const std::vector<MemAccess> stream = make_stream(99, 16'384);
  u64 index = 0;
  pump(sys, stream, index, 8'000, kInterArrivalNs);

  alloc_hook_arm(true);
  const u64 before = alloc_hook_count();
  pump(sys, stream, index, 40'000, kInterArrivalNs);
  const u64 after = alloc_hook_count();
  alloc_hook_arm(false);
  EXPECT_EQ(after - before, 0u)
      << "the replay hot path heap-allocated in steady state";

  // The run did real work: both kinds of traffic flowed.
  const MemSysStats s = sys.stats();
  EXPECT_GT(s.reads, 0u);
  EXPECT_GT(s.writes, 0u);
  (void)sys.drain_all();
}

TEST(AllocHotPathTest, SaturatedReplayStopsAllocatingOnceWarm) {
  // Past saturation the parked queue and completion heap keep growing for
  // a while; after a long warmup they too reach a high-water mark under
  // the open loop's bounded in-flight window... which open-loop replay
  // does NOT bound — so warm with the same access budget we measure, and
  // allow zero NEW allocations only at matched load. 12 ns spacing sits
  // near the knee: queues fill, drains cycle, parks happen, yet depth is
  // bounded, which is exactly the regime the gate benchmark replays.
  constexpr double kInterArrivalNs = 12.0;
  MemorySystem sys{hot_config()};
  const std::vector<MemAccess> stream = make_stream(7, 16'384);
  u64 index = 0;
  pump(sys, stream, index, 60'000, kInterArrivalNs);

  alloc_hook_arm(true);
  const u64 before = alloc_hook_count();
  pump(sys, stream, index, 60'000, kInterArrivalNs);
  const u64 after = alloc_hook_count();
  alloc_hook_arm(false);
  EXPECT_EQ(after - before, 0u)
      << "the near-saturation hot path heap-allocated after warmup";
  (void)sys.drain_all();
}

TEST(AllocHotPathTest, ClosedLoopAllocationsDoNotGrowWithRequests) {
  // The closed-loop engine's per-request work (the router or shard, the
  // users' arrival heap and the ticket -> user list) must not allocate per
  // request: for each of its drivers, runs of N and 2N requests make the
  // same number of heap allocations.
  const auto allocations = [](u64 requests, const auto& run) {
    alloc_hook_arm(true);
    const u64 before = alloc_hook_count();
    const LoadResult result = run();
    const u64 after = alloc_hook_count();
    alloc_hook_arm(false);
    EXPECT_EQ(result.stats.reads + result.stats.writes, requests);
    return after - before;
  };
  const auto load = [](u64 requests) {
    LoadGenConfig l;
    l.pattern = LoadPattern::kZipfian;
    l.footprint_lines = 4'096;
    l.think_ns = 50.0;
    l.requests = requests;
    return l;
  };
  const LoadGenConfig n = load(20'000);
  const LoadGenConfig n2 = load(40'000);
  EXPECT_EQ(allocations(20'000, [&] { return run_load(n, hot_config()); }),
            allocations(40'000, [&] { return run_load(n2, hot_config()); }))
      << "run_load heap-allocated per request";
  EXPECT_EQ(allocations(20'000,
                        [&] { return run_load_sharded(n, hot_config(), 1); }),
            allocations(40'000,
                        [&] { return run_load_sharded(n2, hot_config(), 1); }))
      << "run_load_sharded heap-allocated per request";

  std::vector<MemRequest> stream2;
  for (const MemAccess& a : make_stream(3, 40'000)) {
    stream2.push_back({a.line_addr(), a.op != Op::kRead});
  }
  const std::vector<MemRequest> stream(stream2.begin(),
                                       stream2.begin() + 20'000);
  EXPECT_EQ(
      allocations(20'000,
                  [&] { return run_request_stream(stream, hot_config()); }),
      allocations(40'000,
                  [&] { return run_request_stream(stream2, hot_config()); }))
      << "run_request_stream heap-allocated per request";
}

}  // namespace
}  // namespace nvmenc
