// Perf-regression gate for MemorySystem's pump, on the skeleton of
// bench/gate.hpp. The pump is the router that run_load and
// run_request_stream drive through the closed-loop engine; run_load_sharded
// and open-loop replay run the same channel shards. The gate times the pump
// (step_until + submit + arbitrate + complete) against a bare scan of the
// same pre-generated access stream and judges replay_ns / scan_ns against
// results/PERF_GATE_replay.json.
//
// The headroom is 25%, much wider than the encoder gate's 5%: the pump
// (branchy, pointer-chasing) and the scan (streaming) respond differently
// to the multi-second contention phases of shared-vCPU CI runners, which
// the within-invocation minimum cannot escape (invocations on the
// reference machine spread 41-51 around a fast-phase center of ~43). It
// still rejects a real hot-path regression: one heap allocation per access
// moves the ratio well past the limit. The CI self-test injects 40%, which
// exceeds the limit even when measured from the fast end of the spread.
//
//   replay_gate [--baseline=results/PERF_GATE_replay.json]
//               [--accesses=N] [--reps=R] [--print-ratio]
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/table.hpp"
#include "gate.hpp"
#include "memsys/memory_system.hpp"
#include "trace/synthetic.hpp"

namespace nvmenc {
namespace {

std::vector<MemAccess> make_stream(usize n, u64 seed) {
  SyntheticWorkload workload{profile_by_name("gcc"), seed};
  std::vector<MemAccess> out;
  out.reserve(n);
  for (usize i = 0; i < n; ++i) out.push_back(workload.next());
  return out;
}

MemSysConfig gate_config() {
  MemSysConfig mem;
  mem.org.channels = 2;
  mem.org.encode_latency_ns = 3.47;
  return mem;
}

/// Sub-saturation spacing (reads cost ~100 ns across two channels) so the
/// queues oscillate in steady state instead of growing: per-slice work is
/// then stationary and the minimum estimator is meaningful.
constexpr double kInterArrivalNs = 25.0;

/// One timed replay slice: `count` accesses through the open-loop pump,
/// continuing from `index` so the system stays warm across slices.
double time_replay_slice(MemorySystem& sys,
                         const std::vector<MemAccess>& stream, u64& index,
                         usize count) {
  const auto start = std::chrono::steady_clock::now();
  for (usize i = 0; i < count; ++i, ++index) {
    const double now = static_cast<double>(index) * kInterArrivalNs;
    while (sys.step_until(now)) {
    }
    const MemAccess& a = stream[index % stream.size()];
    (void)sys.submit(a.line_addr(),
                     a.op == Op::kRead ? ReqKind::kRead : ReqKind::kWrite,
                     now);
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count();
}

/// One timed scan slice: read the same records, fold them into a checksum
/// (data dependency so the loop cannot be elided). This is the gate's
/// denominator — the irreducible cost of touching the trace at all. A
/// scan access is ~50x cheaper than a replayed one, so the slice makes
/// kScanPasses passes over its window to keep its timed duration within
/// an order of magnitude of a replay slice; a 50 us timed region would
/// let a single scheduler blip swing the whole ratio.
constexpr usize kScanPasses = 16;

double time_scan_slice(const std::vector<MemAccess>& stream, u64& index,
                       usize count, u64& sink) {
  u64 sum = sink;
  const auto start = std::chrono::steady_clock::now();
  for (usize pass = 0; pass < kScanPasses; ++pass) {
    u64 at = index;
    for (usize i = 0; i < count; ++i, ++at) {
      const MemAccess& a = stream[at % stream.size()];
      sum += a.line_addr() ^ static_cast<u64>(a.op);
    }
  }
  index += count;
  const auto end = std::chrono::steady_clock::now();
  sink = sum;
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(kScanPasses);
}

/// Scan against replay, alternating slice by slice; both continue where
/// their last slice stopped.
bench::GateReading measure(const bench::GateOptions& opt) {
  const std::vector<MemAccess> stream = make_stream(16'384, 99);
  MemorySystem sys{gate_config()};
  u64 replay_index = 0;
  u64 scan_index = 0;
  u64 sink = 0;

  // Warm-up: queues reach their steady-state high-water marks, pages and
  // branch predictors settle, before any timed slice runs.
  const usize slice = bench::gate_slice(opt.count);
  (void)time_replay_slice(sys, stream, replay_index, 4 * slice);
  (void)time_scan_slice(stream, scan_index, slice, sink);

  const auto [scan_ns, replay_ns] = bench::interleaved_ns(
      opt.count, opt.reps,
      [&](usize, usize n) {
        return time_scan_slice(stream, scan_index, n, sink);
      },
      [&](usize, usize n) {
        return time_replay_slice(sys, stream, replay_index, n);
      });
  if (sink == u64(-1)) std::abort();  // keep the checksum alive
  const double timed_ns = opt.injected(replay_ns);
  return {.timed_ns = timed_ns,
          .anchor_ns = scan_ns,
          .head = {{"scan (ns/access)", TextTable::fmt(scan_ns, 2)},
                   {"replay (ns/access)", TextTable::fmt(timed_ns, 2)}}};
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::bench::gate_main(
      argc, argv,
      {.name = "replay_gate",
       .count_flag = "--accesses",
       .defaults = {.baseline = "results/PERF_GATE_replay.json",
                    .count = 200'000},
       .ratio = "replay/scan",
       .headroom = 0.25,
       .regressed = "the memory-system replay hot path regressed against "
                    "its in-process trace-scan anchor"},
      nvmenc::measure);
}
