// Saturation sweep: closed-loop load vs read-latency tail for encoding
// schemes with different write-path encode latencies.
//
// The paper argues (§3.4.2) that READ+SAE's 3.47 ns encode latency is
// negligible. This bench measures where that holds on the load curve: it
// drives the multi-channel memory system from light load to saturation
// under DCW (no encoder), READ+SAE with the paper's synthesized latency,
// and READ+SAE with this repo's measured software-kernel latency (the
// pessimistic bound), reporting p50/p95/p99/p99.9 read latency, sustained
// GB/s, and calibrated write energy. --json=<path> additionally emits
// results/BENCH_memsys_latency.json with a quantified trade-off block.
//
// Deterministic: identical output for any --jobs value (cells are
// independent seeded simulations; parallelism is across cells only).
#include "bench_util.hpp"

#include <iostream>
#include <string>

#include "memsys/sweep.hpp"
#include "provenance.hpp"

namespace nvmenc {
namespace {

int run(const bench::Options& opt) {
  bench::banner("saturation sweep: load vs read-latency tail");

  SweepConfig cfg;
  cfg.load.pattern = LoadPattern::kZipfian;
  cfg.load.users = 32;
  cfg.load.read_fraction = 0.7;
  cfg.load.requests = opt.quick ? 20'000 : 100'000;
  cfg.load.footprint_lines = opt.quick ? (u64{1} << 16) : (u64{1} << 18);
  cfg.load.seed = 42;
  cfg.mem.org.channels = 2;
  cfg.think_points = {1600.0, 400.0, 100.0, 25.0};
  cfg.schemes = {
      {Scheme::kDcw, EncodeLatencyModel::kPaper},       // no encoder
      {Scheme::kReadSae, EncodeLatencyModel::kPaper},   // 3.47 ns (§3.4.2)
      {Scheme::kReadSae, EncodeLatencyModel::kMeasured},  // software bound
  };
  cfg.jobs = opt.jobs;

  const std::vector<SweepCell> cells = run_saturation_sweep(cfg);
  const TextTable table = sweep_table(cells);
  bench::emit(table, opt, "saturation_sweep");
  if (!opt.json_path.empty()) {
    write_sweep_json(opt.json_path, cfg, cells,
                     provenance_json(cfg.load.seed));
    std::cout << "[json] " << opt.json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  try {
    return nvmenc::run(nvmenc::bench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
