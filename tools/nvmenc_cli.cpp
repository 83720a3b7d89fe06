// nvmenc — command-line front-end to the simulation stack.
//
//   nvmenc list
//       Available schemes and workload profiles.
//   nvmenc run --benchmark=gcc --scheme=READ+SAE [--accesses=N] [--seed=S]
//       One full pipeline run (workload -> caches -> controller -> PCM);
//       prints the controller statistics.
//   nvmenc matrix [--benchmarks=a,b,...] [--schemes=x,y,...] [--csv=dir]
//       The scheme x benchmark experiment matrix, normalized to DCW.
//   nvmenc trace --benchmark=gcc --out=file.trace [--accesses=N] [--seed=S]
//              [--format=bin|text]
//       Captures the CPU access stream to a trace file. Binary traces are
//       streamed through TraceWriter, so --accesses=100000000 works in
//       O(1) memory.
//   nvmenc trace pack --in=file.txt --out=file.bin
//       Converts a text trace to the binary mmap format.
//   nvmenc replay --in=file.trace --scheme=READ+SAE [--format=bin|text]
//       Replays a recorded trace (cold, all-zero memory) through the
//       caches and the chosen encoder; prints controller statistics.
//   nvmenc replay --in=file.bin --memsys [--inter-arrival-ns=X]
//              [--schemes=a,b,...] [--jobs=N]
//       Open-loop replay through the multi-channel memory system: records
//       are decoded straight out of the mmap'd file at a fixed arrival
//       rate; prints throughput and read-latency tail percentiles. With
//       --schemes, sweeps one cell per scheme's encode latency.
//   nvmenc perf --benchmark=gcc [--accesses=N] [--encode-ns=X]
//       One blocking CPU replays the benchmark's request stream through the
//       memory system; prints execution time and read latency.
//   nvmenc loadgen --scheme=READ+SAE [--pattern=zipfian] [--users=N]
//              [--think-ns=X] [--requests=N] [--encode-model=paper]
//       Closed-loop load generation against the multi-channel memory
//       system; prints throughput and read-latency tail percentiles.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <iostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/cancel.hpp"
#include "common/table.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/report.hpp"
#include "memsys/trace_replay.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/progress.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "trace/text_trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_workload.hpp"

using namespace nvmenc;

namespace {

struct Args {
  std::string command;
  std::string subcommand;  // e.g. `trace pack`
  std::string benchmark = "gcc";
  std::string scheme = "READ+SAE";
  std::string benchmarks;
  std::string schemes;
  std::string out;
  std::string in;
  std::string format = "bin";
  std::string csv_dir;
  u64 accesses = 500'000;
  u64 seed = 42;
  usize jobs = 0;  // 0 = one worker per hardware context
  double encode_ns = 3.47;
  // Fault-injection / resilience knobs (matrix).
  double fault_rate = 0.0;
  double read_disturb = 0.0;
  double stuck_rate = 0.0;
  usize retry_limit = 3;
  bool protect_meta = false;
  bool atomic_writes = false;
  u64 fault_seed = 1;
  // Checkpoint/resume knobs (matrix).
  std::string checkpoint_dir;
  usize checkpoint_every = 1;
  bool resume = false;
  // Load-generation knobs (loadgen).
  std::string pattern = "zipfian";
  std::string encode_model = "paper";
  usize users = 32;
  double think_ns = 200.0;
  double read_fraction = 0.7;
  u64 requests = 100'000;
  u64 footprint = u64{1} << 18;
  usize channels = 2;
  // Open-loop replay knobs (replay --memsys).
  bool memsys = false;
  double inter_arrival_ns = 10.0;
  u64 max_accesses = 0;  // 0 = whole trace
  u64 epoch_accesses = 1'000'000;  // sharded-engine barrier spacing
  bool sharded = false;  // loadgen: pin users to channels, shard the loop
  // RAS knobs (replay --memsys, loadgen): scrub, degradation, scripted kill.
  double scrub_interval_ns = 0.0;
  usize degrade_threshold = 4;
  usize spare_lines = 64;
  int kill_channel = -1;
  double kill_at_ns = 0.0;
  // Lifetime / aging knobs (replay --memsys, loadgen).
  double endurance = 0.0;         // median per-line endurance (flips)
  double endurance_sigma = 0.25;  // lognormal process-variation sigma
  double age_multiplier = 1.0;
  double retention_tau_ns = 0.0;
  double wear_per_write = 0.0;  // 0 = calibrate from the scheme's encoder
  std::string wear_leveler = "none";
  usize wl_interval = 128;
  usize wl_region = 1024;
  u64 lifetime_seed = 0x11fe;
  // Run-to-failure (accelerated aging) knobs.
  bool run_to_failure = false;
  u64 max_passes = 1'000;
  double capacity_floor = 0.5;
  std::string until = "retirement";
  // Option names actually given on the command line, for cross-flag
  // validation (a flag in the wrong mode is as fatal as an unknown one).
  std::vector<std::string> seen;

  [[nodiscard]] bool saw(const std::string& name) const {
    return std::find(seen.begin(), seen.end(), name) != seen.end();
  }
};

/// Set by the SIGINT/SIGTERM handler; the matrix polls it at write-back
/// granularity. CancellationToken is a lock-free atomic, so flipping it
/// from a signal handler is safe.
CancellationToken g_cancel;

void handle_stop_signal(int) { g_cancel.request_stop(); }

[[noreturn]] void usage() {
  std::cerr <<
      "usage: nvmenc <list|run|matrix|trace|replay|perf|loadgen> "
      "[options]\n"
      "  run:    --benchmark=NAME --scheme=NAME [--accesses=N] [--seed=S]\n"
      "  matrix: [--benchmarks=a,b] [--schemes=x,y] [--csv=dir] [--jobs=N]\n"
      "          (--jobs=0, the default, uses every hardware thread;\n"
      "           --jobs=1 runs serially; results are identical either way)\n"
      "          fault injection: [--fault-rate=P] [--read-disturb=P]\n"
      "          [--stuck-rate=P] [--retry-limit=N] [--protect-meta]\n"
      "          [--fault-seed=S]  (any non-zero rate turns the write path\n"
      "          into program-and-verify with SAFER/retirement escalation)\n"
      "          [--atomic-writes]  (power-failure-atomic commit protocol\n"
      "          on every write-back; costs the redo-log writes)\n"
      "          checkpointing: [--checkpoint-dir=DIR]\n"
      "          [--checkpoint-every=N] [--resume]  (completed cells are\n"
      "          appended crash-consistently; Ctrl-C stops at the next\n"
      "          write-back and a rerun with --resume replays only the\n"
      "          missing cells, bit-identical to an uninterrupted run)\n"
      "  trace:  --benchmark=NAME --out=FILE [--accesses=N] [--seed=S]\n"
      "          [--format=bin|text]  (bin streams through TraceWriter,\n"
      "          so --accesses=100000000 runs in O(1) memory)\n"
      "  trace pack: --in=FILE.txt --out=FILE.bin  (text -> binary mmap\n"
      "          format)\n"
      "  replay: --in=FILE --scheme=NAME [--format=bin|text]\n"
      "  replay --memsys: --in=FILE [--format=bin|text]\n"
      "          [--inter-arrival-ns=X] [--max-accesses=N] [--channels=N]\n"
      "          [--scheme=NAME] [--encode-model=none|paper|measured]\n"
      "          [--schemes=a,b,...] [--jobs=N] [--epoch-accesses=N]\n"
      "          (open-loop replay through the memory system; binary\n"
      "          traces are mmap'd, never parsed; --schemes sweeps\n"
      "          encode-latency cells in parallel; without --schemes,\n"
      "          --jobs>1 replays channel shards in parallel epochs —\n"
      "          output is bit-identical for every --jobs value)\n"
      "          RAS (replay --memsys and loadgen): [--fault-rate=P]\n"
      "          [--read-disturb=P] [--stuck-rate=P] [--retry-limit=N]\n"
      "          [--fault-seed=S] [--scrub-interval=NS]\n"
      "          [--degrade-threshold=N] [--spare-lines=N]\n"
      "          [--kill-channel=C] [--kill-at-ns=T]  (faulty-media\n"
      "          write path with program-and-verify, background scrub,\n"
      "          and graceful channel degradation; serial and sharded\n"
      "          runs stay bit-identical at any --jobs)\n"
      "          lifetime (replay --memsys and loadgen):\n"
      "          [--endurance=FLIPS] [--endurance-sigma=S]\n"
      "          [--age-multiplier=X] [--retention-tau=NS]\n"
      "          [--wear-per-write=FLIPS] [--lifetime-seed=S]\n"
      "          [--wear-leveler=none|start-gap|security-refresh]\n"
      "          [--wl-interval=N] [--wl-region=LINES]  (per-line\n"
      "          endurance limits drawn lognormally, keyed (seed,\n"
      "          channel, line); wear accrues per array write at the\n"
      "          scheme's calibrated flip count unless --wear-per-write\n"
      "          overrides it; retention drift makes reads error with\n"
      "          p = 1-exp(-age/tau); worn lines escalate through\n"
      "          SAFER -> spare retirement -> channel degradation)\n"
      "          run-to-failure: [--run-to-failure] [--max-passes=N]\n"
      "          [--capacity-floor=F] [--until=retirement|trip|floor]\n"
      "          (loops the workload, serially, until the failure\n"
      "          condition; prints the aging summary, the survivor-\n"
      "          capacity curve, and the lifetime table)\n"
      "  perf:   --benchmark=NAME [--accesses=N] [--encode-ns=X]\n"
      "  loadgen: --scheme=NAME [--pattern=uniform|zipfian|diurnal]\n"
      "          [--users=N] [--think-ns=X] [--read-fraction=F]\n"
      "          [--requests=N] [--footprint=LINES] [--channels=N]\n"
      "          [--encode-model=none|paper|measured] [--seed=S]\n"
      "          [--sharded] [--jobs=N]  (--sharded pins each user to its\n"
      "          home channel and runs per-channel closed loops on --jobs\n"
      "          workers; output is bit-identical for every --jobs value)\n";
  std::exit(2);
}

/// Parses a flag's number, rejecting signs, garbage, trailing characters
/// and non-finite values with a message that names the flag (std::stoull
/// would silently wrap "-1" to 2^64-1).
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end && text[0] != '-' &&
            text[0] != '+';
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::cerr << "invalid value for '--" << flag << "': '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  int first = 2;
  if (argc >= 3 && argv[2][0] != '-') {
    args.subcommand = argv[2];
    first = 3;
  }
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string{"--"} + key + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      args.seen.push_back(key);
      return arg.substr(prefix.size());
    };
    auto text = [&](const char* key, std::string& field) {
      const auto v = value(key);
      if (v) field = *v;
      return v.has_value();
    };
    auto num = [&](const char* key, auto& field) {
      const auto v = value(key);
      if (v) field = parse_number<std::decay_t<decltype(field)>>(key, *v);
      return v.has_value();
    };
    auto flag = [&](const char* key, bool& field) {
      if (arg != std::string{"--"} + key) return false;
      args.seen.push_back(key);
      field = true;
      return true;
    };
    const bool known =
        text("benchmark", args.benchmark) || text("scheme", args.scheme) ||
        text("benchmarks", args.benchmarks) ||
        text("schemes", args.schemes) || text("out", args.out) ||
        text("in", args.in) || text("format", args.format) ||
        text("csv", args.csv_dir) || num("accesses", args.accesses) ||
        num("seed", args.seed) || num("jobs", args.jobs) ||
        num("encode-ns", args.encode_ns) ||
        num("fault-rate", args.fault_rate) ||
        num("read-disturb", args.read_disturb) ||
        num("stuck-rate", args.stuck_rate) ||
        num("retry-limit", args.retry_limit) ||
        num("fault-seed", args.fault_seed) ||
        text("checkpoint-dir", args.checkpoint_dir) ||
        num("checkpoint-every", args.checkpoint_every) ||
        text("pattern", args.pattern) ||
        text("encode-model", args.encode_model) ||
        num("users", args.users) || num("think-ns", args.think_ns) ||
        num("read-fraction", args.read_fraction) ||
        num("requests", args.requests) || num("footprint", args.footprint) ||
        num("channels", args.channels) ||
        num("inter-arrival-ns", args.inter_arrival_ns) ||
        num("max-accesses", args.max_accesses) ||
        num("epoch-accesses", args.epoch_accesses) ||
        num("scrub-interval", args.scrub_interval_ns) ||
        num("degrade-threshold", args.degrade_threshold) ||
        num("spare-lines", args.spare_lines) ||
        num("kill-channel", args.kill_channel) ||
        num("kill-at-ns", args.kill_at_ns) ||
        num("endurance", args.endurance) ||
        num("endurance-sigma", args.endurance_sigma) ||
        num("age-multiplier", args.age_multiplier) ||
        num("retention-tau", args.retention_tau_ns) ||
        num("wear-per-write", args.wear_per_write) ||
        text("wear-leveler", args.wear_leveler) ||
        num("wl-interval", args.wl_interval) ||
        num("wl-region", args.wl_region) ||
        num("lifetime-seed", args.lifetime_seed) ||
        num("max-passes", args.max_passes) ||
        num("capacity-floor", args.capacity_floor) ||
        text("until", args.until) ||
        flag("run-to-failure", args.run_to_failure) ||
        flag("sharded", args.sharded) || flag("memsys", args.memsys) ||
        flag("protect-meta", args.protect_meta) ||
        flag("atomic-writes", args.atomic_writes) ||
        flag("resume", args.resume);
    if (!known) {
      std::cerr << "unknown option '" << arg << "'\n";
      usage();
    }
  }
  return args;
}

/// Rejects options that parsed fine but mean nothing in the chosen mode,
/// with the same stderr/exit treatment as an unknown option. Silently
/// ignoring a fault knob would let a script believe it measured faulty
/// media when it measured a perfect array.
void check_flag_combos(const Args& args) {
  const bool fault_capable = args.command == "matrix" ||
                             (args.command == "replay" && args.memsys) ||
                             args.command == "loadgen";
  const bool ras_capable = (args.command == "replay" && args.memsys) ||
                           args.command == "loadgen";
  auto reject = [&](const std::string& name, const std::string& why) {
    if (!args.saw(name)) return;
    std::cerr << "option '--" << name << "' " << why << "\n";
    usage();
  };
  if (!fault_capable) {
    for (const char* name : {"fault-rate", "read-disturb", "stuck-rate",
                             "retry-limit", "fault-seed"}) {
      reject(name, "needs a fault-capable mode (matrix, replay --memsys, "
                   "or loadgen)");
    }
  }
  if (args.command != "perf") {
    reject("encode-ns", "applies to perf only (loadgen and replay --memsys "
                        "take --encode-model)");
  }
  if (args.command != "matrix") {
    reject("protect-meta", "applies to the matrix controller path only");
    reject("atomic-writes", "applies to the matrix controller path only");
    reject("checkpoint-dir", "applies to matrix only");
    reject("checkpoint-every", "applies to matrix only");
    reject("resume", "applies to matrix only");
  }
  if (!ras_capable) {
    for (const char* name : {"scrub-interval", "degrade-threshold",
                             "spare-lines", "kill-channel", "kill-at-ns"}) {
      reject(name, "needs the memory system (replay --memsys or loadgen)");
    }
  }
  const bool fault_source = args.saw("fault-rate") ||
                            args.saw("read-disturb") ||
                            args.saw("stuck-rate");
  // Retention drift is also a scrub target: scrub corrections reset the
  // drift clock, so --scrub-interval + --retention-tau is the lifetime
  // layer's drift-vs-bandwidth trade-off with no RAS fault source at all.
  if (!fault_source && !args.saw("retention-tau")) {
    reject("scrub-interval", "scrubs nothing without --fault-rate, "
                             "--read-disturb, --stuck-rate, or "
                             "--retention-tau");
  }
  // Worn-out and drift-retired lines consume spares and count toward the
  // degrade threshold just like media faults do.
  if (!fault_source && !args.saw("kill-channel") && !args.saw("endurance") &&
      !args.saw("retention-tau")) {
    reject("degrade-threshold",
           "needs a fault source, aging, or --kill-channel");
    reject("spare-lines", "needs a fault source, aging, or --kill-channel");
  }
  if (!args.saw("kill-channel")) {
    reject("kill-at-ns", "needs --kill-channel");
  }
  if (!ras_capable) {
    for (const char* name :
         {"endurance", "endurance-sigma", "age-multiplier", "retention-tau",
          "wear-per-write", "wear-leveler", "wl-interval", "wl-region",
          "lifetime-seed", "run-to-failure", "max-passes", "capacity-floor",
          "until"}) {
      reject(name, "needs the memory system (replay --memsys or loadgen)");
    }
  }
  if (!args.saw("endurance")) {
    reject("endurance-sigma", "shapes the --endurance distribution");
    reject("wear-per-write", "accrues against --endurance limits");
  }
  if (!args.saw("endurance") && !args.saw("retention-tau")) {
    reject("age-multiplier",
           "accelerates --endurance wear or --retention-tau drift");
  }
  if (!args.saw("wear-leveler")) {
    reject("wl-interval", "paces the --wear-leveler");
    reject("wl-region", "sizes the --wear-leveler regions");
  }
  if (!args.run_to_failure) {
    for (const char* name : {"max-passes", "capacity-floor", "until"}) {
      reject(name, "controls --run-to-failure");
    }
  } else {
    // One long causal chain: traffic after a retirement depends on the
    // retirement, so there is no parallel epoch schedule to match.
    reject("jobs", "is meaningless under --run-to-failure (serial loop)");
    reject("sharded", "is meaningless under --run-to-failure (serial loop)");
    reject("schemes",
           "sweeps replay cells; run-to-failure takes one --scheme");
  }
  if (args.saw("schemes")) {
    for (const char* name :
         {"endurance", "endurance-sigma", "age-multiplier", "retention-tau",
          "wear-per-write", "wear-leveler", "wl-interval", "wl-region",
          "lifetime-seed"}) {
      reject(name, "applies to a single-scheme run, not a --schemes sweep");
    }
  }
}

/// The memory-system RAS configuration carried by the fault/RAS flags.
RasConfig ras_from_args(const Args& args) {
  RasConfig ras;
  ras.inject.write_fail_rate = args.fault_rate;
  ras.inject.read_disturb_rate = args.read_disturb;
  ras.inject.stuck_rate = args.stuck_rate;
  ras.inject.seed = args.fault_seed;
  ras.retry_limit = args.retry_limit;
  ras.scrub_interval_ns = args.scrub_interval_ns;
  ras.degrade_ue_threshold = args.degrade_threshold;
  ras.spare_lines = args.spare_lines;
  ras.kill_channel = args.kill_channel;
  ras.kill_at_ns = args.kill_at_ns;
  return ras;
}

/// The lifetime-model configuration carried by the aging flags. The
/// per-write wear cost defaults to the scheme's *calibrated* flip count
/// (the real encoder replayed over the benchmark's value mix), so flip
/// savings translate into longer life without any hand-tuned constant;
/// --wear-per-write overrides it (e.g. 512 models a raw, non-differential
/// write path).
LifetimeConfig lifetime_from_args(const Args& args, Scheme scheme) {
  LifetimeConfig life;
  life.endurance_mean_flips = args.endurance;
  life.endurance_sigma = args.endurance_sigma;
  life.age_multiplier = args.age_multiplier;
  life.retention_tau_ns = args.retention_tau_ns;
  life.leveler = wear_leveler_by_name(args.wear_leveler);
  life.wl_interval = args.wl_interval;
  life.wl_region_lines = args.wl_region;
  life.seed = args.lifetime_seed;
  if (args.wear_per_write > 0.0) {
    life.wear_per_write_flips = args.wear_per_write;
  } else if (life.endurance_mean_flips > 0.0) {
    const SchemeWriteCost cost =
        calibrate_write_cost(scheme, args.benchmark, args.seed);
    life.wear_per_write_flips = cost.avg_sets + cost.avg_resets;
  }
  return life;
}

/// The run-to-failure loop configuration (reuses the replay arrival and
/// epoch spacing; the aging default control interval is finer than the
/// replay default, so only an explicit --epoch-accesses overrides it).
AgingConfig aging_from_args(const Args& args) {
  AgingConfig aging;
  aging.inter_arrival_ns = args.inter_arrival_ns;
  if (args.saw("epoch-accesses")) aging.epoch_accesses = args.epoch_accesses;
  aging.max_passes = args.max_passes;
  aging.capacity_floor = args.capacity_floor;
  aging.until = aging_until_by_name(args.until);
  return aging;
}

/// Run-to-failure output shared by the replay and loadgen front-ends.
void print_aging(const AgingConfig& aging, const AgingResult& result) {
  aging_table(aging, result).print(std::cout);
  std::cout << "\nsurvivor capacity curve:\n";
  capacity_curve_table(result).print(std::cout);
}

/// RAS tables, printed only when the run had a RAS layer — fault-free
/// output stays byte-identical to earlier revisions.
void print_ras(const RasReport& ras) {
  if (!ras.any()) return;
  std::cout << "\nRAS (per channel):\n";
  ras_table(ras).print(std::cout);
  if (ras.lifetime_any()) {
    std::cout << "\nlifetime (per channel):\n";
    lifetime_table(ras).print(std::cout);
  }
  if (!ras.events.empty() || ras.events_dropped > 0) {
    std::cout << "\nRAS events:\n";
    ras_events_table(ras).print(std::cout);
  }
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss{list};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int cmd_list() {
  std::cout << "schemes:\n";
  for (Scheme s :
       {Scheme::kDcw, Scheme::kFnw, Scheme::kAfnw, Scheme::kCoef,
        Scheme::kCafo, Scheme::kRead, Scheme::kReadSae, Scheme::kSaeOnly,
        Scheme::kFlipMin, Scheme::kPres, Scheme::kReadPaper,
        Scheme::kReadSaePaper, Scheme::kAfnwPaper}) {
    std::cout << "  " << scheme_name(s)
              << (is_paper_model(s) ? "   (paper accounting model)" : "")
              << "\n";
  }
  std::cout << "benchmarks:\n";
  for (const WorkloadProfile& p : spec2006_profiles()) {
    std::cout << "  " << p.name << "  (E[dirty words] "
              << TextTable::fmt(p.expected_dirty_words(), 2) << ")\n";
  }
  return 0;
}

int cmd_run(const Args& args) {
  const Scheme scheme = scheme_by_name(args.scheme);
  if (is_paper_model(scheme)) {
    std::cerr << "paper-model schemes run through `matrix`, not `run`\n";
    return 2;
  }
  SimConfig config;
  config.caches = scaled_hierarchy();
  Simulator sim{config,
                std::make_unique<SyntheticWorkload>(
                    profile_by_name(args.benchmark), args.seed),
                scheme};
  sim.warmup();
  sim.run(args.accesses);
  const ControllerStats& s = sim.stats();

  TextTable table{{"metric", "value"}};
  table.add_row({"benchmark", args.benchmark});
  table.add_row({"scheme", scheme_name(scheme)});
  table.add_row({"CPU accesses", std::to_string(args.accesses)});
  table.add_row({"write-backs", std::to_string(s.writebacks)});
  table.add_row({"silent write-backs", std::to_string(s.silent_writebacks)});
  table.add_row({"demand reads", std::to_string(s.demand_reads)});
  table.add_row({"bit flips (data)", std::to_string(s.flips.data)});
  table.add_row({"bit flips (tag)", std::to_string(s.flips.tag)});
  table.add_row({"bit flips (flag)", std::to_string(s.flips.flag)});
  table.add_row({"flips per write-back",
                 TextTable::fmt(static_cast<double>(s.flips.total()) /
                                static_cast<double>(s.writebacks))});
  table.add_row({"tag utilization", TextTable::fmt(s.tag_utilization())});
  table.add_row({"energy (uJ)",
                 TextTable::fmt(s.energy.total_pj() / 1e6, 2)});
  table.add_row({"memory busy (ms)",
                 TextTable::fmt(s.energy.busy_ns / 1e6, 2)});
  table.print(std::cout);
  return 0;
}

int cmd_matrix(const Args& args) {
  std::vector<WorkloadProfile> profiles;
  if (args.benchmarks.empty()) {
    profiles = spec2006_profiles();
  } else {
    for (const std::string& name : split_csv(args.benchmarks)) {
      profiles.push_back(profile_by_name(name));
    }
  }
  std::vector<Scheme> schemes;
  if (args.schemes.empty()) {
    schemes = figure_schemes();
  } else {
    schemes.push_back(Scheme::kDcw);  // the normalization baseline
    for (const std::string& name : split_csv(args.schemes)) {
      const Scheme s = scheme_by_name(name);
      if (s != Scheme::kDcw) schemes.push_back(s);
    }
  }
  ExperimentConfig cfg;
  cfg.seed = args.seed;
  cfg.collector.measured_accesses = args.accesses;
  cfg.jobs = args.jobs;
  cfg.fault.inject.write_fail_rate = args.fault_rate;
  cfg.fault.inject.read_disturb_rate = args.read_disturb;
  cfg.fault.inject.stuck_rate = args.stuck_rate;
  cfg.fault.inject.seed = args.fault_seed;
  cfg.fault.retry_limit = args.retry_limit;
  cfg.fault.protect_meta = args.protect_meta;
  cfg.fault.atomic_writes = args.atomic_writes;
  if (args.resume && args.checkpoint_dir.empty()) {
    std::cerr << "error: --resume requires --checkpoint-dir\n";
    return 2;
  }
  cfg.checkpoint.dir = args.checkpoint_dir;
  cfg.checkpoint.every = args.checkpoint_every;
  cfg.checkpoint.resume = args.resume;

  // Ctrl-C / SIGTERM stop the matrix at the next write-back boundary; the
  // completed cells are already checkpointed, the rest resume later.
  cfg.cancel = &g_cancel;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const auto matrix_start = std::chrono::steady_clock::now();
  const ExperimentMatrix m =
      run_experiment(profiles, schemes, cfg, &std::cout);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (g_cancel.stop_requested()) {
    std::cout << "\ninterrupted";
    if (cfg.checkpoint.enabled()) {
      std::cout << ": completed cells saved to " << cfg.checkpoint.dir
                << "; rerun with --resume to finish the remaining cells";
    }
    std::cout << "\n";
    return 130;
  }
  const double matrix_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    matrix_start)
          .count();
  std::cout << "\nbit flips normalized to DCW:\n";
  const TextTable flips = m.normalized_table(metric_total_flips(),
                                             Scheme::kDcw);
  flips.print(std::cout);
  std::cout << "\nenergy normalized to DCW:\n";
  const TextTable energy = m.normalized_table(metric_energy(), Scheme::kDcw);
  energy.print(std::cout);
  if (cfg.fault.active()) {
    // Per-scheme resilience totals across the healthy cells.
    TextTable res{{"scheme", "verified", "retries", "remaps", "retired",
                   "sdc", "meta fixed"}};
    for (usize s = 0; s < m.schemes().size(); ++s) {
      ResilienceStats sum;
      for (usize b = 0; b < m.benchmarks().size(); ++b) {
        if (!m.cell_ok(b, s)) continue;
        const ResilienceStats& r = m.at(b, s).stats.resilience;
        sum.verified_writes += r.verified_writes;
        sum.write_retries += r.write_retries;
        sum.safer_remaps += r.safer_remaps;
        sum.line_retirements += r.line_retirements;
        sum.sdc_detected += r.sdc_detected;
        sum.meta_corrected += r.meta_corrected;
      }
      res.add_row({scheme_name(m.schemes()[s]),
                   std::to_string(sum.verified_writes),
                   std::to_string(sum.write_retries),
                   std::to_string(sum.safer_remaps),
                   std::to_string(sum.line_retirements),
                   std::to_string(sum.sdc_detected),
                   std::to_string(sum.meta_corrected)});
    }
    std::cout << "\nresilience totals (program-and-verify):\n";
    res.print(std::cout);
  }
  if (!args.csv_dir.empty()) {
    flips.write_csv_file(args.csv_dir + "/matrix_flips.csv");
    energy.write_csv_file(args.csv_dir + "/matrix_energy.csv");
    std::cout << "\n[csv] written to " << args.csv_dir << "\n";
  }
  std::cout << "\nmatrix wall-clock: " << TextTable::fmt(matrix_secs, 2)
            << " s (jobs=" << resolve_jobs(args.jobs) << ")\n";
  // Graceful degradation: failed cells are reported but only an
  // all-cells-failed matrix is an error exit.
  const usize failed = m.failed_cells();
  if (failed > 0) {
    const ReplayResult* first = m.first_failure();
    std::cout << "matrix cells failed: " << failed << "/" << m.total_cells()
              << " (first: " << first->benchmark << "/" << first->scheme
              << " " << first->error->phase << ": " << first->error->message
              << ")\n";
  }
  if (failed == m.total_cells() && m.total_cells() > 0) {
    std::cerr << "error: every matrix cell failed\n";
    return 1;
  }
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.out.empty()) usage();
  SyntheticWorkload workload{profile_by_name(args.benchmark), args.seed};
  ProgressReporter progress{&std::cerr};
  constexpr u64 kTickStride = 65'536;
  if (args.format == "text") {
    std::vector<MemAccess> accesses;
    accesses.reserve(args.accesses);
    for (u64 i = 0; i < args.accesses; ++i) {
      accesses.push_back(workload.next());
      if ((i + 1) % kTickStride == 0) {
        progress.tick("trace", i + 1, args.accesses);
      }
    }
    write_text_trace(args.out, accesses);
  } else {
    // Streamed: a 10^8-access capture never holds the trace in memory.
    TraceWriter writer{args.out};
    for (u64 i = 0; i < args.accesses; ++i) {
      writer.append(workload.next());
      if ((i + 1) % kTickStride == 0) {
        progress.tick("trace", i + 1, args.accesses);
      }
    }
    writer.close();
  }
  std::cout << "wrote " << args.accesses << " accesses to " << args.out
            << "\n";
  return 0;
}

int cmd_trace_pack(const Args& args) {
  if (args.in.empty() || args.out.empty()) usage();
  const std::vector<MemAccess> accesses = read_text_trace(args.in);
  write_trace(args.out, accesses);
  std::cout << "packed " << accesses.size() << " accesses: " << args.in
            << " -> " << args.out << "\n";
  return 0;
}

int cmd_replay_memsys(const Args& args) {
  if (args.in.empty()) usage();
  TraceReplayConfig replay;
  replay.inter_arrival_ns = args.inter_arrival_ns;
  replay.max_accesses = args.max_accesses;
  replay.epoch_accesses = args.epoch_accesses;

  MemSysConfig mem;
  mem.org.channels = args.channels;
  mem.ras = ras_from_args(args);
  const EncodeLatencyModel model = encode_model_by_name(args.encode_model);

  if (!args.schemes.empty()) {
    // Sweep: one cell per scheme's encode latency, fanned over --jobs,
    // all cells sharing one mmap of the trace (binary format only).
    if (args.format == "text") {
      std::cerr << "sweep replay mmaps the trace; convert it first with "
                   "`nvmenc trace pack`\n";
      return 2;
    }
    std::vector<ReplaySweepCell> cells;
    for (const std::string& name : split_csv(args.schemes)) {
      ReplaySweepCell cell;
      cell.label = name;
      cell.encode_latency_ns = encode_latency_ns(scheme_by_name(name), model);
      cells.push_back(cell);
    }
    ProgressReporter progress{&std::cerr, cells.size()};
    const std::vector<ReplaySweepCell> out =
        replay_sweep(args.in, cells, replay, mem, args.jobs, &progress);
    replay_sweep_table(out).print(std::cout);
    return 0;
  }

  const Scheme scheme = scheme_by_name(args.scheme);
  mem.org.encode_latency_ns = encode_latency_ns(scheme, model);
  mem.ras.lifetime = lifetime_from_args(args, scheme);

  if (args.run_to_failure) {
    // Accelerated aging: loop the trace until the failure condition. The
    // loop is serial (one long causal chain), so the whole trace is
    // materialized rather than mmap'd — run-to-failure geometries are
    // small by design.
    const std::vector<MemAccess> accesses = args.format == "text"
                                                ? read_text_trace(args.in)
                                                : read_trace(args.in);
    const AgingConfig aging = aging_from_args(args);
    const AgingResult r = run_to_failure(accesses, aging, mem);
    print_aging(aging, r);
    print_ras(r.ras);
    return 0;
  }

  ProgressReporter progress{&std::cerr};
  replay.progress = &progress;
  // Multi-channel single replay parallelizes over channel shards; the
  // serial and sharded engines produce bit-identical tables, so the
  // choice is purely a wall-clock one.
  const bool shard_it = resolve_jobs(args.jobs) > 1 && mem.org.channels > 1;
  TraceReplayResult r;
  if (args.format == "text") {
    const std::vector<MemAccess> accesses = read_text_trace(args.in);
    r = shard_it ? replay_trace_sharded(accesses, replay, mem, args.jobs)
                 : replay_trace(accesses, replay, mem);
  } else {
    const MappedTrace trace{args.in};
    r = shard_it ? replay_trace_sharded(trace, replay, mem, args.jobs)
                 : replay_trace(trace, replay, mem);
  }
  replay_table(args.in, mem.org.encode_latency_ns, replay, r)
      .print(std::cout);
  print_ras(r.ras);
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.memsys) return cmd_replay_memsys(args);
  if (args.in.empty()) usage();
  const Scheme scheme = scheme_by_name(args.scheme);
  if (is_paper_model(scheme)) {
    std::cerr << "paper-model schemes run through `matrix`, not `replay`\n";
    return 2;
  }
  std::vector<MemAccess> accesses = args.format == "text"
                                        ? read_text_trace(args.in)
                                        : read_trace(args.in);
  const usize n = accesses.size();
  SimConfig config;
  config.caches = scaled_hierarchy();
  config.warmup_accesses = 0;
  Simulator sim{config,
                std::make_unique<TraceWorkload>(std::move(accesses), args.in),
                scheme};
  sim.run(n);
  sim.drain();
  const ControllerStats& s = sim.stats();
  TextTable table{{"metric", "value"}};
  table.add_row({"trace", args.in});
  table.add_row({"scheme", scheme_name(scheme)});
  table.add_row({"accesses", std::to_string(n)});
  table.add_row({"write-backs", std::to_string(s.writebacks)});
  table.add_row({"bit flips", std::to_string(s.flips.total())});
  table.add_row({"tag flips", std::to_string(s.flips.tag)});
  table.add_row({"energy (uJ)",
                 TextTable::fmt(s.energy.total_pj() / 1e6, 2)});
  table.print(std::cout);
  return 0;
}

int cmd_perf(const Args& args) {
  ExperimentConfig cfg;
  cfg.seed = args.seed;
  cfg.collector.measured_accesses = args.accesses;
  cfg.collector.record_requests = true;
  SyntheticWorkload workload{profile_by_name(args.benchmark), args.seed};
  const WritebackTrace trace = collect_writebacks(workload, cfg.collector);

  MemSysConfig mem;
  mem.org.encode_latency_ns = args.encode_ns;
  const LoadResult r = run_request_stream(trace.requests, mem);

  TextTable table{{"metric", "value"}};
  table.add_row({"benchmark", args.benchmark});
  table.add_row({"requests", std::to_string(trace.requests.size())});
  table.add_row({"encode latency (ns)", TextTable::fmt(args.encode_ns, 2)});
  table.add_row({"execution time (ms)",
                 TextTable::fmt(r.makespan_ns / 1e6, 2)});
  table.add_row({"avg read latency (ns)",
                 TextTable::fmt(r.stats.read_latency_stat.mean(), 1)});
  table.add_row({"row hit rate", TextTable::fmt(r.timing.row_hit_rate(), 3)});
  table.add_row({"forwarded reads", std::to_string(r.stats.forwarded_reads)});
  table.add_row({"drain episodes", std::to_string(r.stats.drains)});
  table.print(std::cout);
  return 0;
}

int cmd_loadgen(const Args& args) {
  const Scheme scheme = scheme_by_name(args.scheme);
  if (is_paper_model(scheme)) {
    std::cerr << "paper-model schemes cannot serve traffic; pick a "
                 "hardware-faithful scheme\n";
    return 2;
  }
  const EncodeLatencyModel model = encode_model_by_name(args.encode_model);

  LoadGenConfig load;
  load.pattern = load_pattern_by_name(args.pattern);
  load.users = args.users;
  load.think_ns = args.think_ns;
  load.read_fraction = args.read_fraction;
  load.requests = args.requests;
  load.footprint_lines = args.footprint;
  load.seed = args.seed;

  MemSysConfig mem;
  mem.org.channels = args.channels;
  mem.org.encode_latency_ns = encode_latency_ns(scheme, model);
  mem.ras = ras_from_args(args);
  mem.ras.lifetime = lifetime_from_args(args, scheme);

  if (args.run_to_failure) {
    const AgingConfig aging = aging_from_args(args);
    const AgingResult r = run_to_failure(load, aging, mem);
    print_aging(aging, r);
    print_ras(r.ras);
    return 0;
  }

  // --sharded pins each user to its home channel and runs the per-channel
  // closed loops on --jobs workers (a different, pinned workload — but
  // bit-identical output for any --jobs value).
  const LoadResult r = args.sharded ? run_load_sharded(load, mem, args.jobs)
                                    : run_load(load, mem);
  load_table(scheme_name(scheme), encode_model_name(model),
             mem.org.encode_latency_ns, load, r)
      .print(std::cout);
  print_ras(r.ras);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    check_flag_combos(args);
    if (args.command == "list") return cmd_list();
    if (args.command == "run") return cmd_run(args);
    if (args.command == "matrix") return cmd_matrix(args);
    if (args.command == "trace") {
      if (args.subcommand == "pack") return cmd_trace_pack(args);
      if (!args.subcommand.empty()) {
        std::cerr << "unknown trace subcommand '" << args.subcommand
                  << "'\n";
        usage();
      }
      return cmd_trace(args);
    }
    if (args.command == "replay") return cmd_replay(args);
    if (args.command == "perf") return cmd_perf(args);
    if (args.command == "loadgen") return cmd_loadgen(args);
    std::cerr << "unknown command '" << args.command << "'\n";
    usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
