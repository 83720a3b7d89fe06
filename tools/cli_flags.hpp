// The nvmenc command line, declared once.
//
// flag_table() holds one row per flag: its name, the config field it
// writes, its value kind, the modes it applies to, the flags it needs (any
// one of them) and a one-line help. parse_cli() and usage_text() read only
// that table and mode_table(), so a flag cannot be accepted by a mode that
// ignores it and the usage text cannot drift from the parser. Rows write
// straight into the library configs held by Cli, so each default lives
// once, in the library.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse_number.hpp"
#include "memsys/aging.hpp"
#include "memsys/encode_cost.hpp"
#include "memsys/loadgen.hpp"
#include "memsys/trace_replay.hpp"
#include "sim/experiment.hpp"

namespace nvmenc::cli {

/// What a command line runs: a command, refined by the flags that pick a
/// different driver. kMemsys is `replay --memsys`, which kSweep refines
/// with --schemes; kSharded is `loadgen --sharded`; the *Aging modes add
/// --run-to-failure. Indexes mode_table().
enum Mode : unsigned {
  kList, kRun, kMatrix, kTrace, kTracePack, kReplay, kPerf,
  kMemsys, kSweep, kMemsysAging,
  kLoadgen, kSharded, kLoadgenAging,
};
inline constexpr unsigned kModeCount = kLoadgenAging + 1;

struct ModeSpec {
  /// A command's words, or the flag that refines `parent` into this mode.
  std::string word;
  std::optional<Mode> parent = std::nullopt;
  /// Flags a command must be given; its refinements inherit them.
  std::vector<std::string> required = {};
};

/// Among the refinements of one mode, the picking flag given first wins:
/// `loadgen --sharded --run-to-failure` is loadgen --sharded, which then
/// rejects --run-to-failure.
inline const std::vector<ModeSpec>& mode_table() {
  static const std::vector<ModeSpec> table = {
      {"list"}, {"run"}, {"matrix"}, {"trace", {}, {"out"}},
      {"trace pack", {}, {"in", "out"}}, {"replay", {}, {"in"}}, {"perf"},
      {"memsys", kReplay}, {"schemes", kMemsys}, {"run-to-failure", kMemsys},
      {"loadgen"}, {"sharded", kLoadgen}, {"run-to-failure", kLoadgen},
  };
  return table;
}

inline std::string mode_name(Mode m) {
  const ModeSpec& spec = mode_table()[m];
  return spec.parent ? mode_name(*spec.parent) + " --" + spec.word
                     : spec.word;
}

/// The command a mode refines (itself for a command).
inline Mode command_of(Mode m) {
  const std::optional<Mode> parent = mode_table()[m].parent;
  return parent ? command_of(*parent) : m;
}

/// A set of modes, one bit per Mode.
using ModeSet = unsigned;

template <typename... M>
constexpr ModeSet modes(M... m) {
  return ((ModeSet{1} << m) | ...);
}

[[nodiscard]] inline bool applies(ModeSet set, Mode m) {
  return ((set >> m) & 1U) != 0;
}

/// Trace file formats; the library reads each through its own function.
enum class TraceFormat : u8 { kBin = 0, kText = 1 };

inline const char* trace_format_name(TraceFormat format) {
  return format == TraceFormat::kBin    ? "bin"
         : format == TraceFormat::kText ? "text"
                                        : "?";
}

/// Everything one command line sets.
struct Cli {
  Cli() { mem.org.channels = 2; }  // the CLI's one default of its own

  Mode mode = kList;
  // Values no library config holds.
  std::string benchmark = "gcc";
  std::string scheme = "READ+SAE";
  std::string benchmarks;  ///< matrix rows; empty = every profile
  std::string schemes;     ///< matrix columns or replay sweep cells
  std::string in;
  std::string out;
  std::string csv_dir;
  TraceFormat format = TraceFormat::kBin;
  u64 accesses = 500'000;
  double encode_ns = paper_encode_ns(Scheme::kReadSae);  ///< perf only
  EncodeLatencyModel encode_model = EncodeLatencyModel::kPaper;
  /// Wear per array write; 0 = calibrate from the scheme's encoder.
  double wear_per_write = 0.0;
  // The library configs the rows write into.
  ExperimentConfig experiment;  ///< also the seed and jobs of other modes
  LoadGenConfig load;
  MemSysConfig mem;
  TraceReplayConfig replay;
  AgingConfig aging;
};

enum class Kind : u8 { kNumber, kText, kSwitch, kName };

/// How a flag's value is read and where it goes.
struct Value {
  Kind kind;
  /// Writes a value the parser accepted for `kind` (empty for a switch); a
  /// number throws std::invalid_argument naming `flag` when it is none.
  std::function<void(const std::string& flag, const std::string& value)>
      set;
  std::vector<std::string> names = {};  ///< kName: the accepted values
};

/// A number, through parse_number. Each extra field gets the same value:
/// one flag may configure two runs, such as the replay and the aging loop.
template <typename T, typename... More>
Value number(T& field, More&... more) {
  return {Kind::kNumber,
          [&field, &more...](const std::string& flag,
                             const std::string& value) {
            field = parse_number<T>(flag, value);
            ((more = field), ...);
          }};
}

inline Value text(std::string& field) {
  return {Kind::kText, [&field](const std::string&, const std::string& value) {
            field = value;
          }};
}

/// A switch; one without a field only picks a mode (mode_table()).
inline Value toggle(bool* field = nullptr) {
  return {Kind::kSwitch, [field](const std::string&, const std::string&) {
            if (field != nullptr) *field = true;
          }};
}

inline std::string join(const std::vector<std::string>& items,
                        const std::string& sep) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : sep) + item;
  return out;
}

/// One of E's names, enumerated through its name function, which returns
/// "?" past the last enumerator.
template <typename E>
Value named(E& field, const char* (*name_of)(E)) {
  std::vector<std::string> names;
  for (unsigned i = 0; std::string_view{name_of(static_cast<E>(i))} != "?";
       ++i) {
    names.emplace_back(name_of(static_cast<E>(i)));
  }
  return {Kind::kName,
          [&field, names](const std::string&, const std::string& value) {
            field = static_cast<E>(
                std::find(names.begin(), names.end(), value) - names.begin());
          },
          names};
}

struct Flag {
  std::string name;
  Value value;
  ModeSet modes;  ///< where the flag applies
  std::string help;
  std::vector<std::string> needs = {};  ///< any one must be given too
};

/// Every flag, once. Rows write into `c`, which must outlive them. A row's
/// modes are exactly the drivers in nvmenc_cli.cpp that read its field.
inline std::vector<Flag> flag_table(Cli& c) {
  constexpr ModeSet kReplayMemsys = modes(kMemsys, kSweep, kMemsysAging);
  constexpr ModeSet kLoadgens = modes(kLoadgen, kSharded, kLoadgenAging);
  constexpr ModeSet kMemorySystem = kReplayMemsys | kLoadgens;
  // Every memory-system mode but the sweep, which replays one cell per
  // scheme with no lifetime model.
  constexpr ModeSet kOneScheme = modes(kMemsys, kMemsysAging) | kLoadgens;
  constexpr ModeSet kAging = modes(kMemsysAging, kLoadgenAging);
  constexpr ModeSet kFaults = modes(kMatrix) | kMemorySystem;
  constexpr ModeSet kWorkload = modes(kRun, kMatrix, kTrace, kPerf);
  // Scrub corrects injected faults and resets the retention-drift clock.
  const std::vector<std::string> scrub_targets = {
      "fault-rate", "read-disturb", "stuck-rate", "retention-tau"};
  // Faults, worn or drifted lines and a killed channel spend spares and
  // count toward the degrade threshold.
  const std::vector<std::string> line_losses = {
      "fault-rate",   "read-disturb", "stuck-rate",
      "kill-channel", "endurance",    "retention-tau"};
  FaultPlan& plan = c.experiment.fault;
  RasConfig& ras = c.mem.ras;
  LifetimeConfig& life = c.mem.ras.lifetime;
  return {
      // Workload, scheme and files.
      {"benchmark", text(c.benchmark), modes(kRun, kTrace, kPerf) | kOneScheme,
       "workload profile; memory-system runs calibrate wear from it"},
      {"benchmarks", text(c.benchmarks), modes(kMatrix),
       "matrix rows, comma-separated (default: every profile)"},
      {"scheme", text(c.scheme), modes(kRun, kReplay) | kOneScheme,
       "encoding scheme (see `nvmenc list`)"},
      {"schemes", text(c.schemes), modes(kMatrix, kSweep),
       "matrix columns or replay cells, comma-separated"},
      {"accesses", number(c.accesses), kWorkload, "CPU accesses"},
      {"seed", number(c.experiment.seed, c.load.seed), kWorkload | kOneScheme,
       "workload seed"},
      {"jobs", number(c.experiment.jobs),
       modes(kMatrix, kMemsys, kSweep, kSharded),
       "worker threads, 0 = one per hardware thread; output is the same"},
      {"in", text(c.in), modes(kTracePack, kReplay) | kReplayMemsys,
       "trace file to read"},
      {"out", text(c.out), modes(kTrace, kTracePack), "trace file to write"},
      {"format", named(c.format, trace_format_name),
       modes(kTrace, kReplay) | kReplayMemsys,
       "trace format; bin is streamed, and mmap'd by the memory system"},
      {"csv", text(c.csv_dir), modes(kMatrix), "CSV directory for the tables"},
      // Faulty media: the matrix's controllers and the memory system.
      {"fault-rate",
       number(plan.inject.write_fail_rate, ras.inject.write_fail_rate), kFaults,
       "probability a programmed cell fails to switch"},
      {"read-disturb",
       number(plan.inject.read_disturb_rate, ras.inject.read_disturb_rate),
       kFaults, "probability a read flips one stored cell"},
      {"stuck-rate", number(plan.inject.stuck_rate, ras.inject.stuck_rate),
       kFaults, "probability a programmed data cell sticks"},
      {"retry-limit", number(plan.retry_limit, ras.retry_limit), kFaults,
       "program-and-verify re-pulses before SAFER and retirement"},
      {"fault-seed", number(plan.inject.seed, ras.inject.seed), kFaults,
       "fault-injection seed"},
      {"protect-meta", toggle(&plan.protect_meta), modes(kMatrix),
       "SECDED(72,64) over each line's metadata"},
      {"atomic-writes", toggle(&plan.atomic_writes), modes(kMatrix),
       "power-failure-atomic redo-log commit of every write-back"},
      // Matrix checkpoints.
      {"checkpoint-dir", text(c.experiment.checkpoint.dir), modes(kMatrix),
       "append completed cells here, crash-consistently"},
      {"checkpoint-every", number(c.experiment.checkpoint.every),
       modes(kMatrix), "completed cells per durable flush", {"checkpoint-dir"}},
      {"resume", toggle(&c.experiment.checkpoint.resume), modes(kMatrix),
       "adopt the checkpointed cells and run the rest", {"checkpoint-dir"}},
      // perf.
      {"encode-ns", number(c.encode_ns), modes(kPerf),
       "encode latency per write, ns (default: the paper's READ+SAE)"},
      // The memory system: traffic and organization.
      {"encode-model", named(c.encode_model, encode_model_name), kMemorySystem,
       "encode latency per scheme: none, paper estimate, or measured"},
      {"channels", number(c.mem.org.channels), kMemorySystem, "channel count"},
      {"memsys", toggle(), kReplayMemsys, "replay through the memory system"},
      {"inter-arrival-ns",
       number(c.replay.inter_arrival_ns, c.aging.inter_arrival_ns),
       modes(kMemsys, kSweep) | kAging, "open-loop spacing, ns per access"},
      {"max-accesses", number(c.replay.max_accesses), modes(kMemsys, kSweep),
       "replay at most this many accesses (0 = the whole trace)"},
      {"epoch-accesses",
       number(c.replay.epoch_accesses, c.aging.epoch_accesses),
       modes(kMemsys, kSweep) | kAging,
       "accesses between shard barriers and channel-health polls"},
      {"pattern", named(c.load.pattern, load_pattern_name), kLoadgens,
       "address pattern of the generated load"},
      {"users", number(c.load.users), modes(kLoadgen, kSharded), "user count"},
      {"think-ns", number(c.load.think_ns), modes(kLoadgen, kSharded),
       "mean think time per user, ns"},
      {"read-fraction", number(c.load.read_fraction), kLoadgens, "read share"},
      {"requests", number(c.load.requests), kLoadgens,
       "requests issued in total (one aging pass)"},
      {"footprint", number(c.load.footprint_lines), kLoadgens, "lines touched"},
      {"sharded", toggle(), modes(kSharded),
       "pin users to home channels; run the channels on parallel workers"},
      // RAS: scrub, spares, degradation.
      {"scrub-interval", number(ras.scrub_interval_ns), kMemorySystem,
       "ns between background scrub reads per channel", scrub_targets},
      {"degrade-threshold", number(ras.degrade_ue_threshold), kMemorySystem,
       "uncorrectable errors that trip a channel", line_losses},
      {"spare-lines", number(ras.spare_lines), kMemorySystem,
       "spare lines per channel; running out degrades the channel",
       line_losses},
      {"kill-channel", number(ras.kill_channel), kMemorySystem,
       "channel to fail on purpose"},
      {"kill-at-ns", number(ras.kill_at_ns), kMemorySystem,
       "virtual time of that failure, ns", {"kill-channel"}},
      // Lifetime: endurance, drift, wear leveling (single-scheme runs).
      {"endurance", number(life.endurance_mean_flips), kOneScheme,
       "median per-line endurance, in cell flips (lognormal)"},
      {"endurance-sigma", number(life.endurance_sigma), kOneScheme,
       "lognormal sigma of the per-line endurance", {"endurance"}},
      {"age-multiplier", number(life.age_multiplier), kOneScheme,
       "speeds up wear and drift by this", {"endurance", "retention-tau"}},
      {"retention-tau", number(life.retention_tau_ns), kOneScheme,
       "drift time constant, ns: reads err with p = 1-exp(-age/tau)"},
      {"wear-per-write", number(c.wear_per_write), kOneScheme,
       "flips of wear per write (default: calibrated from the encoder)",
       {"endurance"}},
      {"wear-leveler", named(life.leveler, wear_leveler_name), kOneScheme,
       "wear leveling inside each channel"},
      {"wl-interval", number(life.wl_interval), kOneScheme,
       "demand writes between wear-leveler migrations", {"wear-leveler"}},
      {"wl-region", number(life.wl_region_lines), kOneScheme,
       "lines per wear-leveling region", {"wear-leveler"}},
      {"lifetime-seed", number(life.seed), kOneScheme, "endurance/drift seed"},
      // Run to failure: the open-loop engine at one worker.
      {"run-to-failure", toggle(), kAging, "loop the workload until it fails"},
      {"max-passes", number(c.aging.max_passes), kAging, "pass budget"},
      {"capacity-floor", number(c.aging.capacity_floor), kAging,
       "survivor-capacity fraction that ends the run"},
      {"until", named(c.aging.until, aging_until_name), kAging,
       "failure condition that ends the run"},
  };
}

template <typename Range, typename T>
[[nodiscard]] bool contains(const Range& range, const T& item) {
  return std::find(range.begin(), range.end(), item) != range.end();
}

inline std::string needs_text(const Flag& flag) {
  return std::string{flag.needs.size() == 1 ? "--" : "one of --"} +
         join(flag.needs, ", --");
}

/// Parses argv[1..]: a command, its flags, and for `trace pack` one more
/// word. Throws std::invalid_argument naming the word or flag at fault.
inline Cli parse_cli(const std::vector<std::string>& args) {
  const std::vector<ModeSpec>& specs = mode_table();
  std::optional<Mode> mode;
  usize first = 1;
  for (unsigned m = 0; m < kModeCount && !args.empty(); ++m) {
    if (specs[m].parent) continue;
    if (specs[m].word == args[0]) mode = Mode(m);
    if (args.size() > 1 && specs[m].word == args[0] + " " + args[1]) {
      mode = Mode(m);
      first = 2;
      break;
    }
  }
  if (!mode) {
    throw std::invalid_argument{args.empty()
                                    ? "missing command"
                                    : "unknown command '" + args[0] + "'"};
  }
  Cli cli;
  const std::vector<Flag> flags = flag_table(cli);
  std::vector<std::string> given;  // flag names, in command-line order
  auto gave = [&](const std::string& name) { return contains(given, name); };
  for (usize i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind('-', 0) != 0) {
      throw std::invalid_argument{"unexpected argument '" + arg + "'"};
    }
    const usize eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return "--" + f.name == name; });
    if (flag == flags.end()) {
      throw std::invalid_argument{"unknown option '" + arg + "'"};
    }
    if (gave(flag->name)) {
      throw std::invalid_argument{"option '" + name + "' given twice"};
    }
    const Value& v = flag->value;
    std::string expected;  // set when `value` is none of the kind's values
    if (v.kind == Kind::kSwitch && eq != std::string::npos) expected = "none";
    if (v.kind == Kind::kText && value.empty()) expected = "text";
    if (v.kind == Kind::kName && !contains(v.names, value)) {
      expected = join(v.names, "|");
    }
    if (!expected.empty()) {
      throw std::invalid_argument{"invalid value for '" + name + "': '" +
                                  value + "' (expected " + expected + ")"};
    }
    v.set(name, value);
    given.push_back(flag->name);
  }
  // Refine the command by its picking flags, the earliest given first.
  for (std::optional<Mode> next = mode; next;) {
    mode = std::exchange(next, std::nullopt);
    auto earliest = given.end();
    for (unsigned m = 0; m < kModeCount; ++m) {
      const auto at = std::find(given.begin(), given.end(), specs[m].word);
      if (specs[m].parent == mode && at < earliest) {
        earliest = at;
        next = Mode(m);
      }
    }
  }
  for (const Flag& f : flags) {
    if (!gave(f.name)) continue;
    if (!applies(f.modes, *mode)) {
      std::vector<std::string> names;
      for (unsigned m = 0; m < kModeCount; ++m) {
        if (applies(f.modes, Mode(m))) names.push_back(mode_name(Mode(m)));
      }
      throw std::invalid_argument{"option '--" + f.name + "' applies to " +
                                  join(names, ", ") + " only"};
    }
    if (!f.needs.empty() &&
        std::none_of(f.needs.begin(), f.needs.end(), gave)) {
      throw std::invalid_argument{"option '--" + f.name + "' needs " +
                                  needs_text(f)};
    }
  }
  for (const std::string& name : specs[command_of(*mode)].required) {
    if (!gave(name)) {
      throw std::invalid_argument{"missing option '--" + name + "' (" +
                                  mode_name(*mode) + " needs it)"};
    }
  }
  cli.mode = *mode;
  return cli;
}

/// `text` word-wrapped before column 80 and indented by two spaces; rows
/// after the first by `indent`.
inline std::string wrapped(const std::string& text, usize indent) {
  std::string out = " ";
  std::istringstream words{text};
  usize row = 0;
  for (std::string word; words >> word;) {
    if (out.size() - row + 1 + word.size() > 79) {
      row = out.size() + 1;
      out.append("\n").append(indent - 1, ' ');
    }
    out.append(" ").append(word);
  }
  return out + "\n";
}

/// The usage text: each mode with the flags it takes, then each flag.
inline std::string usage_text() {
  Cli scratch;
  const std::vector<Flag> flags = flag_table(scratch);
  std::string out = "usage: nvmenc <command> [options]\n\nmodes:\n";
  for (unsigned m = 0; m < kModeCount; ++m) {
    const std::vector<std::string>& required =
        mode_table()[command_of(Mode(m))].required;
    std::string line = mode_name(Mode(m));
    for (const std::string& name : required) line += " --" + name;
    for (const Flag& f : flags) {
      if (applies(f.modes, Mode(m)) &&
          (line + " ").find(" --" + f.name + " ") == std::string::npos) {
        line += " [--" + f.name + "]";
      }
    }
    out += wrapped(line, 6);
  }
  out += "\noptions:\n";
  for (const Flag& f : flags) {
    std::string line = "--" + f.name;
    if (f.value.kind == Kind::kNumber) line += "=N";
    if (f.value.kind == Kind::kText) line += "=TEXT";
    if (f.value.kind == Kind::kName) {
      line.append("=").append(join(f.value.names, "|"));
    }
    line += ": " + f.help;
    if (!f.needs.empty()) line.append(" (needs ").append(needs_text(f) + ")");
    out += wrapped(line, 8);
  }
  return out;
}

}  // namespace nvmenc::cli
