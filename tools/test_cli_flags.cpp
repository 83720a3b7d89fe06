// The nvmenc flag table, checked by walking the table itself: every flag in
// every mode, every "needs" column, every named value and a repeat of every
// flag. The expectations come from the rows and the mode table, so a row
// added later is covered without touching this file.
#include "cli_flags.hpp"

#include <gtest/gtest.h>

namespace nvmenc::cli {
namespace {

/// The parser's own rows, bound into a throwaway Cli.
const std::vector<Flag>& flags() {
  static Cli scratch;
  static const std::vector<Flag> table = flag_table(scratch);
  return table;
}

const Flag& flag_named(const std::string& name) {
  for (const Flag& f : flags()) {
    if (f.name == name) return f;
  }
  throw std::logic_error{"no flag --" + name};
}

/// The flag with a value its kind accepts.
std::string with_value(const Flag& f) {
  switch (f.value.kind) {
    case Kind::kNumber:
      return "--" + f.name + "=1";
    case Kind::kText:
      return "--" + f.name + "=x";
    case Kind::kSwitch:
      return "--" + f.name;
    case Kind::kName:
      return "--" + f.name + "=" + f.value.names.front();
  }
  return {};
}

/// A command line that runs `m`: its command words, the flags that pick
/// it, and the flags it requires.
std::vector<std::string> mode_argv(Mode m) {
  const ModeSpec& spec = mode_table()[m];
  std::vector<std::string> argv;
  if (spec.parent) {
    argv = mode_argv(*spec.parent);
    argv.push_back(with_value(flag_named(spec.word)));
  } else {
    for (usize at = 0; at < spec.word.size();) {
      const usize space = std::min(spec.word.find(' ', at), spec.word.size());
      argv.push_back(spec.word.substr(at, space - at));
      at = space + 1;
    }
  }
  for (const std::string& name : spec.required) {
    argv.push_back(with_value(flag_named(name)));
  }
  return argv;
}

bool gives(const std::vector<std::string>& argv, const Flag& f) {
  for (const std::string& arg : argv) {
    if (arg == "--" + f.name || arg.rfind("--" + f.name + "=", 0) == 0) {
      return true;
    }
  }
  return false;
}

/// The mode `m` becomes when `f` picks one of its refinements.
Mode refined(Mode m, const Flag& f) {
  for (unsigned r = 0; r < kModeCount; ++r) {
    if (mode_table()[r].parent == m && mode_table()[r].word == f.name) {
      return Mode(r);
    }
  }
  return m;
}

std::string parse_error(const std::vector<std::string>& argv) {
  try {
    (void)parse_cli(argv);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(accepted)";
}

std::string joined(const std::vector<std::string>& argv) {
  return join(argv, " ");
}

TEST(CliFlags, EachFlagIsAcceptedExactlyInItsModes) {
  for (unsigned mi = 0; mi < kModeCount; ++mi) {
    const Mode m = Mode(mi);
    for (const Flag& f : flags()) {
      std::vector<std::string> argv = mode_argv(m);
      if (gives(argv, f)) continue;  // picks or is required by the mode
      argv.push_back(with_value(f));
      const Mode result = refined(m, f);
      if (applies(f.modes, result)) {
        for (const std::string& need : f.needs) {
          if (applies(flag_named(need).modes, result)) {
            argv.push_back(with_value(flag_named(need)));
            break;
          }
        }
        SCOPED_TRACE(joined(argv));
        Mode parsed = kList;
        EXPECT_NO_THROW(parsed = parse_cli(argv).mode);
        EXPECT_EQ(mode_name(parsed), mode_name(result));
      } else {
        EXPECT_EQ(parse_error(argv).rfind("option '--" + f.name +
                                              "' applies to ",
                                          0),
                  0U)
            << joined(argv) << ": " << parse_error(argv);
      }
    }
  }
}

TEST(CliFlags, NeedsRowsRejectAloneAndAcceptEachNeed) {
  usize checked = 0;
  for (const Flag& f : flags()) {
    if (f.needs.empty()) continue;
    for (unsigned mi = 0; mi < kModeCount; ++mi) {
      const Mode m = Mode(mi);
      if (!applies(f.modes, m)) continue;
      std::vector<std::string> argv = mode_argv(m);
      argv.push_back(with_value(f));
      EXPECT_EQ(parse_error(argv).rfind("option '--" + f.name + "' needs ",
                                        0),
                0U)
          << joined(argv) << ": " << parse_error(argv);
      for (const std::string& need : f.needs) {
        if (!applies(flag_named(need).modes, m)) continue;
        std::vector<std::string> with_need = argv;
        with_need.push_back(with_value(flag_named(need)));
        EXPECT_EQ(parse_error(with_need), "(accepted)") << joined(with_need);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0U);
}

TEST(CliFlags, NamedValuesRejectAnyOtherName) {
  usize checked = 0;
  for (const Flag& f : flags()) {
    if (f.value.kind != Kind::kName) continue;
    for (unsigned mi = 0; mi < kModeCount; ++mi) {
      if (!applies(f.modes, Mode(mi))) continue;
      std::vector<std::string> argv = mode_argv(Mode(mi));
      argv.push_back("--" + f.name + "=bogus");
      EXPECT_EQ(parse_error(argv), "invalid value for '--" + f.name +
                                       "': 'bogus' (expected " +
                                       join(f.value.names, "|") + ")");
      ++checked;
      break;
    }
  }
  EXPECT_GT(checked, 0U);
}

/// Every accepted name of `flag`, given in the first mode it applies to,
/// sets the enumerator that `name_of` prints as that name.
template <typename Field, typename NameOf>
void expect_names_round_trip(const std::string& flag, Field field_of,
                             NameOf name_of) {
  const Flag& f = flag_named(flag);
  ASSERT_EQ(f.value.kind, Kind::kName) << flag;
  ASSERT_FALSE(f.value.names.empty()) << flag;
  unsigned mi = 0;
  while (!applies(f.modes, Mode(mi))) ++mi;
  for (const std::string& name : f.value.names) {
    std::vector<std::string> argv = mode_argv(Mode(mi));
    argv.push_back("--" + flag + "=" + name);
    EXPECT_EQ(std::string{name_of(field_of(parse_cli(argv)))}, name)
        << joined(argv);
  }
}

TEST(CliFlags, NamedValuesRoundTrip) {
  expect_names_round_trip(
      "format", [](const Cli& c) { return c.format; }, trace_format_name);
  expect_names_round_trip(
      "encode-model", [](const Cli& c) { return c.encode_model; },
      encode_model_name);
  expect_names_round_trip(
      "pattern", [](const Cli& c) { return c.load.pattern; },
      load_pattern_name);
  expect_names_round_trip(
      "wear-leveler", [](const Cli& c) { return c.mem.ras.lifetime.leveler; },
      wear_leveler_name);
  expect_names_round_trip(
      "until", [](const Cli& c) { return c.aging.until; }, aging_until_name);
}

TEST(CliFlags, EveryFlagGivenTwiceIsRejected) {
  for (const Flag& f : flags()) {
    for (unsigned mi = 0; mi < kModeCount; ++mi) {
      if (!applies(f.modes, Mode(mi))) continue;
      std::vector<std::string> argv = mode_argv(Mode(mi));
      if (!gives(argv, f)) argv.push_back(with_value(f));
      argv.push_back(with_value(f));
      EXPECT_EQ(parse_error(argv), "option '--" + f.name + "' given twice");
      break;
    }
  }
}

TEST(CliFlags, ModeTableNamesRealFlagsOfItsModes) {
  for (unsigned mi = 0; mi < kModeCount; ++mi) {
    const ModeSpec& spec = mode_table()[mi];
    if (spec.parent) {
      EXPECT_TRUE(applies(flag_named(spec.word).modes, Mode(mi)))
          << mode_name(Mode(mi));
    }
    for (const std::string& name : spec.required) {
      EXPECT_TRUE(applies(flag_named(name).modes, Mode(mi)))
          << mode_name(Mode(mi));
    }
    EXPECT_EQ(mode_name(parse_cli(mode_argv(Mode(mi))).mode),
              mode_name(Mode(mi)));
  }
}

TEST(CliFlags, FirstPickingFlagWins) {
  EXPECT_EQ(parse_error({"loadgen", "--sharded", "--run-to-failure"}),
            "option '--run-to-failure' applies to replay --memsys "
            "--run-to-failure, loadgen --run-to-failure only");
  EXPECT_EQ(parse_error({"loadgen", "--run-to-failure", "--sharded"}),
            "option '--sharded' applies to loadgen --sharded only");
  // A pick given before the flag that makes it reachable still counts.
  EXPECT_EQ(parse_cli({"replay", "--schemes=DCW", "--memsys", "--in=x"}).mode,
            kSweep);
}

TEST(CliFlags, RejectsStrayWordsUnknownsAndMissingFlags) {
  EXPECT_EQ(parse_error({"run", "foo"}), "unexpected argument 'foo'");
  EXPECT_EQ(parse_error({"trace", "foo", "--out=x"}),
            "unexpected argument 'foo'");
  EXPECT_EQ(parse_error({"bogus"}), "unknown command 'bogus'");
  EXPECT_EQ(parse_error({}), "missing command");
  EXPECT_EQ(parse_error({"perf", "--sched"}), "unknown option '--sched'");
  EXPECT_EQ(parse_error({"perf", "--accesses"}),
            "invalid value for '--accesses': ''");
  EXPECT_EQ(parse_error({"replay", "--memsys=1", "--in=x"}),
            "invalid value for '--memsys': '1' (expected none)");
  EXPECT_EQ(parse_error({"replay", "--in="}),
            "invalid value for '--in': '' (expected text)");
  EXPECT_EQ(parse_error({"trace", "pack", "--in=x"}),
            "missing option '--out' (trace pack needs it)");
}

TEST(CliFlags, RowsWriteTheLibraryConfigs) {
  const Cli both = parse_cli({"replay", "--memsys", "--run-to-failure",
                              "--in=x", "--epoch-accesses=7",
                              "--inter-arrival-ns=2.5", "--fault-rate=0.25"});
  EXPECT_EQ(both.replay.epoch_accesses, 7U);
  EXPECT_EQ(both.aging.epoch_accesses, 7U);
  EXPECT_EQ(both.aging.inter_arrival_ns, 2.5);
  EXPECT_EQ(both.mem.ras.inject.write_fail_rate, 0.25);
  EXPECT_EQ(both.experiment.fault.inject.write_fail_rate, 0.25);
  // Without the flag each config keeps its own library default.
  const Cli defaults = parse_cli({"loadgen"});
  EXPECT_EQ(defaults.aging.epoch_accesses, AgingConfig{}.epoch_accesses);
  EXPECT_EQ(defaults.replay.epoch_accesses,
            TraceReplayConfig{}.epoch_accesses);
  EXPECT_EQ(defaults.mem.org.channels, 2U);
  EXPECT_EQ(parse_cli({"loadgen", "--pattern=uniform"}).load.pattern,
            LoadPattern::kUniform);
}

TEST(CliFlags, UsageListsEveryModeAndFlag) {
  const std::string usage = usage_text();
  for (unsigned mi = 0; mi < kModeCount; ++mi) {
    EXPECT_NE(usage.find("\n  " + mode_name(Mode(mi))), std::string::npos);
  }
  for (const Flag& f : flags()) {
    EXPECT_NE(usage.find("\n  --" + f.name), std::string::npos) << f.name;
  }
  for (usize at = 0, end; at < usage.size(); at = end + 1) {
    end = usage.find('\n', at);
    EXPECT_LE(end - at, 79U) << usage.substr(at, end - at);
  }
}

}  // namespace
}  // namespace nvmenc::cli
