// apply_env must reject malformed CURB_* values with an error message that
// names the variable and the expected shape — a silent fallback to defaults
// would make a typo'd CI pipeline measure the wrong thing. The parity suite
// below holds curb-sim's flags to the same rules: every validated row of the
// settings table rejects the same malformed value from either source.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "curb/core/options.hpp"
#include "curb/core/settings.hpp"

namespace curb::core {
namespace {

// Scoped setenv: restores (or unsets) every touched variable on destruction
// so tests cannot leak state into each other or the surrounding process.
class ScopedEnv {
 public:
  void set(const char* name, const char* value) {
    save(name);
    ::setenv(name, value, 1);
  }
  void unset(const char* name) {
    save(name);
    ::unsetenv(name);
  }
  ~ScopedEnv() {
    for (const auto& [name, old] : saved_) {
      if (old.has_value()) {
        ::setenv(name.c_str(), old->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }

 private:
  void save(const char* name) {
    for (const auto& [seen, _] : saved_) {
      if (seen == name) return;  // keep the oldest value
    }
    const char* current = std::getenv(name);
    saved_.emplace_back(name, current != nullptr
                                  ? std::optional<std::string>{current}
                                  : std::nullopt);
  }
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

std::string expect_rejected(ScopedEnv& env, const char* name, const char* value) {
  env.set(name, value);
  RunSettings settings;
  std::string error;
  EXPECT_FALSE(apply_env(settings, &error))
      << name << "='" << value << "' should not parse";
  EXPECT_NE(error.find(name), std::string::npos)
      << "error should name the variable: " << error;
  env.unset(name);
  return error;
}

void unset_all(ScopedEnv& env) {
  for (const Setting& row : settings_table()) {
    if (row.env != nullptr) env.unset(row.env);
  }
}

TEST(EnvTest, CleanEnvironmentApplies) {
  ScopedEnv env;
  unset_all(env);
  RunSettings settings;
  std::string error;
  EXPECT_TRUE(apply_env(settings, &error)) << error;
  EXPECT_TRUE(error.empty());
}

TEST(EnvTest, RejectsUnknownSolver) {
  ScopedEnv env;
  const std::string error = expect_rejected(env, "CURB_SOLVER", "quantum");
  EXPECT_NE(error.find("dense|sparse|heuristic"), std::string::npos) << error;
}

TEST(EnvTest, RejectsMalformedFaultSeed) {
  ScopedEnv env;
  expect_rejected(env, "CURB_FAULT_SEED", "not-a-number");
  expect_rejected(env, "CURB_FAULT_SEED", "12abc");
  expect_rejected(env, "CURB_FAULT_SEED", "-7");
}

TEST(EnvTest, RejectsNonPositiveTsWindow) {
  ScopedEnv env;
  expect_rejected(env, "CURB_TS_WINDOW", "0");
  expect_rejected(env, "CURB_TS_WINDOW", "-50");
  expect_rejected(env, "CURB_TS_WINDOW", "fast");
  expect_rejected(env, "CURB_TS_WINDOW", "50ms");  // units belong to the var
}

TEST(EnvTest, RejectsNonNumericOrZeroRetention) {
  ScopedEnv env;
  expect_rejected(env, "CURB_TS_RETENTION", "many");
  expect_rejected(env, "CURB_TS_RETENTION", "0");
  expect_rejected(env, "CURB_TS_RETENTION", "-3");
  expect_rejected(env, "CURB_TS_RETENTION", "4.5");
}

TEST(EnvTest, RejectsEmptyOrMalformedSloRule) {
  ScopedEnv env;
  // ";;" is not empty (empty switches the watchdog off) but contains no rule.
  expect_rejected(env, "CURB_SLO", ";;");
  expect_rejected(env, "CURB_SLO", "p99(latency) <");
  expect_rejected(env, "CURB_SLO", "nonsense without operators");
}

TEST(EnvTest, AcceptsWellFormedValues) {
  ScopedEnv env;
  unset_all(env);
  env.set("CURB_SOLVER", "sparse");
  env.set("CURB_FAULT_SEED", "42");
  env.set("CURB_TS_WINDOW", "250");
  env.set("CURB_TS_RETENTION", "16");
  RunSettings settings;
  std::string error;
  ASSERT_TRUE(apply_env(settings, &error)) << error;
  EXPECT_EQ(settings.options.fault_seed, 42u);
  EXPECT_EQ(settings.options.ts_window, sim::SimTime::millis(250));
  EXPECT_EQ(settings.options.ts_retention, 16u);
}

TEST(EnvTest, MemAccountVariablesAreDocumented) {
  // The accountant is latched from raw getenv before main (it cannot use this
  // table), but the table is the single source of user documentation — keep
  // the two in sync.
  bool account = false, out = false, folded = false;
  for (const Setting& row : settings_table()) {
    const std::string name = row.env != nullptr ? row.env : "";
    account |= name == "CURB_MEM_ACCOUNT";
    out |= name == "CURB_MEM_OUT";
    folded |= name == "CURB_MEM_FOLDED";
  }
  EXPECT_TRUE(account);
  EXPECT_TRUE(out);
  EXPECT_TRUE(folded);
}

// Malformed values for every row that validates its value, keyed by flag or,
// for an environment-only row, by variable. Path rows accept any value.
const std::map<std::string, std::vector<std::string>>& malformed() {
  static const std::map<std::string, std::vector<std::string>> values = {
      {"--topology", {"ring", ""}},
      {"--controllers", {"eight", "-8", "8.5", ""}},
      {"--switches", {"many", "-1", ""}},
      {"--seed", {"-7", "42x", ""}},
      {"--f", {"-1", "one", ""}},
      {"--engine", {"raft", ""}},
      {"--rounds", {"abc", "-3", "2.5", ""}},
      {"--load", {"lots", "-1", ""}},
      {"--parallel", {"2", "yes", ""}},
      {"--capacity", {"0", "-4", "big", "nan", ""}},
      {"--dcs", {"-1", "14ms", "inf", ""}},
      {"--overhead", {"-15", "slow", ""}},
      {"--solver", {"quantum", ""}},
      {"--fault", {"explode(p=1)", "drop(p=2)"}},
      {"--fault-seed", {"-7", "not-a-number", "12abc", ""}},
      {"--ts-window", {"0", "-50", "fast", "50ms", ""}},
      {"--ts-retention", {"0", "-3", "4.5", "many", ""}},
      {"--slo", {";", ";;", "p99(latency) <", "nonsense without operators"}},
  };
  return values;
}

bool is_path_row(const Setting& row) {
  return row.value_hint != nullptr && std::string{row.value_hint} == "path";
}

TEST(SettingsParity, EveryValidatedRowHasMalformedSamples) {
  for (const Setting& row : settings_table()) {
    if (row.value_hint == nullptr || is_path_row(row) || !row.set) continue;
    const char* key = row.flag != nullptr ? row.flag : row.env;
    EXPECT_TRUE(malformed().count(key) > 0) << key << " validates but has no parity samples";
  }
}

TEST(SettingsParity, FlagAndEnvRejectTheSameValues) {
  ScopedEnv env;
  unset_all(env);
  for (const Setting& row : settings_table()) {
    if (row.flag == nullptr) continue;
    const auto samples = malformed().find(row.flag);
    if (samples == malformed().end()) continue;
    for (const std::string& value : samples->second) {
      RunSettings from_flag;
      std::string flag_error;
      EXPECT_FALSE(apply_flags(from_flag, {row.flag, value}, &flag_error))
          << row.flag << " '" << value << "' should not parse";
      EXPECT_NE(flag_error.find(row.flag), std::string::npos) << flag_error;
      if (row.env == nullptr) continue;
      env.set(row.env, value.c_str());
      RunSettings from_env;
      std::string env_error;
      EXPECT_FALSE(apply_env(from_env, &env_error))
          << row.env << "='" << value << "' should not parse";
      EXPECT_NE(env_error.find(row.env), std::string::npos) << env_error;
      env.unset(row.env);
    }
  }
}

TEST(SettingsParity, DriftedCasesAreRejectedBothWays) {
  // Values the old flag parser accepted while the environment reader
  // rejected them: a negative seed wrapped to 2^64-7, an all-separator SLO
  // ran with zero rules, a zero retention failed later with exit 1, and a
  // non-numeric round count ran zero rounds.
  ScopedEnv env;
  unset_all(env);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--fault-seed", "-7"}, {"--slo", ";"}, {"--ts-retention", "0"}, {"--rounds", "abc"}};
  for (const auto& [flag, value] : cases) {
    RunSettings settings;
    std::string error;
    EXPECT_FALSE(apply_flags(settings, {flag, value}, &error)) << flag << " " << value;
    EXPECT_EQ(error, "bad " + flag + " '" + value + "' (" +
                         (flag == "--slo" ? "contains no rules"
                          : flag == "--ts-retention" ? "want n >= 1"
                                                     : "want u64") +
                         ")");
  }
  EXPECT_EQ(expect_rejected(env, "CURB_FAULT_SEED", "-7"), "bad CURB_FAULT_SEED '-7' (want u64)");
  EXPECT_EQ(expect_rejected(env, "CURB_SLO", ";"), "bad CURB_SLO ';' (contains no rules)");
  EXPECT_EQ(expect_rejected(env, "CURB_TS_RETENTION", "0"),
            "bad CURB_TS_RETENTION '0' (want n >= 1)");
}

TEST(SettingsParity, FlagsOverrideTheEnvironment) {
  ScopedEnv env;
  unset_all(env);
  env.set("CURB_FAULT_SEED", "5");
  env.set("CURB_TRACE", "env.json");
  RunSettings settings;
  std::string error;
  ASSERT_TRUE(apply_env(settings, &error)) << error;
  ASSERT_TRUE(apply_flags(settings, {"--fault-seed", "9", "--rounds", "3", "--csv"}, &error))
      << error;
  EXPECT_EQ(settings.options.fault_seed, 9u);
  EXPECT_EQ(settings.outputs.trace, "env.json");
  EXPECT_EQ(settings.experiment.rounds, 3u);
  EXPECT_TRUE(settings.experiment.csv);
}

TEST(SettingsParity, UnknownFlagAndMissingValueAreErrors) {
  RunSettings settings;
  std::string error;
  EXPECT_FALSE(apply_flags(settings, {"--bogus"}, &error));
  EXPECT_NE(error.find("--bogus"), std::string::npos) << error;
  EXPECT_FALSE(apply_flags(settings, {"--rounds"}, &error));
  EXPECT_NE(error.find("--rounds"), std::string::npos) << error;
}

TEST(SettingsParity, BenchOutEmptyDisablesAndUnsetDefaults) {
  ScopedEnv env;
  unset_all(env);
  RunSettings unset;
  std::string error;
  ASSERT_TRUE(apply_env(unset, &error)) << error;
  EXPECT_FALSE(unset.outputs.bench_out.has_value());
  env.set("CURB_BENCH_OUT", "");
  RunSettings disabled;
  ASSERT_TRUE(apply_env(disabled, &error)) << error;
  ASSERT_TRUE(disabled.outputs.bench_out.has_value());
  EXPECT_TRUE(disabled.outputs.bench_out->empty());
  CurbOptions options;
  enable_outputs(options, disabled.outputs);
  EXPECT_FALSE(options.observability);
}

TEST(SettingsParity, OutputsSwitchOnWhatTheyNeed) {
  CurbOptions none;
  enable_outputs(none, RunOutputs{});
  EXPECT_FALSE(none.observability);
  EXPECT_FALSE(none.msg_ledger);
  RunOutputs trace;
  trace.trace = "t.json";
  CurbOptions traced;
  enable_outputs(traced, trace);
  EXPECT_TRUE(traced.observability);
  RunOutputs ledger;
  ledger.ledger = "l.jsonl";
  CurbOptions ledgered;
  enable_outputs(ledgered, ledger);
  EXPECT_TRUE(ledgered.msg_ledger);
  EXPECT_FALSE(ledgered.observability);
}

}  // namespace
}  // namespace curb::core
