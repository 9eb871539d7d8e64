#include "curb/core/settings.hpp"

#include <cmath>
#include <cstdlib>
#include <exception>

#include "curb/core/exit_codes.hpp"
#include "curb/fault/spec.hpp"
#include "curb/obs/slo.hpp"
#include "curb/opt/solver.hpp"

namespace curb::core {

namespace {

using Set = std::function<std::string(RunSettings&, const std::string&)>;

std::string u64_into(const std::string& text, std::uint64_t& out) {
  return parse_u64(text, out) ? std::string{} : "want u64";
}

/// A double of at least `min` (strictly above it when `strict`).
std::string number_into(const std::string& text, double& out, double min, bool strict) {
  double value = 0.0;
  if (!parse_double(text, value) || value < min || (strict && value == min)) {
    return strict ? "want number > 0" : "want number >= 0";
  }
  out = value;
  return {};
}

/// An output path: any value, empty meaning "write nothing".
Set path(std::string RunOutputs::*field) {
  return [field](RunSettings& s, const std::string& value) {
    s.outputs.*field = value;
    return std::string{};
  };
}

/// A bare switch: the row takes no value.
Set on(bool Experiment::*field) {
  return [field](RunSettings& s, const std::string&) {
    s.experiment.*field = true;
    return std::string{};
  };
}

Set count(std::size_t Experiment::*field) {
  return [field](RunSettings& s, const std::string& value) {
    return u64_into(value, s.experiment.*field);
  };
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool apply(const Setting& row, const char* name, RunSettings& settings,
           const std::string& value, std::string* error) {
  const std::string want = row.set(settings, value);
  if (want.empty()) return true;
  return fail(error, "bad " + std::string{name} + " '" + value + "' (" + want + ")");
}

}  // namespace

const std::vector<Setting>& settings_table() {
  static const std::vector<Setting> table = {
      {"--topology", nullptr, "internet2|random",
       "topology (default internet2; random uses --controllers/--switches)",
       [](RunSettings& s, const std::string& v) {
         if (v != "internet2" && v != "random") return std::string{"want internet2|random"};
         s.experiment.topology = v;
         return std::string{};
       }},
      {"--controllers", nullptr, "n", "random-topology controllers (default 8)",
       count(&Experiment::controllers)},
      {"--switches", nullptr, "n", "random-topology switches (default 16)",
       count(&Experiment::switches)},
      {"--seed", nullptr, "u64", "deployment RNG seed (default 42)",
       [](RunSettings& s, const std::string& v) { return u64_into(v, s.options.seed); }},
      {"--f", nullptr, "n", "faults tolerated per group, group size 3f+1 (default 1)",
       [](RunSettings& s, const std::string& v) { return u64_into(v, s.options.f); }},
      {"--engine", nullptr, "pbft|hotstuff", "BFT engine (default pbft)",
       [](RunSettings& s, const std::string& v) {
         if (v == "pbft") s.options.consensus_engine = bft::ConsensusEngine::kPbft;
         else if (v == "hotstuff") s.options.consensus_engine = bft::ConsensusEngine::kHotstuff;
         else return std::string{"want pbft|hotstuff"};
         return std::string{};
       }},
      {"--rounds", nullptr, "n", "rounds to run (default 5)", count(&Experiment::rounds)},
      {"--load", nullptr, "n", "PKT-INs per switch per round (default 1)",
       count(&Experiment::load)},
      {"--parallel", nullptr, "0|1", "parallel consensus instances (default 1)",
       [](RunSettings& s, const std::string& v) {
         if (v != "0" && v != "1") return std::string{"want 0|1"};
         s.options.parallel = v == "1";
         return std::string{};
       }},
      {"--capacity", nullptr, "c", "controller capacity (default 12)",
       [](RunSettings& s, const std::string& v) {
         return number_into(v, s.options.controller_capacity, 0.0, true);
       }},
      {"--dcs", nullptr, "ms", "D_c,s threshold in ms, 0 disables (default 14)",
       [](RunSettings& s, const std::string& v) {
         double ms = 0.0;
         std::string want = number_into(v, ms, 0.0, false);
         if (want.empty()) s.options.max_cs_delay_ms = ms > 0 ? ms : opt::CapInstance::kNoLimit;
         return want;
       }},
      {"--overhead", nullptr, "ms", "per-message processing overhead (default 0)",
       [](RunSettings& s, const std::string& v) {
         double ms = 0.0;
         std::string want = number_into(v, ms, 0.0, false);
         if (want.empty()) {
           s.options.link_model.per_message_overhead = sim::SimTime::from_seconds_f(ms / 1000.0);
         }
         return want;
       }},
      {"--reassign", nullptr, nullptr, "run RE-ASS probe rounds instead of PKT-IN",
       [](RunSettings& s, const std::string&) {
         s.options.reass_always_solve = true;
         return std::string{};
       }},
      {"--csv", nullptr, nullptr, "machine-readable round output", on(&Experiment::csv)},
      {"--solver", "CURB_SOLVER", "dense|sparse|heuristic",
       "OP() solver backend for every assignment solve (default dense)",
       [](RunSettings& s, const std::string& v) {
         const auto backend = opt::parse_cap_solver_backend(v);
         if (!backend) return std::string{"want dense|sparse|heuristic"};
         s.options.op_solver = *backend;
         return std::string{};
       }},
      {"--fault", "CURB_FAULT", "spec", "fault-injection plan (curb::fault spec grammar)",
       [](RunSettings& s, const std::string& v) {
         try {
           (void)fault::FaultPlan::parse(v);
         } catch (const fault::SpecError& e) {
           return std::string{e.what()};
         }
         s.options.fault_spec = v;
         return std::string{};
       }},
      {"--fault-seed", "CURB_FAULT_SEED", "u64",
       "seed for the fault plan's own RNG stream (default 1)",
       [](RunSettings& s, const std::string& v) { return u64_into(v, s.options.fault_seed); }},
      {"--ts-out", "CURB_TS_OUT", "path", "stream windowed telemetry to this JSONL file",
       [](RunSettings& s, const std::string& v) {
         s.options.ts_out = v;
         return std::string{};
       }},
      {"--ts-window", "CURB_TS_WINDOW", "ms",
       "telemetry window width in virtual ms (default 100 when telemetry is on)",
       [](RunSettings& s, const std::string& v) {
         return parse_ms(v, s.options.ts_window) ? std::string{} : "want ms > 0";
       }},
      {"--ts-retention", "CURB_TS_RETENTION", "n",
       "closed windows kept in memory (default 64)",
       [](RunSettings& s, const std::string& v) {
         std::uint64_t n = 0;
         if (!parse_u64(v, n) || n == 0) return std::string{"want n >= 1"};
         s.options.ts_retention = n;
         return std::string{};
       }},
      {"--slo", "CURB_SLO", "rules",
       "SLO watchdog rules, ';'-separated (curb::obs::slo grammar); a breach "
       "stops curb-sim with exit 3",
       [](RunSettings& s, const std::string& v) {
         // A value of only separators parses to zero rules: the user asked
         // for a watchdog and would get none. Empty switches it off.
         try {
           if (!v.empty() && obs::SloRuleSet::parse(v).rules.empty()) {
             return std::string{"contains no rules"};
           }
         } catch (const obs::SloError& e) {
           return std::string{e.what()};
         }
         s.options.slo_rules = v;
         return std::string{};
       }},
      {"--slo-out", "CURB_SLO_OUT", "path", "write the machine-readable SLO breach report",
       path(&RunOutputs::slo_out)},
      {"--trace", "CURB_TRACE", "path",
       "write a Chrome-trace rendering of the run, with metric counter tracks",
       path(&RunOutputs::trace)},
      {"--trace-jsonl", "CURB_TRACE_JSONL", "path", "write the span stream as JSONL",
       path(&RunOutputs::trace_jsonl)},
      {"--metrics-out", "CURB_METRICS_OUT", "path", "write a metrics snapshot as JSON",
       path(&RunOutputs::metrics_json)},
      {"--metrics-csv", "CURB_METRICS_CSV", "path", "write a metrics snapshot as CSV",
       path(&RunOutputs::metrics_csv)},
      {"--phase-report", nullptr, nullptr,
       "print the per-phase latency breakdown after the run (see curb-trace)",
       [](RunSettings& s, const std::string&) {
         s.outputs.phase_report = true;
         return std::string{};
       }},
      {"--link-matrix", "CURB_LINK_MATRIX", "path",
       "write the per-link telemetry matrix as JSON", path(&RunOutputs::link_matrix)},
      {"--link-csv", "CURB_LINK_CSV", "path", "write the per-link telemetry matrix as CSV",
       path(&RunOutputs::link_csv)},
      {"--link-dot", "CURB_LINK_DOT", "path", "write a Graphviz heatmap of per-link bytes",
       path(&RunOutputs::link_dot)},
      {"--ledger-out", "CURB_LEDGER_OUT", "path",
       "write the message-complexity ledger as JSONL (enables the ledger)",
       path(&RunOutputs::ledger)},
      {nullptr, "CURB_BENCH_OUT", "path",
       "bench results JSON (default BENCH_results.json; empty disables)",
       [](RunSettings& s, const std::string& v) {
         s.outputs.bench_out = v;
         return std::string{};
       }},
      {"--prof", "CURB_PROF", "path", "collapsed-stack host profile (flamegraph.pl)",
       path(&RunOutputs::prof)},
      {"--prof-chrome", "CURB_PROF_CHROME", "path", "Chrome-trace host profile",
       path(&RunOutputs::prof_chrome)},
      {nullptr, "CURB_MEM_ACCOUNT", "0|1",
       "latch the tagged allocation accountant on (read before main)", nullptr},
      {"--mem-out", "CURB_MEM_OUT", "path",
       "per-tag memory profile JSON (the variable implies CURB_MEM_ACCOUNT=1)",
       path(&RunOutputs::mem_out)},
      {"--mem-folded", "CURB_MEM_FOLDED", "path",
       "collapsed-stack memory flamegraph, bytes per frame (the variable implies "
       "CURB_MEM_ACCOUNT=1)",
       path(&RunOutputs::mem_folded)},
      {"--help", nullptr, nullptr, "this text", on(&Experiment::help)},
  };
  return table;
}

bool apply_env(RunSettings& settings, std::string* error) {
  for (const Setting& row : settings_table()) {
    if (row.env == nullptr || !row.set) continue;
    const char* value = std::getenv(row.env);
    if (value != nullptr && !apply(row, row.env, settings, value, error)) return false;
  }
  return true;
}

bool apply_flags(RunSettings& settings, const std::vector<std::string>& args,
                 std::string* error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i] == "-h" ? std::string{"--help"} : args[i];
    const Setting* row = nullptr;
    for (const Setting& candidate : settings_table()) {
      if (candidate.flag != nullptr && flag == candidate.flag) row = &candidate;
    }
    if (row == nullptr) return fail(error, "unknown flag '" + args[i] + "'");
    std::string value;
    if (row->value_hint != nullptr) {
      if (i + 1 >= args.size()) {
        return fail(error, flag + " needs a value (" + row->value_hint + ")");
      }
      value = args[++i];
    }
    if (!apply(*row, row->flag, settings, value, error)) return false;
    if (settings.experiment.help) return true;
  }
  return true;
}

void print_settings_help(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [flags]\n\n"
               "Flags and CURB_* environment variables: the environment is applied\n"
               "first and flags override it; the bench binaries honour the same\n"
               "variables. Exit codes: 0 ok, 1 run or output failure, 2 usage,\n"
               "3 SLO watchdog breach.\n\n",
               argv0);
  for (const Setting& row : settings_table()) {
    std::string flag = row.flag != nullptr ? row.flag : "";
    if (row.flag != nullptr && row.value_hint != nullptr) flag += std::string{" "} + row.value_hint;
    std::fprintf(out, "  %-32s %-18s %s\n", flag.c_str(), row.env != nullptr ? row.env : "",
                 row.description);
  }
}

void enable_outputs(CurbOptions& options, const RunOutputs& outputs) {
  const bool bench_out = outputs.bench_out.has_value() && !outputs.bench_out->empty();
  if (outputs.phase_report || bench_out || !outputs.trace.empty() ||
      !outputs.trace_jsonl.empty() || !outputs.metrics_json.empty() ||
      !outputs.metrics_csv.empty() || !outputs.link_matrix.empty() ||
      !outputs.link_csv.empty() || !outputs.link_dot.empty()) {
    options.observability = true;
  }
  if (!outputs.ledger.empty()) options.msg_ledger = true;
}

bool wants_profiler(const RunOutputs& outputs) {
  return !outputs.prof.empty() || !outputs.prof_chrome.empty() ||
         !outputs.mem_folded.empty();
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  // stoull accepts "-7" by wrapping it to 2^64-7 — require plain digits.
  if (text.empty() || (text[0] < '0' || text[0] > '9')) return false;
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(text, &used);
    if (used != text.size()) return false;
    out = value;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_double(const std::string& text, double& out) {
  // stod skips leading whitespace; a value is the whole text or nothing.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0) return false;
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(value)) return false;
    out = value;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_ms(const std::string& text, sim::SimTime& out) {
  double ms = 0.0;
  if (!parse_double(text, ms) || !(ms > 0.0)) return false;
  const auto value = sim::SimTime::micros(static_cast<std::int64_t>(std::llround(ms * 1000.0)));
  if (value <= sim::SimTime::zero()) return false;
  out = value;
  return true;
}

std::uint64_t u64_arg(const char* tool, const char* flag, const char* text) {
  std::uint64_t value = 0;
  if (parse_u64(text, value)) return value;
  std::fprintf(stderr, "%s: bad %s '%s' (want u64)\n", tool, flag, text);
  std::exit(kExitUsage);
}

double double_arg(const char* tool, const char* flag, const char* text) {
  double value = 0.0;
  if (parse_double(text, value)) return value;
  std::fprintf(stderr, "%s: bad %s '%s' (want number)\n", tool, flag, text);
  std::exit(kExitUsage);
}

}  // namespace curb::core
