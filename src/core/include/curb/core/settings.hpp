#pragma once

// One settings table and one artifact writer for curb-sim and the benches.
//
// Every run setting is one row: a curb-sim flag, a CURB_* environment
// variable, or both, with one parse-and-validate setter. curb-sim's flag
// loop, the environment reader shared by curb-sim and the benches, and
// `curb-sim --help` all walk the same table, so a bad value is rejected the
// same way from either source (exit 2, naming the flag or the variable).
//
// Every run artifact is written by write_run_outputs through obs::write_file:
// one call per network (SLO report, link matrix/CSV/DOT, ledger, Chrome trace,
// span JSONL, metrics JSON/CSV) and one per process (host profile, memory
// profile, memory flamegraph).

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "curb/core/options.hpp"
#include "curb/sim/time.hpp"

namespace curb::prof {
class Profiler;
}

namespace curb::core {

class CurbNetwork;

/// The artifacts a run is asked to write. An empty path writes nothing.
struct RunOutputs {
  // Per network.
  std::string slo_out;
  std::string link_matrix;
  std::string link_csv;
  std::string link_dot;
  std::string ledger;
  std::string trace;
  std::string trace_jsonl;
  std::string metrics_json;
  std::string metrics_csv;
  bool phase_report = false;  // per-phase latency breakdown on stdout
  // Per process.
  std::string prof;
  std::string prof_chrome;
  std::string mem_out;
  std::string mem_folded;
  /// Bench results JSON: unset writes BENCH_results.json, empty disables.
  std::optional<std::string> bench_out;
};

/// curb-sim's experiment shape, written by the flag-only rows.
struct Experiment {
  std::string topology = "internet2";
  std::size_t controllers = 8;
  std::size_t switches = 16;
  std::size_t rounds = 5;
  std::size_t load = 1;
  bool csv = false;
  bool help = false;
};

/// Everything the settings table can set.
struct RunSettings {
  CurbOptions options;
  RunOutputs outputs;
  Experiment experiment;
};

/// One row of the settings table.
struct Setting {
  const char* flag;        // "--trace"; nullptr for an environment-only row
  const char* env;         // "CURB_TRACE"; nullptr for a flag-only row
  const char* value_hint;  // "path", "u64", ...; nullptr for a bare switch
  const char* description;
  /// Parses and validates `value` into the settings. Returns the empty string
  /// on success, otherwise what a valid value looks like ("want u64"). Null
  /// for a documentation-only row.
  std::function<std::string(RunSettings&, const std::string& value)> set;
};

/// Every setting, in display order.
[[nodiscard]] const std::vector<Setting>& settings_table();

/// Apply every CURB_* variable that is set (an empty value is passed on like
/// any other: it clears a path and is malformed for a number). Returns false
/// and fills `error` with a message naming the variable on a bad value.
[[nodiscard]] bool apply_env(RunSettings& settings, std::string* error);

/// Apply curb-sim flags (argv without argv[0]). Returns false and fills
/// `error` on an unknown flag, a missing value, or a bad value.
[[nodiscard]] bool apply_flags(RunSettings& settings,
                               const std::vector<std::string>& args,
                               std::string* error);

/// `--help`: a usage line, then one line per row.
void print_settings_help(std::FILE* out, const char* argv0);

/// Switch on what the requested outputs need: observability for traces,
/// metrics, the phase report, link exports and an explicit bench results
/// path, and the ledger for its own export. The ts_window default belongs to
/// CurbNetwork.
void enable_outputs(CurbOptions& options, const RunOutputs& outputs);

/// True when the process artifacts need the host profiler installed (a
/// memory flamegraph needs its attribution tree too).
[[nodiscard]] bool wants_profiler(const RunOutputs& outputs);

/// Write one artifact through obs::write_file unless `path` is empty. Returns
/// false after printing "TOOL: cannot write PATH" when that fails.
[[nodiscard]] bool write_artifact(const char* tool, const std::string& path,
                                  const std::function<void(std::ostream&)>& write);

/// Write this network's artifacts (finalizing its telemetry first), print
/// any SLO breaches on stderr and the phase report on stdout. Returns false
/// after printing "TOOL: cannot write PATH" for each path that failed.
[[nodiscard]] bool write_run_outputs(CurbNetwork& network, const RunOutputs& outputs,
                                     const char* tool);

/// Write the process artifacts: the host profile from `profiler` (which is
/// uninstalled first), the memory profile and the memory flamegraph, plus the
/// host/mem summary lines on stderr. Returns false as above.
[[nodiscard]] bool write_run_outputs(const prof::Profiler& profiler, double wall_s,
                                     const RunOutputs& outputs, const char* tool);

/// Strict number parsers shared by the table and every CLI: the whole text
/// must parse, with no sign on an unsigned value.
[[nodiscard]] bool parse_u64(const std::string& text, std::uint64_t& out);
/// Finite doubles only.
[[nodiscard]] bool parse_double(const std::string& text, double& out);
/// Virtual milliseconds, > 0.
[[nodiscard]] bool parse_ms(const std::string& text, sim::SimTime& out);

/// For hand-written CLI loops: the parsed value, or exit 2 after printing
/// "TOOL: bad FLAG 'TEXT' (want ...)".
[[nodiscard]] std::uint64_t u64_arg(const char* tool, const char* flag, const char* text);
[[nodiscard]] double double_arg(const char* tool, const char* flag, const char* text);

}  // namespace curb::core
