#pragma once

// Bench-trajectory comparison: parse two BENCH_results.json files and flag
// per-metric regressions. This is the gate every later performance PR runs
// against — `curb-prof perf-diff BENCH_baseline.json BENCH_results.json`.
//
// Virtual-time metrics (latency, phases, message counts) are deterministic
// per seed and diff hard; `host.*` metrics are wall-clock measurements of
// the machine that produced the file and only ever warn. `curb-prof
// mem-diff` runs on this same engine (obs::res::mem_diff flattens each
// memory profile into one BenchEntry).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace curb::prof {

/// One BENCH_results.json entry, flattened: every numeric field becomes a
/// dotted metric ("metrics.latency_ms", "e2e_us.p99_us",
/// "phases.dispatch.share_pct", "host.wall_ms", ...). Array elements carrying
/// a "phase"/"component" name key are flattened under that name.
struct BenchEntry {
  std::string bench;
  std::vector<std::pair<std::string, std::string>> params;  // file order
  std::map<std::string, double> values;

  /// Stable identity used to match entries across files.
  [[nodiscard]] std::string key() const;
};

/// Parse a BENCH_results.json array (throws std::runtime_error).
[[nodiscard]] std::vector<BenchEntry> parse_bench_json(std::istream& in);

struct PerfDiffOptions {
  /// Relative-change gate for virtual-time metrics, percent.
  double threshold_pct = 10.0;
  /// Relative-change gate for host.* and memory.* metrics, percent (always
  /// warn-only — both measure the build/machine, not the protocol).
  double host_threshold_pct = 50.0;
  /// Absolute change below this is ignored regardless of relative size.
  double floor = 0.0;
  /// Downgrade every regression to a warning (CI smoke mode: the gate only
  /// hard-fails on parse errors).
  bool warn_only = false;
};

struct MetricDelta {
  enum class Status : std::uint8_t { kRegressed, kWarned, kImproved };

  std::string entry;   // BenchEntry::key()
  std::string metric;  // flattened metric name
  double base = 0.0;
  double candidate = 0.0;
  double delta_pct = 0.0;  // signed relative change vs |base| (base==0 -> vs 1)
  Status status = Status::kWarned;
};

struct PerfDiffResult {
  std::vector<MetricDelta> deltas;        // beyond-threshold changes only
  std::vector<std::string> only_base;      // entries missing from the candidate
  std::vector<std::string> only_candidate; // entries missing from the baseline
  std::size_t entries_compared = 0;
  std::size_t metrics_compared = 0;

  [[nodiscard]] std::size_t regressions() const;
  [[nodiscard]] std::size_t warnings() const;
  [[nodiscard]] std::size_t improvements() const;
};

/// True when a larger value of `metric` is better (throughput-style metrics:
/// tps, throughput, events_per_sec); everything else is lower-is-better.
[[nodiscard]] bool higher_is_better(const std::string& metric);

[[nodiscard]] PerfDiffResult perf_diff(const std::vector<BenchEntry>& base,
                                       const std::vector<BenchEntry>& candidate,
                                       const PerfDiffOptions& options = {});

void write_perf_diff_text(const PerfDiffResult& diff, std::ostream& out);
void write_perf_diff_json(const PerfDiffResult& diff, std::ostream& out);

}  // namespace curb::prof
