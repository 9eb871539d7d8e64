#pragma once

// Shared helpers for the figure-reproduction benchmark binaries. Each binary
// regenerates one table/figure from the paper's evaluation (Section IV),
// printing the same series the figure plots. Absolute values depend on the
// simulated substrate; the shapes are the reproduction target (see
// EXPERIMENTS.md).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "curb/core/exit_codes.hpp"
#include "curb/core/network.hpp"
#include "curb/core/options.hpp"
#include "curb/core/settings.hpp"
#include "curb/json/json.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/report.hpp"
#include "curb/obs/res/account.hpp"
#include "curb/prof/profiler.hpp"
#include "curb/sim/stats.hpp"

namespace curb::bench {

/// The CURB_* settings (core::settings_table()) applied on top of `base`,
/// plus what the requested outputs switch on, so any bench binary honours the
/// table without recompiling, e.g.
///   CURB_FAULT='drop(p=0.05,cat=REPLY)' CURB_TS_OUT=ts.jsonl
///     CURB_SLO='p99(core.request_latency_us) < 400ms' ./bench_fig5_pktin
/// A bad value exits 2 naming the variable.
inline core::RunSettings env_settings(core::CurbOptions base = {}) {
  core::RunSettings settings;
  settings.options = std::move(base);
  std::string error;
  if (!core::apply_env(settings, &error)) {
    std::fprintf(stderr, "bench: %s\n", error.c_str());
    std::exit(core::kExitUsage);
  }
  core::enable_outputs(settings.options, settings.outputs);
  return settings;
}

/// Process-wide bench state: the outputs the environment asks for, the host
/// profiler they may install (CURB_PROF, CURB_PROF_CHROME, CURB_MEM_FOLDED),
/// and whether any artifact failed to write. Host time never feeds the
/// virtual clock, so profiled runs stay byte-identical to unprofiled ones.
class BenchProcess {
 public:
  static BenchProcess& get() {
    static BenchProcess process;
    return process;
  }

  const core::RunOutputs outputs = env_settings().outputs;
  prof::Profiler profiler;
  prof::StopWatch wall;
  bool failed = false;

 private:
  BenchProcess() {
    if (core::wants_profiler(outputs)) prof::set_thread_profiler(&profiler);
  }
  ~BenchProcess() { prof::set_thread_profiler(nullptr); }
};

void warm_bench_results();

inline void print_header(const std::string& title, const std::string& paper_ref) {
  // Line-buffer stdout so partial results survive a killed run.
  static const bool unbuffered = [] {
    setvbuf(stdout, nullptr, _IOLBF, 0);
    return true;
  }();
  (void)unbuffered;
  (void)BenchProcess::get();
  // Birth the results singleton (and its entry StopWatch) now: the first
  // add() otherwise creates it mid-call and reports a ~0 ms first lap.
  warm_bench_results();
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
}

inline void print_row_header(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%-18s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%-18s", "---");
  std::printf("\n");
}

inline void print_cell(double value) { std::printf("%-18.2f", value); }
inline void print_cell(const std::string& value) { std::printf("%-18s", value.c_str()); }
inline void end_row() { std::printf("\n"); }

/// Paper-calibrated options for the protocol benches: Internet2, f = 1,
/// 500 ms timeout. The per-message overhead models the controller-side
/// processing cost of the paper's Python/Ryu/gRPC stack (calibrated so the
/// PKT-IN latency lands in the paper's 200-260 ms band; see EXPERIMENTS.md).
inline core::CurbOptions paper_options() {
  core::CurbOptions opts;
  opts.f = 1;
  opts.max_cs_delay_ms = 14.0;  // every switch keeps >= 6 eligible controllers,
                                // so removing up to 2 byzantine ones stays feasible
  opts.controller_capacity = 12.0;
  opts.link_model.per_message_overhead = curb::sim::SimTime::millis(15);
  // The end-to-end reply latency in this deployment is ~270 ms; a node is
  // "lazy" when its replies trail the pack but still beat the timeout
  // (paper exp. 3). Between those two lines:
  opts.lazy_threshold = curb::sim::SimTime::millis(350);
  // Reassignment churn transiently delays replies; demand several
  // consecutive misses before accusing a controller (the paper's
  // "application-specific waiting time" policy).
  opts.max_silent_rounds = 3;
  opts.op_time_mode = core::OpTimeMode::kMeasured;
  return env_settings(opts).options;
}

/// Consolidated machine-readable bench results. Each bench appends one entry
/// per measured configuration; finish() writes the collected entries as a
/// JSON array to CURB_BENCH_OUT (default BENCH_results.json; set it to the
/// empty string to disable). When the configuration's network ran
/// with observability on, the entry also carries the end-to-end latency
/// stats and the per-phase breakdown from curb-trace analysis.
class BenchResults {
 public:
  /// `extra_json` is an optional raw JSON fragment spliced into the entry
  /// verbatim (e.g. ",\"msg_complexity\":{...}"); it must start with a comma
  /// and contain complete key:value members.
  static void add(const std::string& bench,
                  const std::vector<std::pair<std::string, std::string>>& params,
                  const std::vector<std::pair<std::string, double>>& metrics,
                  core::CurbNetwork* network = nullptr,
                  const std::string& extra_json = "") {
    std::ostringstream entry;
    entry << "{\"bench\":\"" << json::escape(bench) << "\",\"params\":{";
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i > 0) entry << ",";
      entry << "\"" << json::escape(params[i].first) << "\":\""
            << json::escape(params[i].second) << "\"";
    }
    entry << "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.3f", metrics[i].second);
      if (i > 0) entry << ",";
      entry << "\"" << json::escape(metrics[i].first) << "\":" << value;
    }
    entry << "}";
    if (!extra_json.empty()) entry << extra_json;
    append_host_section(entry, network);
    append_memory_section(entry, network);
    if (network != nullptr && network->observatory() != nullptr) {
      const obs::TraceAnalysis analysis =
          obs::TraceAnalysis::from_tracer(network->observatory()->tracer);
      entry << ",\"e2e_us\":";
      obs::write_latency_stats_json(analysis.e2e(), entry);
      entry << ",\"phases\":";
      obs::write_phase_breakdown_json(analysis, entry);
      entry << ",\"anomalies\":" << analysis.findings().size();
    }
    if (network != nullptr && network->ts() != nullptr) {
      append_window_series(entry, *network->ts());
    }
    entry << "}";
    instance().entries_.push_back(entry.str());
  }

 private:
  /// Host-time section: wall-clock milliseconds since the previous entry
  /// (always recorded, even with profiling off), the configuration's event
  /// throughput, and — when a profiler is installed — the per-component
  /// share of host time spent since the previous entry. Machine-dependent
  /// by nature; kept in its own section so virtual metrics stay comparable
  /// across hosts (and so perf-diff can hold host.* to looser thresholds).
  ///
  /// events_per_sec divides the network's executed events by the host time
  /// its simulator spent *inside the event loop* (Simulator::host_run_ns),
  /// not by the entry-to-entry wall lap. The wall lap conflates one-off
  /// setup — on fig5-size runs the initial MILP CAP solve used to be ~99%
  /// of it — and was garbage for the first entry (the lap started inside
  /// the first add() call), so the old figure measured the solver, not the
  /// event loop it claims to describe.
  static void append_host_section(std::ostringstream& entry,
                                  core::CurbNetwork* network) {
    const double wall_ms = instance().entry_wall_.lap_ms();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", wall_ms);
    entry << ",\"host\":{\"wall_ms\":" << buf;
    if (network != nullptr && network->simulator().host_run_ns() > 0) {
      const double events =
          static_cast<double>(network->simulator().events_executed());
      const double run_s =
          static_cast<double>(network->simulator().host_run_ns()) / 1e9;
      std::snprintf(buf, sizeof buf, "%.1f", events / run_s);
      entry << ",\"events_per_sec\":" << buf;
    }
    if (const prof::Profiler* profiler = prof::thread_profiler()) {
      auto& previous = instance().component_ns_;
      const std::map<std::string, std::uint64_t> current =
          profiler->exclusive_by_component();
      std::uint64_t delta_total = 0;
      std::map<std::string, std::uint64_t> delta;
      for (const auto& [component, ns] : current) {
        const auto it = previous.find(component);
        const std::uint64_t d = ns - (it != previous.end() ? it->second : 0);
        if (d > 0) delta[component] = d;
        delta_total += d;
      }
      if (delta_total > 0) {
        entry << ",\"components\":[";
        bool first = true;
        for (const auto& [component, ns] : delta) {
          std::snprintf(buf, sizeof buf, "%.2f",
                        100.0 * static_cast<double>(ns) /
                            static_cast<double>(delta_total));
          entry << (first ? "" : ",") << "{\"component\":\""
                << json::escape(component) << "\",\"share_pct\":" << buf << "}";
          first = false;
        }
        entry << "]";
      }
      previous = current;
    }
    entry << "}";
  }

  /// Memory section (only when the allocation accountant is latched on):
  /// bytes/allocations since the previous entry plus the peak live footprint
  /// over that interval (peaks reset per entry so each configuration reports
  /// its own high-water). allocs_per_event and bytes_per_committed_txn are
  /// normalized against *this* entry's network — benches build a fresh
  /// network per configuration, so its lifetime totals are the entry's.
  /// Machine-dependent like host.*: perf-diff holds memory.* to the looser
  /// warn-only thresholds.
  static void append_memory_section(std::ostringstream& entry,
                                    core::CurbNetwork* network) {
    if (!obs::res::enabled()) return;
    const obs::res::MemSnapshot snap = obs::res::snapshot();
    auto& prev = instance().mem_prev_;
    const std::uint64_t alloc_bytes = snap.total.alloc_bytes - prev.alloc_bytes;
    const std::uint64_t allocs = snap.total.allocs - prev.allocs;
    prev = snap.total;
    entry << ",\"memory\":{\"peak_live_bytes\":" << snap.total.peak_live_bytes
          << ",\"alloc_bytes\":" << alloc_bytes << ",\"allocs\":" << allocs;
    if (network != nullptr) {
      const auto events = network->simulator().events_executed();
      if (events > 0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2f",
                      static_cast<double>(allocs) / static_cast<double>(events));
        entry << ",\"allocs_per_event\":" << buf;
      }
      if (network->num_controllers() > 0 && network->controller(0).has_blockchain()) {
        const std::size_t txns =
            network->controller(0).blockchain().total_transactions();
        if (txns > 0) {
          char buf[64];
          std::snprintf(buf, sizeof buf, "%.1f",
                        static_cast<double>(alloc_bytes) /
                            static_cast<double>(txns));
          entry << ",\"bytes_per_committed_txn\":" << buf;
        }
      }
    }
    entry << "}";
    obs::res::reset_peaks();
  }

  /// Windowed-telemetry section: per-series summary over the retained ring
  /// (bounded by ts_retention, so entries stay small no matter how long the
  /// configuration ran). Full resolution lives in the CURB_TS_OUT JSONL.
  static void append_window_series(std::ostringstream& entry,
                                   const obs::TsCollector& ts) {
    entry << ",\"window_series\":{\"window_us\":" << ts.options().window.as_micros()
          << ",\"windows_closed\":" << ts.windows_closed()
          << ",\"retained\":" << ts.windows().size() << ",\"series\":{";
    // Per-series stats across retained windows (sorted: map iteration).
    struct Stats {
      const char* kind = "";
      std::size_t windows = 0;
      double sum = 0.0, max = 0.0, last = 0.0;
    };
    std::map<std::string, Stats> stats;
    for (const auto& window : ts.windows()) {
      for (const auto& [key, value] : window.series) {
        Stats& s = stats[key];
        s.kind = obs::to_string(value.kind);
        ++s.windows;
        const double v = value.kind == obs::TsValue::Kind::kHist ? value.p99
                                                                 : value.value;
        s.sum += v;
        s.max = s.windows == 1 ? v : std::max(s.max, v);
        s.last = v;
      }
    }
    bool first = true;
    for (const auto& [key, s] : stats) {
      entry << (first ? "" : ",") << "\"" << json::escape(key)
            << "\":{\"kind\":\"" << s.kind << "\",\"windows\":" << s.windows
            << ",\"mean\":" << json::number(s.sum / static_cast<double>(s.windows))
            << ",\"max\":" << json::number(s.max)
            << ",\"last\":" << json::number(s.last) << "}";
      first = false;
    }
    entry << "}}";
  }

  friend void warm_bench_results();

  friend int finish();

  BenchResults() = default;

  [[nodiscard]] bool write(const core::RunOutputs& outputs) const {
    if (entries_.empty()) return true;
    return core::write_artifact("bench", outputs.bench_out.value_or("BENCH_results.json"), [&](std::ostream& out) {
      out << "[\n";
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        out << entries_[i] << (i + 1 < entries_.size() ? ",\n" : "\n");
      }
      out << "]\n";
    });
  }

  static BenchResults& instance() {
    static BenchResults results;
    return results;
  }

  std::vector<std::string> entries_;
  prof::StopWatch entry_wall_;
  std::map<std::string, std::uint64_t> component_ns_;
  obs::res::TagCounters mem_prev_;
};

inline void warm_bench_results() { (void)BenchResults::instance(); }

/// Write whatever the CURB_* variables request from this network (see
/// core::write_run_outputs); a failed write makes finish() return 1. SLO
/// breaches are summarized on stderr but do not change the exit code: the
/// watchdog exit code belongs to curb-sim and curb-watch.
inline void export_obs_from_env(core::CurbNetwork& network) {
  BenchProcess& process = BenchProcess::get();
  if (!core::write_run_outputs(network, process.outputs, "bench")) process.failed = true;
}

/// End of a bench main: write BENCH_results.json and the process artifacts
/// (host profile, memory profile and flamegraph). Returns the exit code, 1
/// when any artifact of the run could not be written.
inline int finish() {
  BenchProcess& process = BenchProcess::get();
  if (!BenchResults::instance().write(process.outputs)) process.failed = true;
  if (!core::write_run_outputs(process.profiler, process.wall.elapsed_ms() / 1000.0,
                               process.outputs, "bench")) {
    process.failed = true;
  }
  return process.failed ? core::kExitFinding : core::kExitOk;
}

}  // namespace curb::bench
