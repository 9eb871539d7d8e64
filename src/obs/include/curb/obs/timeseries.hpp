#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "curb/obs/observatory.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::obs {

/// Windowed time-series telemetry over the metrics registry.
///
/// Every observability layer so far is end-of-run: the registry accumulates
/// for the whole run and is exported once. TsCollector makes the same data
/// observable *while* a run executes and keeps memory bounded: it samples
/// the cumulative registry at fixed virtual-time window boundaries and
/// stores per-window deltas — counter rates, gauge samples, per-window
/// histogram stats (count/sum/percentiles from bucket-count deltas) — in a
/// ring buffer of `retention` windows, optionally streaming each closed
/// window as one JSONL line. Nothing is added to any hot path: existing
/// instrumentation keeps feeding the registry and the collector reads it
/// O(series) once per window.
///
/// Determinism: window closes are ordinary simulator events whose callbacks
/// only read protocol state, so enabling the collector cannot change a
/// run's protocol outputs — same-seed runs stay byte-identical with
/// telemetry on, and the telemetry itself is byte-identical across
/// same-seed runs.
struct TsOptions {
  /// Window width in virtual time. Windows are aligned to the collector's
  /// start time: window k covers [start + k*width, start + (k+1)*width).
  sim::SimTime window = sim::SimTime::millis(100);
  /// Closed windows retained in memory. Older windows are evicted after
  /// the per-window callback ran (and the JSONL line, if streaming, was
  /// written), so memory is O(retention * series) regardless of run length.
  std::size_t retention = 64;
};

/// One sampled series value inside a closed window.
struct TsValue {
  enum class Kind : std::uint8_t {
    kRate,   ///< counter delta over the window
    kGauge,  ///< gauge value sampled at window close
    kHist,   ///< histogram delta: per-window count/sum/percentiles
  };
  Kind kind = Kind::kRate;
  /// kRate: counted increments; kGauge: sampled value; kHist: unused.
  double value = 0.0;
  // kHist only:
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  bool operator==(const TsValue&) const = default;
};

[[nodiscard]] const char* to_string(TsValue::Kind kind);

/// One closed window: counters that moved, histograms that recorded, and
/// every gauge (sampled each window so level series are always present).
struct TsWindow {
  std::uint64_t index = 0;
  sim::SimTime start;
  sim::SimTime end;
  /// True for the trailing window closed early by finalize().
  bool partial = false;
  /// Sorted by series key (registry iteration order).
  std::vector<std::pair<std::string, TsValue>> series;

  /// Value for a series key, or nullptr when it did not move this window.
  [[nodiscard]] const TsValue* find(const std::string& key) const;
};

class TsCollector {
 public:
  /// The collector samples `obs.metrics` on `sim`'s clock. Both must
  /// outlive the collector.
  TsCollector(Observatory& obs, sim::Simulator& sim, TsOptions opts);
  ~TsCollector();
  TsCollector(const TsCollector&) = delete;
  TsCollector& operator=(const TsCollector&) = delete;

  /// Run before each sampling pass — the owner pushes values the registry
  /// cannot pull itself (e.g. simulator counters, which live below obs).
  void set_presample_hook(std::function<void()> hook);

  /// Called after each window closes, before retention eviction, with the
  /// full retained ring (newest window = windows().back()). The SLO engine
  /// hangs off this.
  using WindowCallback = std::function<void(const TsCollector&, const TsWindow&)>;
  void set_window_callback(WindowCallback cb);

  /// Stream closed windows to `path` as JSONL (one line per window,
  /// written at window close so a live run can be tailed). Returns false
  /// when the file cannot be opened.
  [[nodiscard]] bool set_output(const std::string& path);

  /// Schedule the first window close at now + width and start ticking.
  void start();
  [[nodiscard]] bool started() const { return started_; }

  /// Close the current partial window (if any virtual time elapsed in it),
  /// stop ticking, and flush/close the output stream. Idempotent; also run
  /// by the destructor so aborted runs still flush.
  void finalize();

  [[nodiscard]] const TsOptions& options() const { return opts_; }
  [[nodiscard]] const std::deque<TsWindow>& windows() const { return windows_; }
  /// Total windows closed over the collector's lifetime (>= windows().size()).
  [[nodiscard]] std::uint64_t windows_closed() const { return windows_closed_; }

 private:
  void on_tick();
  void close_window(sim::SimTime end, bool partial);
  /// True when a counter or histogram moved since the last window close
  /// (finalize uses this to keep boundary-time samples).
  [[nodiscard]] bool has_unsampled_deltas() const;

  Observatory& obs_;
  sim::Simulator& sim_;
  TsOptions opts_;

  /// Per-series cumulative snapshot from the previous window close.
  struct Cumulative {
    double value = 0.0;                   // counter value / last gauge
    std::uint64_t count = 0;              // histogram count
    double sum = 0.0;                     // histogram sum
    std::vector<std::uint64_t> buckets;   // histogram bucket counts
  };
  std::map<std::string, Cumulative> last_;

  std::deque<TsWindow> windows_;
  std::uint64_t windows_closed_ = 0;
  sim::SimTime window_start_;
  std::uint64_t next_index_ = 0;
  sim::EventHandle tick_;
  bool started_ = false;
  bool finalized_ = false;

  std::ofstream out_;
  bool streaming_ = false;

  std::function<void()> presample_;
  WindowCallback on_window_;
};

/// One window as one JSON object:
/// {"w":0,"start_us":0,"end_us":100000,"partial":false,"series":{
///   "core.rounds":{"kind":"rate","value":1},
///   "net.delay_us{category=\"REPLY\"}":{"kind":"hist","count":12,
///     "sum":34567,"p50":..,"p90":..,"p99":..},
///   "sim.now_us":{"kind":"gauge","value":100000}}}
void write_ts_window_json(const TsWindow& window, std::ostream& out);

/// Parse a telemetry JSONL dump back (round-trip of the streaming writer).
/// Throws std::runtime_error on malformed input: each line must be a JSON
/// object with only the writer's keys, each of the writer's type, integer
/// fields integral and of magnitude below 2^53. Incomplete trailing lines
/// (a live file mid-write) are ignored, which is what lets curb-watch tail a
/// running sim.
[[nodiscard]] std::vector<TsWindow> parse_ts_jsonl(std::istream& in);

}  // namespace curb::obs
