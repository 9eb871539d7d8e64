#pragma once

#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/metrics.hpp"
#include "curb/obs/trace.hpp"

namespace curb::obs {

/// One span object per line: {"id":..,"parent":..,"name":"..","track":"..",
/// "start_us":..,"end_us":..,"open":..,"attrs":{..}}. Machine-diffable and
/// trivially streamable into the benchmark trajectory tooling.
void write_spans_jsonl(const Tracer& tracer, std::ostream& out);

/// Parse a JSONL span dump back (round-trip of write_spans_jsonl). Throws
/// std::runtime_error on malformed input: each line must be a JSON object
/// with only the writer's keys, each of the writer's type, integer fields
/// integral and of magnitude below 2^53.
[[nodiscard]] std::vector<SpanRecord> parse_spans_jsonl(std::istream& in);

/// Chrome trace_event JSON ("X" complete events + thread-name metadata),
/// loadable in chrome://tracing and Perfetto. One tid per tracer track,
/// timestamps in virtual microseconds. Spans still open at export time are
/// clamped to the latest timestamp seen and tagged args.open = "true".
void write_chrome_trace(const Tracer& tracer, std::ostream& out);

/// As above, plus one "C" (counter) event per counter/gauge series of the
/// registry at the trace-end timestamp, so final values render as counter
/// tracks alongside the spans. `registry` may be null.
void write_chrome_trace(const Tracer& tracer, const MetricsRegistry* registry,
                        std::ostream& out);

/// Full registry snapshot: counters/gauges with values, histograms with
/// count/sum/min/max/mean, interpolated p50/p90/p99, and non-empty buckets.
void write_metrics_json(const MetricsRegistry& registry, std::ostream& out);

/// Flat CSV (series,kind,count,sum,min,max,mean,p50,p90,p99,value) for
/// spreadsheet-style diffing of bench runs.
void write_metrics_csv(const MetricsRegistry& registry, std::ostream& out);

/// The one place an artifact file is opened: binary, truncated.
[[nodiscard]] std::ofstream open_output(const std::string& path);

/// Open `path`, run `write` on it and close it. False when the file cannot be
/// opened or a write fails; the caller names the path in its diagnostic.
[[nodiscard]] bool write_file(const std::string& path,
                              const std::function<void(std::ostream&)>& write);

}  // namespace curb::obs
