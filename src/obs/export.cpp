#include "curb/obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

#include "curb/json/json.hpp"

namespace curb::obs {

namespace {

/// A flat string-to-string JSON object (span attrs, metric labels).
void write_string_map(std::ostream& out,
                      const std::vector<std::pair<std::string, std::string>>& map) {
  out << "{";
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json::escape(map[i].first) << "\":\"" << json::escape(map[i].second)
        << "\"";
  }
  out << "}";
}

template <typename WriteFn>
bool export_to_file(const std::string& path, WriteFn write) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  write(out);
  return static_cast<bool>(out);
}

}  // namespace

void write_spans_jsonl(const Tracer& tracer, std::ostream& out) {
  for (const SpanRecord& s : tracer.spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << json::escape(s.name) << "\",\"track\":\"" << json::escape(s.track)
        << "\",\"start_us\":" << s.start.as_micros() << ",\"end_us\":" << s.end.as_micros()
        << ",\"open\":" << (s.open ? "true" : "false") << ",\"attrs\":";
    write_string_map(out, s.attrs);
    out << "}\n";
  }
}

namespace {

Attrs decode_attrs(const json::Value& object) {
  Attrs attrs;
  for (const auto& [key, value] : object.as_object()) {
    attrs.emplace_back(key, value.as_string());
  }
  return attrs;
}

SpanRecord decode_span(const json::Value& line) {
  SpanRecord record;
  for (const auto& [key, value] : line.as_object()) {
    if (key == "id") record.id = value.as_uint();
    else if (key == "parent") record.parent = value.as_uint();
    else if (key == "name") record.name = value.as_string();
    else if (key == "track") record.track = value.as_string();
    else if (key == "start_us") record.start = sim::SimTime::micros(value.as_int());
    else if (key == "end_us") record.end = sim::SimTime::micros(value.as_int());
    else if (key == "open") record.open = value.as_bool();
    else if (key == "attrs") record.attrs = decode_attrs(value);
    else throw std::runtime_error{"unknown key " + key};
  }
  return record;
}

}  // namespace

std::vector<SpanRecord> parse_spans_jsonl(std::istream& in) {
  std::vector<SpanRecord> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      spans.push_back(decode_span(json::parse(line)));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error{std::string{"parse_spans_jsonl: "} + e.what()};
    }
  }
  return spans;
}

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  write_chrome_trace(tracer, nullptr, out);
}

void write_chrome_trace(const Tracer& tracer, const MetricsRegistry* registry,
                        std::ostream& out) {
  // tid per track, in first-use order; clamp open spans to the trace end.
  sim::SimTime last = sim::SimTime::zero();
  for (const SpanRecord& s : tracer.spans()) {
    last = std::max(last, std::max(s.start, s.end));
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto& tracks = tracer.tracks();
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"curb\"}}";
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    out << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json::escape(tracks[t])
        << "\"}}";
  }
  first = false;
  std::map<std::string, std::size_t> tids;
  for (std::size_t t = 0; t < tracks.size(); ++t) tids.emplace(tracks[t], t);
  for (const SpanRecord& s : tracer.spans()) {
    const std::size_t tid = tids.at(s.track);
    const sim::SimTime end = s.open ? last : s.end;
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"name\":\""
        << json::escape(s.name) << "\",\"cat\":\"curb\",\"ts\":" << s.start.as_micros()
        << ",\"dur\":" << (end - s.start).as_micros() << ",\"args\":{\"span_id\":\""
        << s.id << "\"";
    if (s.open) out << ",\"open\":\"true\"";
    for (const auto& [k, v] : s.attrs) {
      out << ",\"" << json::escape(k) << "\":\"" << json::escape(v) << "\"";
    }
    out << "}}";
  }
  if (registry != nullptr) {
    // Counter/gauge series as "C" events at the trace-end timestamp: the
    // registry snapshots final values (not time series), so each renders as
    // a one-sample counter track next to the spans.
    for (const auto& [key, m] : registry->metrics()) {
      std::string value;
      switch (m.kind) {
        case MetricsRegistry::Kind::kCounter:
          value = std::to_string(m.counter->value());
          break;
        case MetricsRegistry::Kind::kGauge:
          value = json::number(m.gauge->value());
          break;
        case MetricsRegistry::Kind::kHistogram:
          continue;  // histograms already export via write_metrics_json
      }
      if (!first) out << ",";
      first = false;
      out << "{\"ph\":\"C\",\"pid\":0,\"name\":\"" << json::escape(key)
          << "\",\"ts\":" << last.as_micros() << ",\"args\":{\"value\":" << value
          << "}}";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void write_metrics_json(const MetricsRegistry& registry, std::ostream& out) {
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, m] : registry.metrics()) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"series\":\"" << json::escape(key) << "\",\"name\":\""
        << json::escape(m.name) << "\",\"labels\":";
    write_string_map(out, m.labels);
    switch (m.kind) {
      case MetricsRegistry::Kind::kCounter:
        out << ",\"kind\":\"counter\",\"value\":" << m.counter->value();
        break;
      case MetricsRegistry::Kind::kGauge:
        out << ",\"kind\":\"gauge\",\"value\":" << json::number(m.gauge->value());
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        out << ",\"kind\":\"histogram\",\"count\":" << h.count()
            << ",\"sum\":" << json::number(h.sum()) << ",\"min\":" << json::number(h.min())
            << ",\"max\":" << json::number(h.max())
            << ",\"mean\":" << json::number(h.mean())
            << ",\"p50\":" << json::number(h.percentile(50))
            << ",\"p90\":" << json::number(h.percentile(90))
            << ",\"p99\":" << json::number(h.percentile(99)) << ",\"buckets\":[";
        bool first_bucket = true;
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          if (h.count_at(i) == 0) continue;
          if (!first_bucket) out << ",";
          first_bucket = false;
          out << "{\"le\":";
          if (i + 1 == h.bucket_count()) {
            out << "\"+inf\"";
          } else {
            out << json::number(h.upper_bound(i));
          }
          out << ",\"count\":" << h.count_at(i) << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "\n]}\n";
}

void write_metrics_csv(const MetricsRegistry& registry, std::ostream& out) {
  out << "series,kind,count,sum,min,max,mean,p50,p90,p99,value\n";
  for (const auto& [key, m] : registry.metrics()) {
    // RFC 4180: quotes inside a quoted field are doubled (label values carry
    // literal quotes, e.g. net.delay_us{category="AGREE"}).
    out << '"';
    for (const char c : key) {
      if (c == '"') out << '"';
      out << c;
    }
    out << "\",";
    switch (m.kind) {
      case MetricsRegistry::Kind::kCounter:
        out << "counter,,,,,,,,," << m.counter->value() << "\n";
        break;
      case MetricsRegistry::Kind::kGauge:
        out << "gauge,,,,,,,,," << json::number(m.gauge->value()) << "\n";
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        out << "histogram," << h.count() << "," << json::number(h.sum()) << ","
            << json::number(h.min()) << "," << json::number(h.max()) << ","
            << json::number(h.mean()) << "," << json::number(h.percentile(50)) << ","
            << json::number(h.percentile(90)) << "," << json::number(h.percentile(99))
            << ",\n";
        break;
      }
    }
  }
}

bool export_spans_jsonl(const Tracer& tracer, const std::string& path) {
  return export_to_file(path, [&](std::ostream& out) { write_spans_jsonl(tracer, out); });
}

bool export_chrome_trace(const Tracer& tracer, const std::string& path) {
  return export_to_file(path, [&](std::ostream& out) { write_chrome_trace(tracer, out); });
}

bool export_chrome_trace(const Tracer& tracer, const MetricsRegistry* registry,
                         const std::string& path) {
  return export_to_file(
      path, [&](std::ostream& out) { write_chrome_trace(tracer, registry, out); });
}

bool export_metrics_json(const MetricsRegistry& registry, const std::string& path) {
  return export_to_file(path,
                        [&](std::ostream& out) { write_metrics_json(registry, out); });
}

bool export_metrics_csv(const MetricsRegistry& registry, const std::string& path) {
  return export_to_file(path,
                        [&](std::ostream& out) { write_metrics_csv(registry, out); });
}

}  // namespace curb::obs
