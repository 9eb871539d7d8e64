#include "curb/obs/timeseries.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "curb/json/json.hpp"

namespace curb::obs {

namespace {

/// Per-window percentile from histogram bucket-count deltas, interpolated
/// inside the containing bucket. The window has no exact min/max, so the
/// lowest bucket starts at 0 and the overflow bucket is clamped to the
/// run-cumulative max (the only bound the registry still knows).
double window_percentile(const Histogram& h, const std::vector<std::uint64_t>& delta,
                         std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    const auto before = static_cast<double>(seen);
    seen += delta[i];
    if (static_cast<double>(seen) < rank) continue;
    const double lo = i == 0 ? 0.0 : h.upper_bound(i - 1);
    const bool overflow = i + 1 == delta.size();
    const double hi = overflow ? std::max(lo, h.max()) : h.upper_bound(i);
    const double frac = (rank - before) / static_cast<double>(delta[i]);
    return lo + frac * (hi - lo);
  }
  return h.max();
}

}  // namespace

const char* to_string(TsValue::Kind kind) {
  switch (kind) {
    case TsValue::Kind::kRate: return "rate";
    case TsValue::Kind::kGauge: return "gauge";
    case TsValue::Kind::kHist: return "hist";
  }
  return "?";
}

const TsValue* TsWindow::find(const std::string& key) const {
  const auto it = std::lower_bound(
      series.begin(), series.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == series.end() || it->first != key) return nullptr;
  return &it->second;
}

TsCollector::TsCollector(Observatory& obs, sim::Simulator& sim, TsOptions opts)
    : obs_{obs}, sim_{sim}, opts_{opts} {
  if (opts_.window <= sim::SimTime::zero()) {
    throw std::invalid_argument{"TsCollector: window width must be positive"};
  }
  if (opts_.retention == 0) {
    throw std::invalid_argument{"TsCollector: retention must be >= 1"};
  }
}

TsCollector::~TsCollector() { finalize(); }

void TsCollector::set_presample_hook(std::function<void()> hook) {
  presample_ = std::move(hook);
}

void TsCollector::set_window_callback(WindowCallback cb) { on_window_ = std::move(cb); }

bool TsCollector::set_output(const std::string& path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  streaming_ = static_cast<bool>(out_);
  return streaming_;
}

void TsCollector::start() {
  if (started_) return;
  started_ = true;
  window_start_ = sim_.now();
  tick_ = sim_.schedule(opts_.window, [this] { on_tick(); });
}

void TsCollector::on_tick() {
  close_window(window_start_ + opts_.window, /*partial=*/false);
  tick_ = sim_.schedule(opts_.window, [this] { on_tick(); });
}

void TsCollector::finalize() {
  if (!started_ || finalized_) return;
  finalized_ = true;
  sim_.cancel(tick_);
  // Close the trailing partial window. A zero-length window can still carry
  // data: an event at exactly the last boundary may run after that
  // boundary's tick (insertion order) and record into the registry — only
  // skip the close when nothing moved since the last one.
  if (sim_.now() > window_start_ ||
      (sim_.now() == window_start_ && has_unsampled_deltas())) {
    close_window(sim_.now(), /*partial=*/true);
  }
  if (streaming_) {
    out_.flush();
    out_.close();
    streaming_ = false;
  }
}

bool TsCollector::has_unsampled_deltas() const {
  for (const auto& [key, metric] : obs_.metrics.metrics()) {
    const auto it = last_.find(key);
    switch (metric.kind) {
      case MetricsRegistry::Kind::kCounter:
        if (static_cast<double>(metric.counter->value()) !=
            (it != last_.end() ? it->second.value : 0.0)) {
          return true;
        }
        break;
      case MetricsRegistry::Kind::kGauge:
        break;  // levels resample identically; no new information
      case MetricsRegistry::Kind::kHistogram:
        if (metric.histogram->count() !=
            (it != last_.end() ? it->second.count : 0)) {
          return true;
        }
        break;
    }
  }
  return false;
}

void TsCollector::close_window(sim::SimTime end, bool partial) {
  if (presample_) presample_();

  TsWindow window;
  window.index = next_index_;
  window.start = window_start_;
  window.end = end;
  window.partial = partial;

  // Registry iteration is sorted by series key, so window.series is too —
  // which keeps the JSONL byte-stable and makes TsWindow::find a bisect.
  for (const auto& [key, metric] : obs_.metrics.metrics()) {
    Cumulative& prev = last_[key];
    switch (metric.kind) {
      case MetricsRegistry::Kind::kCounter: {
        const auto now = static_cast<double>(metric.counter->value());
        const double delta = now - prev.value;
        prev.value = now;
        if (delta != 0.0) {
          TsValue v;
          v.kind = TsValue::Kind::kRate;
          v.value = delta;
          window.series.emplace_back(key, v);
        }
        break;
      }
      case MetricsRegistry::Kind::kGauge: {
        // Sampled every window: a level is meaningful even when unchanged.
        TsValue v;
        v.kind = TsValue::Kind::kGauge;
        v.value = metric.gauge->value();
        prev.value = v.value;
        window.series.emplace_back(key, v);
        break;
      }
      case MetricsRegistry::Kind::kHistogram: {
        const Histogram& h = *metric.histogram;
        const std::uint64_t dcount = h.count() - prev.count;
        if (prev.buckets.size() != h.bucket_count()) {
          prev.buckets.assign(h.bucket_count(), 0);
        }
        if (dcount > 0) {
          std::vector<std::uint64_t> delta(h.bucket_count());
          for (std::size_t i = 0; i < h.bucket_count(); ++i) {
            delta[i] = h.count_at(i) - prev.buckets[i];
          }
          TsValue v;
          v.kind = TsValue::Kind::kHist;
          v.count = dcount;
          v.sum = h.sum() - prev.sum;
          v.p50 = window_percentile(h, delta, dcount, 50.0);
          v.p90 = window_percentile(h, delta, dcount, 90.0);
          v.p99 = window_percentile(h, delta, dcount, 99.0);
          window.series.emplace_back(key, v);
        }
        prev.count = h.count();
        prev.sum = h.sum();
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          prev.buckets[i] = h.count_at(i);
        }
        break;
      }
    }
  }

  windows_.push_back(std::move(window));
  ++windows_closed_;
  window_start_ = end;
  ++next_index_;

  if (streaming_) {
    write_ts_window_json(windows_.back(), out_);
    out_ << "\n";
    out_.flush();  // live tailing (curb-watch --follow) sees whole lines
  }
  if (on_window_) on_window_(*this, windows_.back());
  while (windows_.size() > opts_.retention) windows_.pop_front();
}

void write_ts_window_json(const TsWindow& window, std::ostream& out) {
  out << "{\"w\":" << window.index << ",\"start_us\":" << window.start.as_micros()
      << ",\"end_us\":" << window.end.as_micros()
      << ",\"partial\":" << (window.partial ? "true" : "false") << ",\"series\":{";
  bool first = true;
  for (const auto& [key, v] : window.series) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json::escape(key) << "\":{\"kind\":\"" << to_string(v.kind) << "\"";
    switch (v.kind) {
      case TsValue::Kind::kRate:
      case TsValue::Kind::kGauge:
        out << ",\"value\":" << json::number(v.value);
        break;
      case TsValue::Kind::kHist:
        out << ",\"count\":" << v.count << ",\"sum\":" << json::number(v.sum)
            << ",\"p50\":" << json::number(v.p50) << ",\"p90\":" << json::number(v.p90)
            << ",\"p99\":" << json::number(v.p99);
        break;
    }
    out << "}";
  }
  out << "}}";
}

namespace {

TsValue decode_ts_value(const json::Value& object) {
  TsValue v;
  for (const auto& [key, value] : object.as_object()) {
    if (key == "kind") {
      const std::string& kind = value.as_string();
      if (kind == "rate") v.kind = TsValue::Kind::kRate;
      else if (kind == "gauge") v.kind = TsValue::Kind::kGauge;
      else if (kind == "hist") v.kind = TsValue::Kind::kHist;
      else throw std::runtime_error{"unknown kind " + kind};
    } else if (key == "value") v.value = value.as_number();
    else if (key == "count") v.count = value.as_uint();
    else if (key == "sum") v.sum = value.as_number();
    else if (key == "p50") v.p50 = value.as_number();
    else if (key == "p90") v.p90 = value.as_number();
    else if (key == "p99") v.p99 = value.as_number();
    else throw std::runtime_error{"unknown value key " + key};
  }
  return v;
}

TsWindow decode_ts_window(const json::Value& line) {
  TsWindow window;
  for (const auto& [key, value] : line.as_object()) {
    if (key == "w") window.index = value.as_uint();
    else if (key == "start_us") window.start = sim::SimTime::micros(value.as_int());
    else if (key == "end_us") window.end = sim::SimTime::micros(value.as_int());
    else if (key == "partial") window.partial = value.as_bool();
    else if (key == "series") {
      window.series.clear();
      for (const auto& [series, v] : value.as_object()) {
        window.series.emplace_back(series, decode_ts_value(v));
      }
    } else throw std::runtime_error{"unknown key " + key};
  }
  return window;
}

}  // namespace

std::vector<TsWindow> parse_ts_jsonl(std::istream& in) {
  std::vector<TsWindow> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // A live producer may have been caught mid-line; only complete objects
    // (closed by '}') are parsed, anything else is a hard error unless it
    // is the trailing partial line.
    if (line.back() != '}') {
      if (in.peek() == std::istream::traits_type::eof()) break;
      throw std::runtime_error{"parse_ts_jsonl: malformed line"};
    }
    try {
      out.push_back(decode_ts_window(json::parse(line)));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error{std::string{"parse_ts_jsonl: "} + e.what()};
    }
  }
  return out;
}

}  // namespace curb::obs
