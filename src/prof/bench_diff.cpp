#include "curb/prof/bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "curb/json/json.hpp"

namespace curb::prof {

namespace {

/// Name an array element for flattening: phases/components arrays carry a
/// string key naming the element; fall back to the index.
std::string element_name(const json::Value& element, std::size_t index) {
  if (element.type == json::Value::Type::kObject) {
    for (const char* key : {"phase", "component", "name"}) {
      if (const json::Value* name = element.find(key);
          name != nullptr && name->type == json::Value::Type::kString) {
        return name->str;
      }
    }
  }
  return std::to_string(index);
}

void flatten_numbers(const json::Value& value, const std::string& prefix,
                     std::map<std::string, double>& out) {
  switch (value.type) {
    case json::Value::Type::kNumber: out[prefix] = value.number; break;
    case json::Value::Type::kObject:
      for (const auto& [key, member] : value.object) {
        if (key == "phase" || key == "component" || key == "name") continue;
        flatten_numbers(member, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case json::Value::Type::kArray:
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        const std::string name = element_name(value.array[i], i);
        flatten_numbers(value.array[i], prefix.empty() ? name : prefix + "." + name,
                        out);
      }
      break;
    default: break;  // strings/bools/nulls are not comparable metrics
  }
}

}  // namespace

std::string BenchEntry::key() const {
  std::string out = bench;
  for (const auto& [k, v] : params) out += " " + k + "=" + v;
  return out;
}

std::vector<BenchEntry> parse_bench_json(std::istream& in) {
  const json::Value root = json::parse(in);
  if (root.type != json::Value::Type::kArray) {
    throw std::runtime_error{"bench json: expected a top-level array"};
  }
  std::vector<BenchEntry> entries;
  for (const json::Value& element : root.array) {
    if (element.type != json::Value::Type::kObject) {
      throw std::runtime_error{"bench json: expected entry objects"};
    }
    BenchEntry entry;
    if (const json::Value* bench = element.find("bench");
        bench != nullptr && bench->type == json::Value::Type::kString) {
      entry.bench = bench->str;
    } else {
      throw std::runtime_error{"bench json: entry without \"bench\" name"};
    }
    if (const json::Value* params = element.find("params");
        params != nullptr && params->type == json::Value::Type::kObject) {
      for (const auto& [k, v] : params->object) {
        entry.params.emplace_back(
            k, v.type == json::Value::Type::kString ? v.str : std::string{});
      }
    }
    for (const auto& [key, member] : element.object) {
      if (key == "bench" || key == "params") continue;
      flatten_numbers(member, key, entry.values);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

bool higher_is_better(const std::string& metric) {
  const std::size_t dot = metric.rfind('.');
  const std::string leaf = dot == std::string::npos ? metric : metric.substr(dot + 1);
  return leaf.find("tps") != std::string::npos ||
         leaf.find("throughput") != std::string::npos ||
         leaf.find("events_per_sec") != std::string::npos;
}

namespace {

std::size_t count_status(const PerfDiffResult& diff, MetricDelta::Status status) {
  return static_cast<std::size_t>(
      std::count_if(diff.deltas.begin(), diff.deltas.end(),
                    [status](const MetricDelta& d) { return d.status == status; }));
}

}  // namespace

std::size_t PerfDiffResult::regressions() const {
  return count_status(*this, MetricDelta::Status::kRegressed);
}

std::size_t PerfDiffResult::warnings() const {
  return count_status(*this, MetricDelta::Status::kWarned);
}

std::size_t PerfDiffResult::improvements() const {
  return count_status(*this, MetricDelta::Status::kImproved);
}

PerfDiffResult perf_diff(const std::vector<BenchEntry>& base,
                         const std::vector<BenchEntry>& candidate,
                         const PerfDiffOptions& options) {
  PerfDiffResult result;
  std::map<std::string, const BenchEntry*> candidates;
  for (const BenchEntry& entry : candidate) candidates[entry.key()] = &entry;
  std::map<std::string, bool> matched;
  for (const auto& [key, entry] : candidates) matched[key] = false;

  for (const BenchEntry& b : base) {
    const auto it = candidates.find(b.key());
    if (it == candidates.end()) {
      result.only_base.push_back(b.key());
      continue;
    }
    matched[b.key()] = true;
    ++result.entries_compared;
    for (const auto& [metric, base_value] : b.values) {
      const auto cit = it->second->values.find(metric);
      if (cit == it->second->values.end()) continue;
      ++result.metrics_compared;
      const double cand_value = cit->second;
      const double abs_delta = std::abs(cand_value - base_value);
      if (abs_delta <= options.floor) continue;
      const double denom = base_value != 0.0 ? std::abs(base_value) : 1.0;
      const double delta_pct = 100.0 * (cand_value - base_value) / denom;
      // Host and memory sections measure the machine / allocator behaviour of
      // the build that produced the file, not the protocol — they compare
      // against their own (looser) threshold and never hard-fail. The
      // msg_complexity audit is warn-only too: its hard gate is the
      // within_bound verdict (curb-trace complexity exit code), not a
      // percentage drift in message counts.
      const bool advisory = metric.rfind("host.", 0) == 0 ||
                            metric.rfind("memory.", 0) == 0 ||
                            metric.rfind("msg_complexity.", 0) == 0;
      const double threshold =
          advisory ? options.host_threshold_pct : options.threshold_pct;
      if (std::abs(delta_pct) <= threshold) continue;
      const bool worse = higher_is_better(metric) ? delta_pct < 0.0 : delta_pct > 0.0;
      MetricDelta delta;
      delta.entry = b.key();
      delta.metric = metric;
      delta.base = base_value;
      delta.candidate = cand_value;
      delta.delta_pct = delta_pct;
      delta.status = !worse                            ? MetricDelta::Status::kImproved
                     : (advisory || options.warn_only) ? MetricDelta::Status::kWarned
                                                       : MetricDelta::Status::kRegressed;
      result.deltas.push_back(std::move(delta));
    }
  }
  for (const auto& [key, was_matched] : matched) {
    if (!was_matched) result.only_candidate.push_back(key);
  }
  return result;
}

namespace {

const char* status_name(MetricDelta::Status status) {
  switch (status) {
    case MetricDelta::Status::kRegressed: return "REGRESSED";
    case MetricDelta::Status::kWarned: return "warn";
    case MetricDelta::Status::kImproved: return "improved";
  }
  return "?";
}

}  // namespace

void write_perf_diff_text(const PerfDiffResult& diff, std::ostream& out) {
  out << "perf-diff: " << diff.entries_compared << " entries, "
      << diff.metrics_compared << " metrics compared\n";
  for (const std::string& key : diff.only_base) {
    out << "  note: only in baseline:  " << key << "\n";
  }
  for (const std::string& key : diff.only_candidate) {
    out << "  note: only in candidate: " << key << "\n";
  }
  char buf[96];
  for (const MetricDelta& d : diff.deltas) {
    std::snprintf(buf, sizeof buf, "%+.1f%% (%.3f -> %.3f)", d.delta_pct, d.base,
                  d.candidate);
    out << "  " << status_name(d.status) << "  " << d.entry << "  " << d.metric << "  "
        << buf << "\n";
  }
  out << "regressions: " << diff.regressions() << ", warnings: " << diff.warnings()
      << ", improvements: " << diff.improvements() << "\n";
}

void write_perf_diff_json(const PerfDiffResult& diff, std::ostream& out) {
  out << "{\"entries_compared\":" << diff.entries_compared
      << ",\"metrics_compared\":" << diff.metrics_compared
      << ",\"regressions\":" << diff.regressions()
      << ",\"warnings\":" << diff.warnings()
      << ",\"improvements\":" << diff.improvements() << ",\"only_base\":[";
  for (std::size_t i = 0; i < diff.only_base.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << json::escape(diff.only_base[i]) << "\"";
  }
  out << "],\"only_candidate\":[";
  for (std::size_t i = 0; i < diff.only_candidate.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << json::escape(diff.only_candidate[i]) << "\"";
  }
  out << "],\"deltas\":[";
  char buf[64];
  for (std::size_t i = 0; i < diff.deltas.size(); ++i) {
    const MetricDelta& d = diff.deltas[i];
    if (i > 0) out << ",";
    out << "{\"entry\":\"" << json::escape(d.entry) << "\",\"metric\":\""
        << json::escape(d.metric) << "\",\"status\":\"" << status_name(d.status)
        << "\",\"base\":";
    std::snprintf(buf, sizeof buf, "%.6g", d.base);
    out << buf << ",\"candidate\":";
    std::snprintf(buf, sizeof buf, "%.6g", d.candidate);
    out << buf << ",\"delta_pct\":";
    std::snprintf(buf, sizeof buf, "%.3f", d.delta_pct);
    out << buf << "}";
  }
  out << "]}\n";
}

}  // namespace curb::prof
