#include "curb/obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>

#include "curb/json/json.hpp"

namespace curb::obs {

namespace {

/// Fixed three-decimal formatting: deterministic across platforms, unlike
/// ostream double insertion with locale-dependent state.
std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string fixed1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

double share_pct(std::int64_t part, std::int64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

void write_finding_json(const Finding& f, std::ostream& out) {
  out << "{\"detector\":\"" << json::escape(f.detector) << "\",\"severity\":\""
      << to_string(f.severity) << "\",\"at_us\":" << f.at_us << ",\"track\":\""
      << json::escape(f.track) << "\",\"spans\":[";
  for (std::size_t i = 0; i < f.spans.size(); ++i) {
    if (i != 0) out << ",";
    out << f.spans[i];
  }
  out << "],\"message\":\"" << json::escape(f.message) << "\"}";
}

void write_txn_json(const TransactionTrace& txn, std::ostream& out) {
  out << "{\"switch\":" << txn.switch_id << ",\"request\":" << txn.request_id
      << ",\"kind\":\"" << json::escape(txn.kind) << "\",\"root_span\":" << txn.root_span
      << ",\"start_us\":" << txn.start_us << ",\"end_us\":" << txn.end_us
      << ",\"latency_us\":" << txn.latency_us()
      << ",\"complete\":" << (txn.complete ? "true" : "false");
  if (txn.has_instance) out << ",\"group\":" << txn.instance;
  out << ",\"overlap_us\":" << txn.overlap_us << ",\"segments\":[";
  for (std::size_t i = 0; i < txn.segments.size(); ++i) {
    const Segment& seg = txn.segments[i];
    if (i != 0) out << ",";
    out << "{\"phase\":\"" << to_string(seg.phase) << "\",\"start_us\":" << seg.start_us
        << ",\"end_us\":" << seg.end_us << ",\"duration_us\":" << seg.duration_us()
        << ",\"share_pct\":" << fixed3(share_pct(seg.duration_us(), txn.latency_us()))
        << ",\"span\":" << seg.span_id << "}";
  }
  out << "]}";
}

/// Complete transactions, slowest first (ties: root span id), capped.
std::vector<const TransactionTrace*> slowest_complete(const TraceAnalysis& analysis,
                                                      std::size_t limit) {
  std::vector<const TransactionTrace*> txns;
  for (const TransactionTrace& txn : analysis.transactions()) {
    if (txn.complete) txns.push_back(&txn);
  }
  std::sort(txns.begin(), txns.end(),
            [](const TransactionTrace* a, const TransactionTrace* b) {
              if (a->latency_us() != b->latency_us()) {
                return a->latency_us() > b->latency_us();
              }
              return a->root_span < b->root_span;
            });
  if (limit != 0 && txns.size() > limit) txns.resize(limit);
  return txns;
}

}  // namespace

void write_latency_stats_json(const LatencyStats& s, std::ostream& out) {
  out << "{\"count\":" << s.count << ",\"sum_us\":" << s.sum_us
      << ",\"mean_us\":" << fixed3(s.mean_us()) << ",\"min_us\":" << s.min_us
      << ",\"max_us\":" << s.max_us << ",\"p50_us\":" << s.p50_us
      << ",\"p90_us\":" << s.p90_us << ",\"p99_us\":" << s.p99_us << "}";
}

void write_phase_breakdown_json(const TraceAnalysis& analysis, std::ostream& out) {
  out << "[";
  bool first = true;
  for (const Phase phase : kPhaseOrder) {
    const auto it = analysis.phase_stats().find(phase);
    if (it == analysis.phase_stats().end()) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"phase\":\"" << to_string(phase) << "\",\"share_pct\":"
        << fixed3(share_pct(it->second.sum_us, analysis.e2e().sum_us)) << ",\"stats\":";
    write_latency_stats_json(it->second, out);
    out << "}";
  }
  out << "]";
}

void write_report_text(const TraceAnalysis& analysis, std::ostream& out) {
  const LatencyStats& e2e = analysis.e2e();
  out << "curb-trace report\n";
  out << "  spans:        " << analysis.spans().size() << "\n";
  out << "  transactions: " << analysis.transactions().size() << " ("
      << analysis.complete_count() << " complete)\n";
  out << "  end-to-end (pkt_in -> reply_quorum, us): count=" << e2e.count
      << " mean=" << fixed1(e2e.mean_us()) << " p50=" << e2e.p50_us
      << " p90=" << e2e.p90_us << " p99=" << e2e.p99_us << " min=" << e2e.min_us
      << " max=" << e2e.max_us << "\n";

  out << "\nphase breakdown (complete transactions; shares sum to 100%):\n";
  out << "  " << std::left << std::setw(12) << "phase" << std::right << std::setw(8)
      << "count" << std::setw(12) << "mean_us" << std::setw(10) << "p50_us"
      << std::setw(10) << "p90_us" << std::setw(10) << "p99_us" << std::setw(9)
      << "share%" << "\n";
  for (const Phase phase : kPhaseOrder) {
    const auto it = analysis.phase_stats().find(phase);
    if (it == analysis.phase_stats().end()) continue;
    const LatencyStats& s = it->second;
    out << "  " << std::left << std::setw(12) << to_string(phase) << std::right
        << std::setw(8) << s.count << std::setw(12) << fixed1(s.mean_us())
        << std::setw(10) << s.p50_us << std::setw(10) << s.p90_us << std::setw(10)
        << s.p99_us << std::setw(9) << fixed1(share_pct(s.sum_us, e2e.sum_us)) << "\n";
  }

  if (!analysis.group_stats().empty()) {
    out << "\nper-group end-to-end (us):\n";
    for (const auto& [group, s] : analysis.group_stats()) {
      out << "  group " << group << ": count=" << s.count << " mean="
          << fixed1(s.mean_us()) << " p50=" << s.p50_us << " p90=" << s.p90_us
          << " p99=" << s.p99_us << "\n";
    }
  }

  std::size_t warnings = 0;
  std::size_t errors = 0;
  for (const Finding& f : analysis.findings()) {
    (f.severity == Finding::Severity::kError ? errors : warnings)++;
  }
  out << "\nanomalies: " << errors << " errors, " << warnings << " warnings\n";
}

void write_report_json(const TraceAnalysis& analysis, std::ostream& out) {
  const LatencyStats& e2e = analysis.e2e();
  out << "{\"spans\":" << analysis.spans().size()
      << ",\"transactions\":" << analysis.transactions().size()
      << ",\"complete\":" << analysis.complete_count() << ",\"e2e_us\":";
  write_latency_stats_json(e2e, out);
  out << ",\"phases\":";
  write_phase_breakdown_json(analysis, out);
  out << ",\"groups\":[";
  bool first = true;
  for (const auto& [group, s] : analysis.group_stats()) {
    if (!first) out << ",";
    first = false;
    out << "{\"group\":" << group << ",\"stats\":";
    write_latency_stats_json(s, out);
    out << "}";
  }
  std::size_t warnings = 0;
  std::size_t errors = 0;
  for (const Finding& f : analysis.findings()) {
    (f.severity == Finding::Severity::kError ? errors : warnings)++;
  }
  out << "],\"anomalies\":{\"errors\":" << errors << ",\"warnings\":" << warnings
      << ",\"findings\":[";
  first = true;
  for (const Finding& f : analysis.findings()) {
    if (!first) out << ",";
    first = false;
    write_finding_json(f, out);
  }
  out << "]}}\n";
}

void write_critical_path_text(const TraceAnalysis& analysis, std::ostream& out,
                              std::size_t limit) {
  const auto txns = slowest_complete(analysis, limit);
  out << "critical paths, slowest first (" << txns.size() << " of "
      << analysis.complete_count() << " complete transactions):\n";
  for (const TransactionTrace* txn : txns) {
    out << "\n" << txn->kind << " switch=" << txn->switch_id << " request="
        << txn->request_id << " latency_us=" << txn->latency_us();
    if (txn->has_instance) out << " group=" << txn->instance;
    if (txn->overlap_us != 0) out << " overlap_us=" << txn->overlap_us;
    out << "\n";
    for (const Segment& seg : txn->segments) {
      out << "  " << std::left << std::setw(12) << to_string(seg.phase) << std::right
          << std::setw(10) << seg.duration_us() << " us  " << std::setw(6)
          << fixed1(share_pct(seg.duration_us(), txn->latency_us())) << "%  [span "
          << seg.span_id << "]\n";
    }
  }
}

void write_critical_path_json(const TraceAnalysis& analysis, std::ostream& out,
                              std::size_t limit) {
  const auto txns = slowest_complete(analysis, limit);
  out << "{\"complete\":" << analysis.complete_count() << ",\"transactions\":[";
  for (std::size_t i = 0; i < txns.size(); ++i) {
    if (i != 0) out << ",";
    write_txn_json(*txns[i], out);
  }
  out << "]}\n";
}

void write_anomalies_text(const TraceAnalysis& analysis, std::ostream& out) {
  if (analysis.findings().empty()) {
    out << "no anomalies: " << analysis.complete_count() << " of "
        << analysis.transactions().size()
        << " transactions completed cleanly, all spans closed\n";
    return;
  }
  out << analysis.findings().size() << " finding(s):\n";
  for (const Finding& f : analysis.findings()) {
    out << "  [" << to_string(f.severity) << "] " << f.detector << " at "
        << f.at_us << "us on " << f.track << ": " << f.message << " (spans:";
    for (const std::uint64_t id : f.spans) out << " " << id;
    out << ")\n";
  }
}

void write_anomalies_json(const TraceAnalysis& analysis, std::ostream& out) {
  std::size_t warnings = 0;
  std::size_t errors = 0;
  for (const Finding& f : analysis.findings()) {
    (f.severity == Finding::Severity::kError ? errors : warnings)++;
  }
  out << "{\"errors\":" << errors << ",\"warnings\":" << warnings << ",\"findings\":[";
  bool first = true;
  for (const Finding& f : analysis.findings()) {
    if (!first) out << ",";
    first = false;
    write_finding_json(f, out);
  }
  out << "]}\n";
}

std::size_t DiffResult::regressions() const {
  std::size_t n = 0;
  for (const DiffEntry& e : entries) {
    if (e.regression) ++n;
  }
  return n;
}

DiffResult diff_analyses(const TraceAnalysis& baseline, const TraceAnalysis& candidate,
                         const DiffOptions& options) {
  DiffResult diff;
  diff.base_complete = baseline.complete_count();
  diff.cand_complete = candidate.complete_count();
  diff.base_anomalies = baseline.findings().size();
  diff.cand_anomalies = candidate.findings().size();

  const auto compare = [&](const std::string& metric, const LatencyStats* base,
                           const LatencyStats* cand) {
    DiffEntry entry;
    entry.metric = metric;
    entry.in_baseline = base != nullptr && base->count > 0;
    entry.in_candidate = cand != nullptr && cand->count > 0;
    if (entry.in_baseline) {
      entry.base_p50_us = base->p50_us;
      entry.base_mean_us = base->mean_us();
    }
    if (entry.in_candidate) {
      entry.cand_p50_us = cand->p50_us;
      entry.cand_mean_us = cand->mean_us();
    }
    if (entry.in_baseline && entry.in_candidate) {
      const std::int64_t delta = entry.cand_p50_us - entry.base_p50_us;
      if (entry.base_p50_us != 0) {
        entry.delta_pct = 100.0 * static_cast<double>(delta) /
                          static_cast<double>(entry.base_p50_us);
      }
      entry.regression =
          delta > options.floor_us && entry.delta_pct > options.threshold_pct;
    } else if (entry.in_candidate && !entry.in_baseline) {
      // A phase that appears only in the candidate run is a structural
      // change worth flagging, not a silent pass.
      entry.regression = entry.cand_p50_us > options.floor_us;
    }
    diff.entries.push_back(entry);
  };

  compare("e2e", &baseline.e2e(), &candidate.e2e());
  for (const Phase phase : kPhaseOrder) {
    const auto base_it = baseline.phase_stats().find(phase);
    const auto cand_it = candidate.phase_stats().find(phase);
    const LatencyStats* base =
        base_it != baseline.phase_stats().end() ? &base_it->second : nullptr;
    const LatencyStats* cand =
        cand_it != candidate.phase_stats().end() ? &cand_it->second : nullptr;
    if (base == nullptr && cand == nullptr) continue;
    compare(std::string{to_string(phase)}, base, cand);
  }
  return diff;
}

void write_diff_text(const DiffResult& diff, std::ostream& out) {
  out << "curb-trace diff (baseline -> candidate)\n";
  out << "  complete transactions: " << diff.base_complete << " -> "
      << diff.cand_complete << "\n";
  out << "  anomalies:             " << diff.base_anomalies << " -> "
      << diff.cand_anomalies << "\n\n";
  out << "  " << std::left << std::setw(12) << "metric" << std::right << std::setw(14)
      << "base_p50_us" << std::setw(14) << "cand_p50_us" << std::setw(10) << "delta%"
      << "  verdict\n";
  for (const DiffEntry& e : diff.entries) {
    out << "  " << std::left << std::setw(12) << e.metric << std::right;
    if (e.in_baseline) {
      out << std::setw(14) << e.base_p50_us;
    } else {
      out << std::setw(14) << "-";
    }
    if (e.in_candidate) {
      out << std::setw(14) << e.cand_p50_us;
    } else {
      out << std::setw(14) << "-";
    }
    if (e.in_baseline && e.in_candidate) {
      out << std::setw(10) << fixed1(e.delta_pct);
    } else {
      out << std::setw(10) << "-";
    }
    out << "  " << (e.regression ? "REGRESSION" : "ok") << "\n";
  }
  out << "\n" << diff.regressions() << " regression(s)\n";
}

void write_diff_json(const DiffResult& diff, std::ostream& out) {
  out << "{\"base_complete\":" << diff.base_complete
      << ",\"cand_complete\":" << diff.cand_complete
      << ",\"base_anomalies\":" << diff.base_anomalies
      << ",\"cand_anomalies\":" << diff.cand_anomalies
      << ",\"regressions\":" << diff.regressions() << ",\"entries\":[";
  for (std::size_t i = 0; i < diff.entries.size(); ++i) {
    const DiffEntry& e = diff.entries[i];
    if (i != 0) out << ",";
    out << "{\"metric\":\"" << json::escape(e.metric) << "\",\"in_baseline\":"
        << (e.in_baseline ? "true" : "false")
        << ",\"in_candidate\":" << (e.in_candidate ? "true" : "false")
        << ",\"base_p50_us\":" << e.base_p50_us << ",\"cand_p50_us\":" << e.cand_p50_us
        << ",\"base_mean_us\":" << fixed3(e.base_mean_us)
        << ",\"cand_mean_us\":" << fixed3(e.cand_mean_us)
        << ",\"delta_pct\":" << fixed3(e.delta_pct)
        << ",\"regression\":" << (e.regression ? "true" : "false") << "}";
  }
  out << "]}\n";
}

}  // namespace curb::obs
