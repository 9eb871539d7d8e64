// curb-trace: causal protocol analytics over curb span dumps.
//
//   curb-trace report        <spans.jsonl> [--json]
//   curb-trace critical-path <spans.jsonl> [--json] [--limit N]
//   curb-trace anomalies     <spans.jsonl> [--json]
//   curb-trace complexity    <spans.jsonl> [--json] [--ledger FILE] [--limit N]
//   curb-trace diff          <base.jsonl> <cand.jsonl> [--json]
//                            [--threshold PCT] [--floor US]
//
// Input is a spans-JSONL dump (curb-sim --trace-jsonl FILE, or the
// CURB_TRACE_JSONL env var understood by the benches). `report` prints the
// per-phase latency breakdown, `critical-path` the slowest transactions'
// segment walks, `anomalies` the protocol-conformance findings (exit 1 if
// any), `complexity` the Theorem 1 message-complexity audit over the run's
// round_complexity instants (exit 1 when any PKT-IN round exceeds the
// analytic bound; --ledger joins in a curb-sim --ledger-out dump), and
// `diff` a phase-by-phase comparison of two runs (exit 1 on regressions).
// Exit codes follow curb/core/exit_codes.hpp.
//
// Example: curb-sim --rounds 5 --trace-jsonl t.jsonl && curb-trace report t.jsonl

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "curb/core/exit_codes.hpp"
#include "curb/core/settings.hpp"
#include "curb/json/json.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/net/report.hpp"
#include "curb/obs/report.hpp"

namespace {

using curb::core::kExitFinding;
using curb::core::kExitOk;
using curb::core::kExitUsage;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s report        <spans.jsonl> [--json]\n"
               "       %s critical-path <spans.jsonl> [--json] [--limit N]\n"
               "       %s anomalies     <spans.jsonl> [--json]\n"
               "       %s complexity    <spans.jsonl> [--json] [--ledger FILE]"
               " [--limit N]\n"
               "       %s diff          <base.jsonl> <cand.jsonl> [--json]\n"
               "                        [--threshold PCT] [--floor US]\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(kExitUsage);
}

/// Open and parse one input file; exit 2 (usage/parse) on any failure.
template <typename Parse>
auto load(const char* argv0, const std::string& path, Parse parse) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", argv0, path.c_str());
    std::exit(kExitUsage);
  }
  try {
    return parse(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(), e.what());
    std::exit(kExitUsage);
  }
}

curb::obs::TraceAnalysis load_spans(const char* argv0, const std::string& path) {
  return curb::obs::TraceAnalysis{load(argv0, path, curb::obs::parse_spans_jsonl)};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];

  std::vector<std::string> paths;
  bool json = false;
  std::size_t limit = 5;
  bool limit_set = false;
  std::string ledger_path;
  curb::obs::DiffOptions diff_options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--ledger") {
      ledger_path = value();
    } else if (arg == "--limit") {
      limit = curb::core::u64_arg("curb-trace", "--limit", value());
      limit_set = true;
    } else if (arg == "--threshold") {
      diff_options.threshold_pct = curb::core::double_arg("curb-trace", "--threshold", value());
    } else if (arg == "--floor") {
      diff_options.floor_us =
          static_cast<std::int64_t>(curb::core::u64_arg("curb-trace", "--floor", value()));
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }

  if (command == "report") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load_spans(argv[0], paths[0]);
    if (json) {
      curb::obs::write_report_json(analysis, std::cout);
    } else {
      curb::obs::write_report_text(analysis, std::cout);
    }
    return kExitOk;
  }
  if (command == "critical-path") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load_spans(argv[0], paths[0]);
    if (json) {
      // JSON consumers get every transaction unless explicitly capped.
      curb::obs::write_critical_path_json(analysis, std::cout, limit_set ? limit : 0);
    } else {
      curb::obs::write_critical_path_text(analysis, std::cout, limit);
    }
    return kExitOk;
  }
  if (command == "anomalies") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load_spans(argv[0], paths[0]);
    if (json) {
      curb::obs::write_anomalies_json(analysis, std::cout);
    } else {
      curb::obs::write_anomalies_text(analysis, std::cout);
    }
    return analysis.findings().empty() ? kExitOk : kExitFinding;
  }
  if (command == "complexity") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load_spans(argv[0], paths[0]);
    const std::vector<curb::obs::net::RoundComplexity> rounds =
        curb::obs::net::extract_round_complexity(analysis.spans());
    std::vector<curb::obs::net::LedgerRow> ledger;
    if (!ledger_path.empty()) {
      ledger = load(argv[0], ledger_path, curb::obs::net::parse_ledger_jsonl);
    }
    if (json) {
      if (ledger_path.empty()) {
        curb::obs::net::write_complexity_json(rounds, std::cout);
      } else {
        std::ostringstream complexity;
        curb::obs::net::write_complexity_json(rounds, complexity);
        std::string body = complexity.str();
        while (!body.empty() && body.back() == '\n') body.pop_back();
        std::cout << "{\"complexity\":" << body << ",\"ledger\":[";
        bool first = true;
        for (const auto& row : ledger) {
          std::cout << (first ? "" : ",") << "{\"category\":\""
                    << curb::json::escape(row.category) << "\",\"key\":\""
                    << curb::json::escape(row.key) << "\",\"msgs\":" << row.msgs
                    << ",\"bytes\":" << row.bytes << "}";
          first = false;
        }
        std::cout << "]}\n";
      }
    } else {
      curb::obs::net::write_complexity_text(rounds, std::cout);
      if (!ledger_path.empty()) {
        // Per-category rollup of the per-transaction ledger, then the
        // heaviest join keys — stacked traffic shows up as one key with an
        // outsized message count.
        struct CatAgg {
          std::uint64_t keys = 0;
          std::uint64_t msgs = 0;
          std::uint64_t bytes = 0;
        };
        std::map<std::string, CatAgg> by_category;
        for (const auto& row : ledger) {
          CatAgg& agg = by_category[row.category];
          ++agg.keys;
          agg.msgs += row.msgs;
          agg.bytes += row.bytes;
        }
        std::cout << "\nledger (" << ledger.size() << " row(s) from " << ledger_path
                  << ")\n";
        for (const auto& [category, agg] : by_category) {
          std::cout << "  " << category << ": " << agg.keys << " key(s), "
                    << agg.msgs << " wire msg(s), " << agg.bytes << " B\n";
        }
        std::vector<const curb::obs::net::LedgerRow*> top;
        top.reserve(ledger.size());
        for (const auto& row : ledger) top.push_back(&row);
        std::stable_sort(top.begin(), top.end(),
                         [](const auto* a, const auto* b) { return a->msgs > b->msgs; });
        std::cout << "  heaviest keys:\n";
        for (std::size_t i = 0; i < top.size() && i < limit; ++i) {
          std::cout << "    " << top[i]->category << " " << top[i]->key << ": "
                    << top[i]->msgs << " msg(s), " << top[i]->bytes << " B\n";
        }
      }
    }
    for (const auto& rc : rounds) {
      if (rc.exceeds) return kExitFinding;
    }
    return kExitOk;
  }
  if (command == "diff") {
    if (paths.size() != 2) usage(argv[0]);
    const curb::obs::TraceAnalysis baseline = load_spans(argv[0], paths[0]);
    const curb::obs::TraceAnalysis candidate = load_spans(argv[0], paths[1]);
    const curb::obs::DiffResult diff =
        curb::obs::diff_analyses(baseline, candidate, diff_options);
    if (json) {
      curb::obs::write_diff_json(diff, std::cout);
    } else {
      curb::obs::write_diff_text(diff, std::cout);
    }
    return diff.regressions() == 0 ? kExitOk : kExitFinding;
  }
  usage(argv[0]);
}
