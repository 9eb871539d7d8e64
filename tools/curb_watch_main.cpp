// curb-watch: tail and evaluate windowed telemetry (curb::obs::ts JSONL).
//
//   curb-watch [options] FILE
//     --slo RULES     evaluate SLO rules over the stream (curb::obs::slo
//                     grammar, ';'-separated) — replays the same engine the
//                     live watchdog runs, so verdicts match curb-sim's
//     --follow        keep tailing FILE as it grows (live run); stops after
//                     --idle-ms of no growth (0 = until interrupted)
//     --idle-ms MS    follow idle cutoff, wall milliseconds (default 2000)
//     --poll-ms MS    follow poll interval, wall milliseconds (default 50)
//     --series SUBSTR only render series whose key contains SUBSTR
//                     (repeatable; default: all)
//     --links N       after the sparklines, print the N hottest links by
//                     peak net.link_util gauge (0 = off, default 0)
//     --width N       sparkline width in windows (default 48)
//     --report FILE   write the machine-readable breach report JSON
//     --quiet         no rendering, just evaluate (exit code + breach lines)
//
// Offline: parses the whole file, renders one sparkline per series over the
// trailing --width windows, marks rule thresholds, prints breaches.
// Follow: prints one line per newly closed window plus breach alerts as
// they fire, then the final sparkline view.
//
// Link telemetry: curb-sim publishes per-link utilization gauges keyed
// net.link_util{link="SRC->DST"} (top talkers per snapshot) whenever
// observability is on, so link SLOs are ordinary gauge rules, e.g.
//   --slo 'gauge(net.link_util{link="SEAT->LOSA"}) < 0.8'
//   --slo 'gauge(net.link_util_max) < 0.9 over 5'
//
// Exit codes (curb/core/exit_codes.hpp): 0 no breach, 1 I/O error, 2 usage,
// 3 SLO breach (the same code curb-sim's in-process watchdog uses).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "curb/core/exit_codes.hpp"
#include "curb/core/settings.hpp"
#include "curb/obs/slo.hpp"
#include "curb/obs/timeseries.hpp"

namespace {

struct CliOptions {
  std::string file;
  std::string slo_rules;
  bool follow = false;
  long idle_ms = 2000;
  long poll_ms = 50;
  std::vector<std::string> series_filters;
  std::size_t links = 0;
  std::size_t width = 48;
  std::string report_file;
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--slo RULES] [--follow] [--idle-ms MS] [--poll-ms MS]\n"
               "          [--series SUBSTR]... [--links N] [--width N]\n"
               "          [--report FILE] [--quiet] FILE\n"
               "\n"
               "--links N prints the N hottest links by peak utilization from\n"
               "the net.link_util{link=\"SRC->DST\"} gauges curb-sim publishes\n"
               "when observability is on. Link SLOs are plain gauge rules:\n"
               "  --slo 'gauge(net.link_util{link=\"SEAT->LOSA\"}) < 0.8'\n"
               "  --slo 'gauge(net.link_util_max) < 0.9 over 5'\n",
               argv0);
  std::exit(curb::core::kExitUsage);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [](const std::string& flag, const char* text) {
      return curb::core::u64_arg("curb-watch", flag.c_str(), text);
    };
    if (arg == "--slo") opts.slo_rules = value();
    else if (arg == "--follow") opts.follow = true;
    else if (arg == "--idle-ms") opts.idle_ms = static_cast<long>(number(arg, value()));
    else if (arg == "--poll-ms") opts.poll_ms = static_cast<long>(number(arg, value()));
    else if (arg == "--series") opts.series_filters.emplace_back(value());
    else if (arg == "--links") opts.links = number(arg, value());
    else if (arg == "--width") opts.width = number(arg, value());
    else if (arg == "--report") opts.report_file = value();
    else if (arg == "--quiet") opts.quiet = true;
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') usage(argv[0]);
    else if (opts.file.empty()) opts.file = arg;
    else usage(argv[0]);
  }
  if (opts.file.empty() || opts.width == 0 || opts.poll_ms <= 0) usage(argv[0]);
  return opts;
}

/// The scalar a window contributes to a series' sparkline: the counted rate,
/// the sampled gauge, or the per-window p99 for histograms.
double plot_value(const curb::obs::TsValue& value) {
  return value.kind == curb::obs::TsValue::Kind::kHist ? value.p99 : value.value;
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double lo = 0.0, hi = 0.0;
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    const double span = hi - lo;
    const int idx =
        span > 0.0 ? std::min(7, static_cast<int>(std::floor((v - lo) / span * 8.0)))
                   : 0;
    out += kBlocks[idx];
  }
  return out;
}

std::string format_value(double v) {
  char buf[48];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", v);
  }
  return buf;
}

bool series_selected(const std::string& key, const std::vector<std::string>& filters) {
  if (filters.empty()) return true;
  return std::any_of(filters.begin(), filters.end(), [&](const std::string& f) {
    return key.find(f) != std::string::npos;
  });
}

/// Per-series trailing plot window + threshold marks from matching rules.
void render(const std::deque<curb::obs::TsWindow>& windows,
            const curb::obs::SloRuleSet& rules, const CliOptions& cli) {
  if (windows.empty()) {
    std::printf("curb-watch: no closed windows\n");
    return;
  }
  const std::size_t first =
      windows.size() > cli.width ? windows.size() - cli.width : 0;
  // The trailing window may be a short partial close; report the width of
  // the last full window when there is one.
  const curb::obs::TsWindow* whole = &windows.back();
  for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
    if (!it->partial) {
      whole = &*it;
      break;
    }
  }
  std::printf("windows %llu..%llu (%zu shown, window %.1f ms)\n",
              static_cast<unsigned long long>(windows[first].index),
              static_cast<unsigned long long>(windows.back().index),
              windows.size() - first,
              static_cast<double>((whole->end - whole->start).as_micros()) /
                  1000.0);
  // Collect the key set across the plotted range (sorted via map).
  std::map<std::string, std::vector<double>> plots;
  for (std::size_t i = first; i < windows.size(); ++i) {
    for (const auto& [key, value] : windows[i].series) {
      if (series_selected(key, cli.series_filters)) {
        plots[key];  // ensure the row exists even before its first value
      }
    }
  }
  for (auto& [key, plot] : plots) {
    for (std::size_t i = first; i < windows.size(); ++i) {
      const curb::obs::TsValue* value = windows[i].find(key);
      plot.push_back(value != nullptr ? plot_value(*value) : 0.0);
    }
  }
  for (const auto& [key, plot] : plots) {
    double hi = 0.0, last = plot.empty() ? 0.0 : plot.back();
    for (const double v : plot) hi = std::max(hi, v);
    std::printf("  %-52s %s max=%s last=%s", key.c_str(), sparkline(plot).c_str(),
                format_value(hi).c_str(), format_value(last).c_str());
    for (const curb::obs::SloRule& rule : rules.rules) {
      if (rule.series != key) continue;
      const std::optional<double> observed = curb::obs::evaluate_rule(rule, windows);
      const bool pass =
          !observed || curb::obs::slo_compare(rule.op, *observed, rule.limit);
      std::printf("  [%s %s %s: %s]", curb::obs::to_string(rule.agg),
                  curb::obs::to_string(rule.op), format_value(rule.limit).c_str(),
                  pass ? "ok" : "BREACH");
    }
    std::printf("\n");
  }
}

/// Top-N hottest links by peak utilization, from the per-link gauges
/// (net.link_util{link="SRC->DST"}). The gauges are top-talker sampled per
/// snapshot, so "peak" means the hottest the link ever got while it was
/// among the top talkers — exactly the saturation question an operator asks.
void render_links(const std::deque<curb::obs::TsWindow>& windows, std::size_t n) {
  static const std::string kPrefix = "net.link_util{link=\"";
  struct LinkRow {
    std::string link;
    double peak = 0.0;
    double last = 0.0;
    std::uint64_t last_window = 0;
  };
  std::map<std::string, LinkRow> links;
  for (const curb::obs::TsWindow& window : windows) {
    for (const auto& [key, value] : window.series) {
      if (key.rfind(kPrefix, 0) != 0) continue;
      const std::size_t end = key.find('"', kPrefix.size());
      if (end == std::string::npos) continue;
      LinkRow& row = links[key.substr(kPrefix.size(), end - kPrefix.size())];
      row.peak = std::max(row.peak, value.value);
      row.last = value.value;
      row.last_window = window.index;
    }
  }
  if (links.empty()) {
    std::printf("\nhottest links: no net.link_util gauges in this stream\n");
    return;
  }
  std::vector<LinkRow> rows;
  rows.reserve(links.size());
  for (auto& [link, row] : links) {
    row.link = link;
    rows.push_back(row);
  }
  std::stable_sort(rows.begin(), rows.end(), [](const LinkRow& a, const LinkRow& b) {
    return a.peak > b.peak;
  });
  std::printf("\nhottest links (top %zu of %zu by peak utilization)\n",
              std::min(n, rows.size()), rows.size());
  std::printf("  %-28s%-10s%-10s%s\n", "link", "peak", "last", "last-window");
  for (std::size_t i = 0; i < rows.size() && i < n; ++i) {
    std::printf("  %-28s%-10.3f%-10.3f%llu\n", rows[i].link.c_str(), rows[i].peak,
                rows[i].last, static_cast<unsigned long long>(rows[i].last_window));
  }
}

/// Incremental reader: re-opens the file each poll, resumes at the byte
/// offset after the last complete line, and parses only whole lines (a live
/// writer may be mid-line at the read instant).
class JsonlTail {
 public:
  explicit JsonlTail(std::string path) : path_{std::move(path)} {}

  /// Append newly completed windows to `out`. False when the file cannot be
  /// opened; parse errors throw.
  bool poll(std::vector<curb::obs::TsWindow>& out) {
    std::ifstream in{path_, std::ios::binary};
    if (!in) return false;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < offset_) {
      // The file shrank: truncated or rotated (a new run reopened the same
      // path). Restart from the top instead of spinning forever on a stale
      // offset waiting for the file to regrow past it.
      offset_ = 0;
    }
    if (size <= offset_) return true;
    in.seekg(offset_);
    std::string chunk(static_cast<std::size_t>(size - offset_), '\0');
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    chunk.resize(static_cast<std::size_t>(in.gcount()));
    const std::size_t complete = chunk.rfind('\n');
    if (complete == std::string::npos) return true;
    std::istringstream lines{chunk.substr(0, complete + 1)};
    for (const auto& window : curb::obs::parse_ts_jsonl(lines)) {
      out.push_back(window);
    }
    offset_ += static_cast<std::streamoff>(complete + 1);
    return true;
  }

 private:
  std::string path_;
  std::streamoff offset_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse(argc, argv);

  curb::obs::SloRuleSet rules;
  if (!cli.slo_rules.empty()) {
    try {
      rules = curb::obs::SloRuleSet::parse(cli.slo_rules);
    } catch (const curb::obs::SloError& e) {
      std::fprintf(stderr, "curb-watch: %s\n", e.what());
      return curb::core::kExitUsage;
    }
  }
  curb::obs::SloEngine engine{rules};

  JsonlTail tail{cli.file};
  std::deque<curb::obs::TsWindow> windows;
  std::size_t breaches_reported = 0;

  auto ingest = [&](const std::vector<curb::obs::TsWindow>& fresh) {
    for (const curb::obs::TsWindow& window : fresh) {
      windows.push_back(window);
      // Replay the live watchdog: evaluate at each window close, against
      // the stream seen so far.
      engine.on_window(nullptr, windows);
      if (cli.follow && !cli.quiet) {
        std::printf("w=%llu end=%.1fms series=%zu%s\n",
                    static_cast<unsigned long long>(window.index),
                    static_cast<double>(window.end.as_micros()) / 1000.0,
                    window.series.size(), window.partial ? " (partial)" : "");
      }
      for (; breaches_reported < engine.breaches().size(); ++breaches_reported) {
        const curb::obs::SloBreach& b = engine.breaches()[breaches_reported];
        std::fprintf(stderr, "curb-watch: BREACH w=%llu %s (observed %s)\n",
                     static_cast<unsigned long long>(b.window),
                     engine.rules().rules[b.rule].text().c_str(),
                     format_value(b.observed).c_str());
      }
    }
  };

  bool opened = false;
  std::vector<curb::obs::TsWindow> fresh;
  try {
    if (cli.follow) {
      // Wall-clock tail: poll until the file stops growing for idle_ms.
      // Virtual time is irrelevant here — this follows a live process.
      const auto poll_interval = std::chrono::milliseconds{cli.poll_ms};
      auto last_growth = std::chrono::steady_clock::now();
      while (true) {
        fresh.clear();
        if (tail.poll(fresh)) {
          opened = true;
          if (!fresh.empty()) {
            ingest(fresh);
            last_growth = std::chrono::steady_clock::now();
          }
        }
        if (cli.idle_ms > 0 &&
            std::chrono::steady_clock::now() - last_growth >
                std::chrono::milliseconds{cli.idle_ms}) {
          break;
        }
        std::this_thread::sleep_for(poll_interval);
      }
    } else {
      if (tail.poll(fresh)) {
        opened = true;
        ingest(fresh);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "curb-watch: %s: %s\n", cli.file.c_str(), e.what());
    return curb::core::kExitFinding;
  }
  if (!opened) {
    std::fprintf(stderr, "curb-watch: cannot open %s\n", cli.file.c_str());
    return curb::core::kExitFinding;
  }

  if (!cli.quiet) {
    render(windows, rules, cli);
    if (cli.links > 0) render_links(windows, cli.links);
  }

  if (!curb::core::write_artifact("curb-watch", cli.report_file,
                                  [&](std::ostream& out) { engine.write_report_json(out); })) {
    return curb::core::kExitFinding;
  }
  if (engine.breached()) {
    std::fprintf(stderr, "curb-watch: %zu SLO breach(es)\n", engine.breaches().size());
    return curb::core::kExitSloBreach;
  }
  return curb::core::kExitOk;
}
