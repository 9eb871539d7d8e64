// write_run_outputs: every artifact of a curb-sim or bench run, written
// through obs::write_file.

#include <cstdio>
#include <iostream>
#include <sstream>

#include "curb/core/network.hpp"
#include "curb/core/settings.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/net/report.hpp"
#include "curb/obs/report.hpp"
#include "curb/obs/res/account.hpp"
#include "curb/obs/res/report.hpp"
#include "curb/prof/export.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::core {

bool write_artifact(const char* tool, const std::string& path,
                    const std::function<void(std::ostream&)>& write) {
  if (path.empty() || obs::write_file(path, write)) return true;
  std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  return false;
}

namespace {

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

bool write_run_outputs(CurbNetwork& network, const RunOutputs& outputs, const char* tool) {
  bool ok = true;
  const auto write = [&](const std::string& path,
                         const std::function<void(std::ostream&)>& fn) {
    ok = write_artifact(tool, path, fn) && ok;
  };
  // Close the trailing telemetry window so the JSONL stream and the SLO
  // report cover the whole run.
  network.finalize_telemetry();
  if (const obs::SloEngine* slo = network.slo(); slo != nullptr) {
    write(outputs.slo_out, [&](std::ostream& out) { slo->write_report_json(out); });
    if (slo->breached()) {
      std::fprintf(stderr, "%s: %zu SLO breach(es):\n", tool, slo->breaches().size());
      std::ostringstream text;
      slo->write_report_text(text);
      std::fputs(text.str().c_str(), stderr);
    }
  }
  if (const obs::net::LinkStats* links = network.link_stats(); links != nullptr) {
    const obs::net::NodeNameFn names = network.link_node_names();
    obs::net::LinkReportOptions report;
    report.bandwidth_bps = network.options().link_model.bandwidth_bps;
    report.elapsed_s = network.simulator().now().as_seconds_f();
    write(outputs.link_matrix, [&](std::ostream& out) {
      obs::net::write_link_matrix_json(*links, names, report, out);
    });
    write(outputs.link_csv, [&](std::ostream& out) {
      obs::net::write_link_matrix_csv(*links, names, report, out);
    });
    write(outputs.link_dot,
          [&](std::ostream& out) { obs::net::write_link_dot(*links, names, report, out); });
  }
  if (const obs::net::MsgLedger* ledger = network.msg_ledger(); ledger != nullptr) {
    write(outputs.ledger, [&](std::ostream& out) { obs::net::write_ledger_jsonl(*ledger, out); });
  }
  obs::Observatory* obsy = network.observatory();
  if (obsy == nullptr) return ok;
  network.snapshot_runtime_metrics();
  write(outputs.trace, [&](std::ostream& out) {
    obs::write_chrome_trace(obsy->tracer, &obsy->metrics, out);
  });
  write(outputs.trace_jsonl,
        [&](std::ostream& out) { obs::write_spans_jsonl(obsy->tracer, out); });
  write(outputs.metrics_json,
        [&](std::ostream& out) { obs::write_metrics_json(obsy->metrics, out); });
  write(outputs.metrics_csv,
        [&](std::ostream& out) { obs::write_metrics_csv(obsy->metrics, out); });
  if (outputs.phase_report) {
    std::cout << "\n";
    obs::write_report_text(obs::TraceAnalysis::from_tracer(obsy->tracer), std::cout);
  }
  return ok;
}

bool write_run_outputs(const prof::Profiler& profiler, double wall_s,
                       const RunOutputs& outputs, const char* tool) {
  bool ok = true;
  const auto write = [&](const std::string& path,
                         const std::function<void(std::ostream&)>& fn) {
    ok = write_artifact(tool, path, fn) && ok;
  };
  const bool profiled = wants_profiler(outputs);
  if (profiled) prof::set_thread_profiler(nullptr);
  write(outputs.prof, [&](std::ostream& out) { prof::write_collapsed(profiler, out); });
  write(outputs.prof_chrome,
        [&](std::ostream& out) { prof::write_chrome_profile(profiler, out); });
  if (obs::res::enabled()) {
    const obs::res::MemSnapshot snap = obs::res::snapshot();
    write(outputs.mem_out, [&](std::ostream& out) { obs::res::write_mem_profile_json(snap, out); });
    write(outputs.mem_folded, [&](std::ostream& out) {
      obs::res::write_mem_collapsed(profiler, obs::res::frame_allocations(), out);
    });
    const double alloc = snap.total.alloc_bytes > 0
                             ? static_cast<double>(snap.total.alloc_bytes)
                             : 1.0;
    std::fprintf(stderr, "mem: alloc=%.1fMiB peak=%.1fMiB tagged=%.1f%%\n",
                 mib(snap.total.alloc_bytes), mib(snap.total.peak_live_bytes),
                 100.0 * static_cast<double>(snap.tagged_alloc_bytes()) / alloc);
  } else if (!outputs.mem_out.empty() || !outputs.mem_folded.empty()) {
    // The accountant latches at the process's first allocation, before main:
    // only the environment can turn it on. Warn instead of writing zeros.
    std::fprintf(stderr,
                 "%s: memory accounting is off — set CURB_MEM_ACCOUNT=1 "
                 "(or CURB_MEM_OUT/CURB_MEM_FOLDED) in the environment\n",
                 tool);
  }
  if (profiled) {
    const double events = static_cast<double>(profiler.calls("sim.event"));
    std::fprintf(stderr, "host: wall=%.2fs events/s=%.0f\n", wall_s,
                 wall_s > 0.0 ? events / wall_s : 0.0);
  }
  return ok;
}

}  // namespace curb::core
