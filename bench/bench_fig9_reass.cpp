// Reproduces Fig. 9: performance of handling RE_ASSIGNMENT requests.
//  (a)/(b) latency vs number of requesting switches, TCR vs LCR
//  (c)     throughput vs number of switches and vs f
// Paper findings: latency rises slowly with switches; LCR is a bit slower
// than TCR (costlier objective) with a widening gap; throughput rises with
// switches and falls with f.
//
// Workload: forced empty-accusation reassignment probes — each requesting
// switch drives the full RE-ASS pipeline (OP solve with measured wall time,
// Intra-PBFT, Final-PBFT, blockchain commit, ctrList replies) without
// degrading the network, so rounds repeat cleanly.

#include <cstdio>

#include "common.hpp"
#include "curb/core/simulation.hpp"

namespace {

using curb::bench::paper_options;
using curb::core::CurbOptions;
using curb::core::CurbSimulation;
using curb::core::RoundMetrics;
using curb::opt::CapObjective;

constexpr int kRounds = 2;

struct Sample {
  double latency_ms = 0.0;
  double tps = 0.0;
};

Sample measure(CurbSimulation& sim, std::size_t requesters) {
  curb::sim::Summary latency;
  curb::sim::Summary tps;
  for (int i = 0; i < kRounds; ++i) {
    const RoundMetrics m = sim.run_reassignment_round(requesters);
    if (m.accepted == 0) continue;
    latency.add(m.mean_latency_ms);
    tps.add(m.throughput_tps);
  }
  return {latency.mean(), tps.mean()};
}

CurbOptions reass_options(CapObjective objective, std::size_t f) {
  CurbOptions opts = paper_options();
  opts.reass_always_solve = true;
  opts.reassign_objective = objective;
  opts.f = f;
  // Uncapped capacity keeps the probe OP solves in the paper's <100 ms
  // band so replies land well inside the 500 ms switch timeout.
  opts.controller_capacity = 1e9;
  opts.max_cs_delay_ms = 10.0;
  opts.op_wall_limit_ms = 400.0;
  if (f > 1) {
    // Bigger groups need more headroom on the 16-controller Internet2.
    opts.controller_capacity = 40.0;
    opts.max_cs_delay_ms = curb::opt::CapInstance::kNoLimit;
  }
  return opts;
}

}  // namespace

int main() {
  curb::bench::print_header("RE_ASSIGNMENT handling vs number of switches",
                            "Fig. 9(a)(b) latency, Fig. 9(c) throughput");
  curb::bench::print_row_header(
      {"switches", "TCR_lat_ms", "LCR_lat_ms", "TCR_tps", "LCR_tps"});
  for (const std::size_t switches : {4u, 13u, 22u, 34u}) {
    CurbSimulation tcr{reass_options(CapObjective::kTrivial, 1)};
    CurbSimulation lcr{reass_options(CapObjective::kLeastMovement, 1)};
    const Sample t = measure(tcr, switches);
    const Sample l = measure(lcr, switches);
    // CURB_TRACE / CURB_METRICS_OUT capture the last configuration swept.
    curb::bench::export_obs_from_env(tcr.network());
    curb::bench::BenchResults::add(
        "fig9_reass",
        {{"sweep", "switches"}, {"switches", std::to_string(switches)},
         {"objective", "TCR"}, {"f", "1"}},
        {{"latency_ms", t.latency_ms},
         {"tps", t.tps},
         {"messages", static_cast<double>(tcr.total_messages())}},
        &tcr.network());
    curb::bench::BenchResults::add(
        "fig9_reass",
        {{"sweep", "switches"}, {"switches", std::to_string(switches)},
         {"objective", "LCR"}, {"f", "1"}},
        {{"latency_ms", l.latency_ms},
         {"tps", l.tps},
         {"messages", static_cast<double>(lcr.total_messages())}},
        &lcr.network());
    curb::bench::print_cell(static_cast<double>(switches));
    curb::bench::print_cell(t.latency_ms);
    curb::bench::print_cell(l.latency_ms);
    curb::bench::print_cell(t.tps);
    curb::bench::print_cell(l.tps);
    curb::bench::end_row();
  }

  curb::bench::print_header("RE_ASSIGNMENT throughput vs f", "Fig. 9(c) inset");
  curb::bench::print_row_header({"f", "group_size", "tps"});
  for (const std::size_t f : {1u, 2u}) {
    CurbSimulation sim{reass_options(CapObjective::kTrivial, f)};
    const Sample s = measure(sim, 34);
    curb::bench::export_obs_from_env(sim.network());
    curb::bench::BenchResults::add(
        "fig9_reass",
        {{"sweep", "f"}, {"switches", "34"}, {"objective", "TCR"},
         {"f", std::to_string(f)}},
        {{"tps", s.tps}, {"messages", static_cast<double>(sim.total_messages())}},
        &sim.network());
    curb::bench::print_cell(static_cast<double>(f));
    curb::bench::print_cell(static_cast<double>(3 * f + 1));
    curb::bench::print_cell(s.tps);
    curb::bench::end_row();
  }
  return curb::bench::finish();
}
