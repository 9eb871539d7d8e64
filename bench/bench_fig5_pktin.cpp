// Reproduces Fig. 5: performance of handling PACKET_IN requests.
//  (a) latency vs number of switches in [4, 34]
//  (b) throughput vs number of switches, non-parallel and parallel
//  (c) latency vs f in {1..4}
//  (d) throughput vs f
// Setup: Internet2 topology (16 controllers / 34 switches), f = 1 unless
// swept; each round every active switch issues one table-miss PKT-IN.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"
#include "curb/core/simulation.hpp"

namespace {

// CURB_BENCH_FAST=1 trims the sweeps to their smallest points for CI smoke
// runs. Each configuration builds a fresh deterministic simulation, so the
// entries a fast run produces are byte-identical (up to the host section) to
// the corresponding entries of a full run.
bool fast_mode() {
  const char* env = std::getenv("CURB_BENCH_FAST");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

using curb::bench::paper_options;
using curb::core::CurbOptions;
using curb::core::CurbSimulation;
using curb::core::RoundMetrics;

constexpr int kWarmupRounds = 1;
constexpr int kRounds = 5;

struct Sample {
  double latency_ms = 0.0;
  double latency_err = 0.0;
  double tps = 0.0;
};

Sample measure(CurbSimulation& sim, std::size_t active_switches,
               std::size_t requests_per_switch = 1) {
  sim.set_active_switches(active_switches);
  for (int i = 0; i < kWarmupRounds; ++i) {
    (void)sim.run_packet_in_round(requests_per_switch);
  }
  curb::sim::Summary latency;
  curb::sim::Summary tps;
  for (int i = 0; i < kRounds; ++i) {
    const RoundMetrics m = sim.run_packet_in_round(requests_per_switch);
    if (m.accepted == 0) continue;
    latency.add(m.mean_latency_ms);
    tps.add(m.throughput_tps);
  }
  return {latency.mean(), latency.stddev(), tps.mean()};
}

}  // namespace

int main() {
  curb::bench::print_header("PACKET_IN handling vs number of switches",
                            "Fig. 5(a) latency, Fig. 5(b) throughput");
  curb::bench::print_row_header(
      {"switches", "lat_ms", "lat_err", "tps_parallel", "tps_nonparallel"});
  const std::vector<std::size_t> switch_sweep =
      fast_mode() ? std::vector<std::size_t>{4, 16}
                  : std::vector<std::size_t>{4, 10, 16, 22, 28, 34};
  for (const std::size_t switches : switch_sweep) {
    CurbOptions parallel = paper_options();
    CurbSimulation sim_p{parallel};
    const Sample p = measure(sim_p, switches);
    // Throughput comparison under sustained load (3 requests per switch
    // per round) where pipelining matters.
    const Sample p_tp = measure(sim_p, switches, 3);

    CurbOptions serial = paper_options();
    serial.parallel = false;
    CurbSimulation sim_s{serial};
    const Sample s_tp = measure(sim_s, switches, 3);
    // CURB_TRACE / CURB_METRICS_OUT capture the last configuration swept.
    curb::bench::export_obs_from_env(sim_p.network());
    curb::bench::BenchResults::add(
        "fig5_pktin",
        {{"sweep", "switches"}, {"switches", std::to_string(switches)}, {"f", "1"}},
        {{"latency_ms", p.latency_ms},
         {"latency_err_ms", p.latency_err},
         {"tps_parallel", p_tp.tps},
         {"tps_nonparallel", s_tp.tps},
         {"messages", static_cast<double>(sim_p.total_messages())}},
        &sim_p.network());

    curb::bench::print_cell(static_cast<double>(switches));
    curb::bench::print_cell(p.latency_ms);
    curb::bench::print_cell(p.latency_err);
    curb::bench::print_cell(p_tp.tps);
    curb::bench::print_cell(s_tp.tps);
    curb::bench::end_row();
  }

  curb::bench::print_header("PACKET_IN handling vs fault tolerance f",
                            "Fig. 5(c) latency, Fig. 5(d) throughput");
  curb::bench::print_row_header({"f", "group_size", "lat_ms", "lat_err", "tps"});
  const std::vector<std::size_t> f_sweep =
      fast_mode() ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 2, 3, 4};
  for (const std::size_t f : f_sweep) {
    CurbOptions opts = paper_options();
    opts.f = f;
    // Larger groups need more controller headroom (paper: "the larger the
    // f, the more controllers are required"); relax capacity/delay limits
    // so 3f+1-sized groups exist on the 16-controller Internet2.
    opts.controller_capacity = 40.0;
    opts.max_cs_delay_ms = curb::opt::CapInstance::kNoLimit;
    CurbSimulation sim{opts};
    const Sample sample = measure(sim, 34, 3);
    curb::bench::export_obs_from_env(sim.network());
    curb::bench::BenchResults::add(
        "fig5_pktin",
        {{"sweep", "f"}, {"switches", "34"}, {"f", std::to_string(f)}},
        {{"latency_ms", sample.latency_ms},
         {"latency_err_ms", sample.latency_err},
         {"tps", sample.tps},
         {"messages", static_cast<double>(sim.total_messages())}},
        &sim.network());
    curb::bench::print_cell(static_cast<double>(f));
    curb::bench::print_cell(static_cast<double>(3 * f + 1));
    curb::bench::print_cell(sample.latency_ms);
    curb::bench::print_cell(sample.latency_err);
    curb::bench::print_cell(sample.tps);
    curb::bench::end_row();
  }
  return curb::bench::finish();
}
