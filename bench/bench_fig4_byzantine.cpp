// Reproduces Fig. 4: byzantine resilience of Curb on Internet2.
//  Experiment 1: one silent byzantine node (no response within the 500 ms
//                timeout). The paper detects it in round 5 and removes it in
//                round 6, after which latency/throughput recover.
//  Experiment 2: three silent byzantine nodes in different groups, removed
//                with one OP() calculation; recovery within two rounds.
//  Experiment 3: three "lazy" nodes responding in (200, 500) ms — inside
//                the timeout but slow. Tolerated for 5 rounds, then treated
//                as byzantine. Also compares parallel vs non-parallel mode.

#include <cstdio>
#include <set>
#include <vector>

#include "common.hpp"
#include "curb/core/simulation.hpp"

namespace {

using curb::bench::paper_options;
using curb::bft::Behavior;
using curb::core::CurbOptions;
using curb::core::CurbSimulation;
using curb::core::RoundMetrics;

constexpr int kRounds = 10;

/// Pick controllers in distinct groups that are not group leaders (silent
/// leaders are a different failure mode covered by the view-change path).
std::vector<std::uint32_t> pick_victims(const CurbSimulation& sim, std::size_t count) {
  const auto& state = sim.network().genesis_state();
  std::set<std::uint32_t> leaders;
  for (const auto& g : state.groups()) leaders.insert(g.leader);
  std::vector<std::uint32_t> victims;
  std::set<std::uint32_t> used_groups;
  for (const auto& g : state.groups()) {
    if (victims.size() >= count) break;
    if (used_groups.contains(g.id)) continue;
    for (const std::uint32_t m : g.members) {
      if (!leaders.contains(m) &&
          std::find(victims.begin(), victims.end(), m) == victims.end()) {
        victims.push_back(m);
        used_groups.insert(g.id);
        break;
      }
    }
  }
  return victims;
}

void run_series(const char* name, CurbSimulation& sim,
                const std::vector<std::uint32_t>& victims, Behavior behavior,
                int inject_round, std::size_t detection_window) {
  std::printf("\n-- %s --\n", name);
  curb::bench::print_row_header({"round", "lat_ms", "tps", "removed"});
  curb::sim::Summary lat_all;
  curb::sim::Summary tps_all;
  for (int round = 1; round <= kRounds; ++round) {
    if (round == inject_round) {
      for (const auto v : victims) {
        sim.network().controller(v).set_behavior(behavior);
        if (behavior == Behavior::kLazy) {
          // Per-message extra delay; total response time lands in the
          // paper's (200, 500) ms window given the ~270 ms pipeline.
          sim.network().controller(v).set_lazy_range(curb::sim::SimTime::millis(100),
                                                     curb::sim::SimTime::millis(200));
        }
      }
    }
    const RoundMetrics m = sim.run_packet_in_round();
    std::size_t removed = 0;
    const auto& byz = sim.network().controller(victims.empty() ? 0 : (victims[0] + 1) %
                                               sim.network().num_controllers())
                          .state()
                          .byzantine();
    for (const auto v : victims) {
      if (std::find(byz.begin(), byz.end(), v) != byz.end()) ++removed;
    }
    curb::bench::print_cell(static_cast<double>(round));
    curb::bench::print_cell(m.mean_latency_ms);
    curb::bench::print_cell(m.throughput_tps);
    curb::bench::print_cell(static_cast<double>(removed));
    curb::bench::end_row();
    lat_all.add(m.mean_latency_ms);
    tps_all.add(m.throughput_tps);
  }
  curb::bench::BenchResults::add(
      "fig4_byzantine",
      {{"experiment", name}, {"victims", std::to_string(victims.size())}},
      {{"latency_ms", lat_all.mean()},
       {"tps", tps_all.mean()},
       {"messages", static_cast<double>(sim.total_messages())}},
      &sim.network());
  (void)detection_window;
}

}  // namespace

int main() {
  curb::bench::print_header("Byzantine resilience", "Fig. 4(a)(b)(c)");

  {
    // Experiment 1: one silent node, detected after several timed-out
    // rounds (the paper waits ~4 rounds before declaring it byzantine; the
    // detection window is an s-agent policy, set here to match).
    CurbOptions opts = paper_options();
    // Match the paper's round-5 detection: each driver round yields ~2
    // timeout observations per switch (ingress + egress PKT-INs), so an
    // 8-observation window reports around driver round 5 and the
    // reassignment lands in round 6 (paper Fig. 4(a) timeline).
    opts.max_silent_rounds = 8;
    CurbSimulation sim{opts};
    const auto victims = pick_victims(sim, 1);
    run_series("Experiment 1: one silent byzantine node", sim, victims,
               Behavior::kSilent, /*inject_round=*/2, 4);
  }
  {
    // Experiment 2: three silent nodes in different groups.
    CurbOptions opts = paper_options();
    CurbSimulation sim{opts};
    const auto victims = pick_victims(sim, 3);
    run_series("Experiment 2: three silent byzantine nodes (distinct groups)", sim,
               victims, Behavior::kSilent, /*inject_round=*/2, 1);
  }
  {
    // Experiment 3: three lazy nodes (response 200-450 ms), tolerated for
    // max_lazy_rounds = 5 rounds and then removed.
    CurbOptions opts = paper_options();
    opts.max_lazy_rounds = 5;
    CurbSimulation sim{opts};
    const auto victims = pick_victims(sim, 3);
    run_series("Experiment 3: three lazy nodes (200-450 ms responses)", sim, victims,
               Behavior::kLazy, /*inject_round=*/2, 5);
  }
  {
    // Parallel vs non-parallel throughput under the lazy scenario
    // (Fig. 4(c) inset: parallel has ~2-3x the non-parallel throughput).
    std::printf("\n-- Parallel vs non-parallel (steady state, load 3/switch) --\n");
    curb::bench::print_row_header({"mode", "tps"});
    for (const bool parallel : {true, false}) {
      CurbOptions opts = paper_options();
      opts.parallel = parallel;
      CurbSimulation sim{opts};
      (void)sim.run_packet_in_round(2);  // warm-up
      curb::sim::Summary tps;
      for (int i = 0; i < 4; ++i) tps.add(sim.run_packet_in_round(2).throughput_tps);
      curb::bench::print_cell(std::string{parallel ? "parallel" : "non-parallel"});
      curb::bench::print_cell(tps.mean());
      curb::bench::end_row();
    }
  }
  return curb::bench::finish();
}
