// Ablation: exact branch-and-bound OP() vs the greedy heuristic — solve
// time and controller usage across instance sizes. Justifies DESIGN.md's
// "exact MILP warm-started by greedy" choice: the heuristic alone can
// over-provision; the MILP alone can be slow without the warm start.

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/opt/cap.hpp"

namespace {

using curb::opt::CapInstance;
using curb::opt::CapResult;

CapInstance instance_for(std::size_t controllers, std::size_t switches,
                         std::uint64_t seed) {
  const auto topo = curb::net::random_geo_topology(controllers, switches, seed);
  const auto ctls = topo.nodes_of_kind(curb::net::NodeKind::kController);
  const auto sws = topo.nodes_of_kind(curb::net::NodeKind::kSwitch);
  const curb::net::LinkModel lm;
  CapInstance inst =
      CapInstance::uniform(sws.size(), ctls.size(), 4, 1.0,
                           2.0 + 4.0 * static_cast<double>(switches) /
                                     static_cast<double>(controllers));
  for (std::size_t i = 0; i < sws.size(); ++i) {
    for (std::size_t j = 0; j < ctls.size(); ++j) {
      inst.cs_delay[i][j] =
          lm.propagation_delay(topo.distance_km(sws[i], ctls[j])).as_millis_f();
    }
  }
  return inst;
}

}  // namespace

int main() {
  curb::bench::print_header("Exact MILP vs greedy heuristic", "solver ablation");
  curb::bench::print_row_header({"ctls", "switches", "milp_used", "greedy_used",
                                 "milp_ms", "greedy_ms", "milp_nodes"});
  for (const auto& [controllers, switches] :
       {std::pair<std::size_t, std::size_t>{8, 16},
        std::pair<std::size_t, std::size_t>{16, 34},
        std::pair<std::size_t, std::size_t>{24, 48},
        std::pair<std::size_t, std::size_t>{32, 64}}) {
    const CapInstance inst = instance_for(controllers, switches, 1234);

    curb::opt::MilpOptions mo;
    mo.max_wall_ms = 5000.0;
    const CapResult exact = curb::opt::solve_cap(inst, curb::opt::CapObjective::kTrivial,
                                                 nullptr, mo);

    const auto t0 = std::chrono::steady_clock::now();
    const auto greedy = curb::opt::greedy_assign(inst);
    const auto t1 = std::chrono::steady_clock::now();
    const double greedy_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    curb::bench::print_cell(static_cast<double>(controllers));
    curb::bench::print_cell(static_cast<double>(switches));
    curb::bench::print_cell(exact.feasible
                                ? static_cast<double>(exact.assignment.controllers_used())
                                : -1.0);
    curb::bench::print_cell(greedy ? static_cast<double>(greedy->controllers_used())
                                   : -1.0);
    curb::bench::print_cell(exact.stats.wall_time_ms);
    curb::bench::print_cell(greedy_ms);
    curb::bench::print_cell(static_cast<double>(exact.stats.milp_nodes));
    curb::bench::end_row();
  }
  return curb::bench::finish();
}
