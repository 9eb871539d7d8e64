// Reproduces Fig. 8: percentage of dynamic links (PDL) vs D_c,s after a
// reassignment. Paper findings: PDL grows with D_c,s (fewer controllers,
// each carrying more links, so replacing one churns more); LCR < TCR (its
// objective penalizes changed links); the leader constraint lowers PDL.

#include <cstdio>

#include "common.hpp"
#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/opt/cap.hpp"

namespace {

using curb::opt::Assignment;
using curb::opt::CapInstance;
using curb::opt::CapObjective;
using curb::opt::CapResult;

CapInstance internet2_instance(double max_cs_delay_ms) {
  const auto topo = curb::net::internet2();
  const auto ctls = topo.nodes_of_kind(curb::net::NodeKind::kController);
  const auto sws = topo.nodes_of_kind(curb::net::NodeKind::kSwitch);
  const curb::net::LinkModel lm;
  CapInstance inst = CapInstance::uniform(sws.size(), ctls.size(), 4, 1.0, 34.0);
  for (std::size_t i = 0; i < sws.size(); ++i) {
    for (std::size_t j = 0; j < ctls.size(); ++j) {
      inst.cs_delay[i][j] =
          lm.propagation_delay(topo.distance_km(sws[i], ctls[j])).as_millis_f();
    }
  }
  inst.max_cs_delay = max_cs_delay_ms;
  return inst;
}

/// Mean PDL over every possible single-controller removal (alternate optima
/// make a single-victim measurement a knife edge; the paper's trend lives
/// in the average behaviour).
double pdl_after_reassign(double d, CapObjective objective, bool leader_constraint) {
  const CapInstance base_inst = internet2_instance(d);
  curb::opt::MilpOptions mo;
  mo.max_wall_ms = 2000.0;
  const CapResult base =
      curb::opt::solve_cap(base_inst, CapObjective::kTrivial, nullptr, mo);
  if (!base.feasible) return -1.0;

  double pdl_sum = 0.0;
  std::size_t feasible_victims = 0;
  for (std::size_t victim = 0; victim < base_inst.num_controllers; ++victim) {
    if (base.assignment.switches_of(victim).empty()) continue;
    CapInstance inst = base_inst;
    inst.byzantine[victim] = true;
    if (leader_constraint) {
      for (std::size_t sw = 0; sw < inst.num_switches; ++sw) {
        for (const std::size_t m : base.assignment.group_of(sw)) {
          if (m != victim) {
            inst.fixed_leader[sw] = static_cast<int>(m);
            break;
          }
        }
      }
    }
    const CapResult r = curb::opt::solve_cap(inst, objective, &base.assignment, mo);
    if (!r.feasible) continue;
    pdl_sum += 100.0 * Assignment::pdl(base.assignment, r.assignment);
    ++feasible_victims;
  }
  if (feasible_victims == 0) return -1.0;
  return pdl_sum / static_cast<double>(feasible_victims);
}

}  // namespace

int main() {
  curb::bench::print_header("Percentage of dynamic links vs D_c,s", "Fig. 8");
  curb::bench::print_row_header(
      {"D_cs_ms", "TCR_%", "LCR_%", "TCR+leader_%", "LCR+leader_%"});
  for (const double d : {10.0, 11.0, 12.0, 14.0, 16.0, 18.0}) {
    curb::bench::print_cell(d);
    curb::bench::print_cell(pdl_after_reassign(d, CapObjective::kTrivial, false));
    curb::bench::print_cell(pdl_after_reassign(d, CapObjective::kLeastMovement, false));
    curb::bench::print_cell(pdl_after_reassign(d, CapObjective::kTrivial, true));
    curb::bench::print_cell(pdl_after_reassign(d, CapObjective::kLeastMovement, true));
    curb::bench::end_row();
  }
  std::printf("(-1.00 marks an infeasible configuration)\n");
  return curb::bench::finish();
}
