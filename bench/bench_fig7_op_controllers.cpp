// Reproduces Fig. 7: number of controllers used by OP() vs D_c,s.
// Paper findings: higher D_c,s -> fewer controllers (wider reach per
// controller); TCR and LCR use the same count (both minimize usage first);
// adding the C2C constraint enrolls MORE controllers.

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

CapInstance internet2_instance(double max_cs_delay_ms, bool c2c) {
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
  for (std::size_t j = 0; j < ctls.size(); ++j) {
    for (std::size_t j2 = 0; j2 < ctls.size(); ++j2) {
      inst.cc_delay[j][j2] =
          lm.propagation_delay(topo.distance_km(ctls[j], ctls[j2])).as_millis_f();
    }
  }
  inst.max_cs_delay = max_cs_delay_ms;
  if (c2c) inst.max_cc_delay = 12.0;
  return inst;
}

/// Reassignment after removing one used controller; returns controllers
/// used by the chosen objective, or -1 when infeasible.
double used_after_reassign(double d, bool c2c, CapObjective objective) {
  CapInstance inst = internet2_instance(d, c2c);
  curb::opt::MilpOptions base_mo;
  base_mo.max_wall_ms = 3000.0;
  const CapResult base =
      curb::opt::solve_cap(inst, CapObjective::kTrivial, nullptr, base_mo);
  if (!base.feasible) return -1.0;
  std::size_t victim = 0;
  std::size_t best = SIZE_MAX;
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    const std::size_t count = base.assignment.switches_of(j).size();
    if (count > 0 && count < best) {
      best = count;
      victim = j;
    }
  }
  inst.byzantine[victim] = true;
  curb::opt::MilpOptions mo;
  mo.max_wall_ms = 3000.0;  // bound the quadratic-constraint blow-up
  const CapResult r = curb::opt::solve_cap(inst, objective, &base.assignment, mo);
  if (!r.feasible) return -1.0;
  return static_cast<double>(r.assignment.controllers_used());
}

}  // namespace

int main() {
  curb::bench::print_header("Controllers used by OP() vs D_c,s", "Fig. 7");
  curb::bench::print_row_header({"D_cs_ms", "TCR", "LCR", "TCR+C2C", "LCR+C2C"});
  for (const double d : {10.0, 11.0, 12.0, 14.0, 16.0, 18.0}) {
    curb::bench::print_cell(d);
    curb::bench::print_cell(used_after_reassign(d, false, CapObjective::kTrivial));
    curb::bench::print_cell(used_after_reassign(d, false, CapObjective::kLeastMovement));
    curb::bench::print_cell(used_after_reassign(d, true, CapObjective::kTrivial));
    curb::bench::print_cell(used_after_reassign(d, true, CapObjective::kLeastMovement));
    curb::bench::end_row();
  }
  std::printf("(-1.00 marks an infeasible configuration)\n");
  return curb::bench::finish();
}
