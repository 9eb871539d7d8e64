// Reproduces Fig. 6: OP() solve time vs D_c,s for the two reassignment
// solvers (TCR, LCR) under three constraint sets:
//   base            — [O2] + [C2.1..C2.3] + [C2.5]
//   +leader         — adds the leader-fixing constraint [C2.6]
//   +C2C            — adds the quadratic C2C-delay constraint [C2.4]
// Paper findings to reproduce: the leader constraint is nearly free; the
// C2C constraint (an IQCP for Gurobi, a large pair-exclusion family here)
// costs far more; TCR is slightly cheaper than LCR; D_c,s hardly matters.

#include <cstdio>

#include "common.hpp"
#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/opt/cap.hpp"
#include "curb/sim/stats.hpp"

namespace {

using curb::opt::Assignment;
using curb::opt::CapInstance;
using curb::opt::CapObjective;
using curb::opt::CapResult;

constexpr int kRepetitions = 3;

/// Internet2-derived CAP instance (f = 1, uncapped capacity so the D_c,s
/// delay constraint is what binds — the regime Figs. 6-8 explore).
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
  for (std::size_t j = 0; j < ctls.size(); ++j) {
    for (std::size_t j2 = 0; j2 < ctls.size(); ++j2) {
      inst.cc_delay[j][j2] =
          lm.propagation_delay(topo.distance_km(ctls[j], ctls[j2])).as_millis_f();
    }
  }
  inst.max_cs_delay = max_cs_delay_ms;
  return inst;
}

/// Reassignment scenario: solve the base problem, mark one used non-leader
/// controller byzantine, and measure the re-solve (exactly what a Curb
/// leader runs for a RE-ASS request).
struct Scenario {
  CapInstance instance;
  Assignment previous;
  std::size_t victim = 0;
};

Scenario make_scenario(double max_cs_delay_ms, bool leader_constraint,
                       bool c2c_constraint) {
  Scenario s{internet2_instance(max_cs_delay_ms), {}, 0};
  const CapResult base = curb::opt::solve_cap(s.instance);
  if (!base.feasible) return s;
  s.previous = base.assignment;
  // Victim: the used controller serving the fewest switches (always
  // removable when every switch has spare eligible controllers).
  std::size_t best_count = SIZE_MAX;
  for (std::size_t j = 0; j < s.instance.num_controllers; ++j) {
    const std::size_t count = base.assignment.switches_of(j).size();
    if (count > 0 && count < best_count) {
      best_count = count;
      s.victim = j;
    }
  }
  s.instance.byzantine[s.victim] = true;
  if (leader_constraint) {
    for (std::size_t sw = 0; sw < s.instance.num_switches; ++sw) {
      const auto group = base.assignment.group_of(sw);
      // Leader = lowest member id (Curb's default), unless it is the victim.
      for (const std::size_t m : group) {
        if (m != s.victim) {
          s.instance.fixed_leader[sw] = static_cast<int>(m);
          break;
        }
      }
    }
  }
  if (c2c_constraint) {
    s.instance.max_cc_delay = 12.0;  // ~2400 km controller-to-controller
  }
  return s;
}

double measure_ms(const Scenario& s, CapObjective objective) {
  if (s.previous.num_switches() == 0) return -1.0;
  curb::opt::MilpOptions mo;
  // The quadratic-constraint instances can blow the branch-and-bound tree
  // up (the paper sees the same blow-up as Gurobi IQCP time); bound the
  // node budget so a sweep cell costs seconds, not minutes.
  mo.max_wall_ms = 3000.0;  // generous; only hard C2C cells ever hit it
  curb::sim::Summary times;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const CapResult r = curb::opt::solve_cap(s.instance, objective, &s.previous, mo);
    if (!r.feasible) return -1.0;
    times.add(r.stats.wall_time_ms);
  }
  return times.mean();
}

}  // namespace

int main() {
  curb::bench::print_header("OP() reassignment solve time vs D_c,s", "Fig. 6");
  curb::bench::print_row_header({"D_cs_ms", "TCR_ms", "LCR_ms", "TCR+leader_ms",
                                 "LCR+leader_ms", "TCR+C2C_ms", "LCR+C2C_ms"});
  for (const double d : {10.0, 11.0, 12.0, 14.0, 16.0, 18.0}) {
    const Scenario base = make_scenario(d, false, false);
    const Scenario leader = make_scenario(d, true, false);
    const Scenario c2c = make_scenario(d, false, true);
    curb::bench::print_cell(d);
    curb::bench::print_cell(measure_ms(base, CapObjective::kTrivial));
    curb::bench::print_cell(measure_ms(base, CapObjective::kLeastMovement));
    curb::bench::print_cell(measure_ms(leader, CapObjective::kTrivial));
    curb::bench::print_cell(measure_ms(leader, CapObjective::kLeastMovement));
    curb::bench::print_cell(measure_ms(c2c, CapObjective::kTrivial));
    curb::bench::print_cell(measure_ms(c2c, CapObjective::kLeastMovement));
    curb::bench::end_row();
  }
  std::printf("(-1.00 marks an infeasible configuration)\n");
  return curb::bench::finish();
}
