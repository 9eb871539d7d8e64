// Ablation / Theorem 1 validation: control-plane messages per round as the
// network grows, Curb's group-based design vs a flat PBFT control plane
// over all N controllers. Curb should grow ~linearly in N; flat PBFT
// quadratically. (This is the headline scalability claim of the paper.)
//
// Each scale's BENCH_results.json entry carries a "msg_complexity" section:
// the measured per-category wire counts for the measured round, the
// per-phase analytic bound from curb::obs::net::analytic_bound (c, gmax, k,
// N, R, B), their ratio, and a within_bound verdict — the machine-readable
// form of the Theorem 1 audit that curb-trace complexity runs over traces.

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "curb/core/baselines.hpp"
#include "curb/core/simulation.hpp"
#include "curb/net/topology.hpp"
#include "curb/obs/net/complexity.hpp"

namespace {

using curb::core::CurbOptions;
using curb::core::CurbSimulation;
using curb::core::FlatPbftBaseline;

void append_phases(std::ostringstream& out,
                   const curb::obs::net::PhasePrediction& p) {
  out << "{\"pkt_in\":" << p.pkt_in << ",\"intra_pbft\":" << p.intra_pbft
      << ",\"agree\":" << p.agree << ",\"final_pbft\":" << p.final_pbft
      << ",\"final_agree\":" << p.final_agree << ",\"reply\":" << p.reply
      << ",\"total\":" << p.total << "}";
}

/// Measured-vs-analytic audit of one round: per-category wire deltas
/// (MessageStats is always on, so this needs no observability), the phase
/// bound, and the verdict. Returns the raw ",\"msg_complexity\":{...}"
/// fragment BenchResults::add splices into the entry.
std::string msg_complexity_json(
    CurbSimulation& sim, const CurbOptions& opts,
    const std::map<std::string, std::uint64_t>& categories_before,
    std::uint64_t height_before, const curb::core::RoundMetrics& metrics,
    bool* within_bound) {
  using curb::obs::net::PhasePrediction;

  std::map<std::string, std::uint64_t> measured;
  for (const auto& [category, entry] : sim.network().bus().stats().categories()) {
    const auto before = categories_before.find(category);
    const std::uint64_t delta =
        entry.count - (before != categories_before.end() ? before->second : 0);
    if (delta > 0) measured[category] = delta;
  }
  const auto category = [&measured](const char* name) -> std::uint64_t {
    const auto it = measured.find(name);
    return it == measured.end() ? 0 : it->second;
  };
  PhasePrediction got;
  got.pkt_in = category("PKT-IN");
  got.intra_pbft = category("intra-pbft");
  got.agree = category("AGREE");
  got.final_pbft = category("final-pbft");
  got.final_agree = category("FINAL-AGREE");
  got.reply = category("REPLY");
  got.total = got.pkt_in + got.intra_pbft + got.agree + got.final_pbft +
              got.final_agree + got.reply;

  curb::obs::net::ComplexityParams params;
  params.c = 3 * opts.f + 1;
  params.gmax = params.c;
  const auto& state = sim.network().controller(0).state();
  for (const auto& group : state.groups()) {
    params.gmax = std::max<std::uint64_t>(params.gmax, group.members.size());
  }
  params.k = state.groups().size();
  params.n = sim.network().num_controllers();
  params.requests = metrics.issued;
  const curb::core::Controller& c0 = sim.network().controller(0);
  const std::uint64_t height = c0.has_blockchain() ? c0.blockchain().height() : 0;
  params.blocks = height > height_before ? height - height_before : 0;
  params.engine = curb::bft::to_string(opts.consensus_engine);
  const PhasePrediction bound = curb::obs::net::analytic_bound(params);

  const bool ok = got.pkt_in <= bound.pkt_in &&
                  got.intra_pbft <= bound.intra_pbft && got.agree <= bound.agree &&
                  got.final_pbft <= bound.final_pbft &&
                  got.final_agree <= bound.final_agree && got.reply <= bound.reply &&
                  got.total <= bound.total;
  if (within_bound != nullptr) *within_bound = ok;

  std::ostringstream out;
  out << ",\"msg_complexity\":{\"engine\":\"" << params.engine
      << "\",\"c\":" << params.c << ",\"gmax\":" << params.gmax
      << ",\"k\":" << params.k << ",\"n\":" << params.n
      << ",\"requests\":" << params.requests << ",\"blocks\":" << params.blocks
      << ",\"measured\":";
  append_phases(out, got);
  out << ",\"analytic\":";
  append_phases(out, bound);
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.3f",
                bound.total > 0 ? static_cast<double>(got.total) /
                                      static_cast<double>(bound.total)
                                : 0.0);
  out << ",\"ratio\":" << ratio << ",\"theorem1_per_round\":"
      << curb::obs::net::theorem1_messages(params.c, params.k, params.n)
      << ",\"within_bound\":" << (ok ? "true" : "false") << "}";
  return out.str();
}

std::map<std::string, std::uint64_t> category_counts(CurbSimulation& sim) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [category, entry] : sim.network().bus().stats().categories()) {
    counts[category] = entry.count;
  }
  return counts;
}

}  // namespace

int main() {
  curb::bench::print_header("Messages per handled request vs network size",
                            "Theorem 1 (O(N) vs O(N^2))");
  curb::bench::print_row_header({"controllers", "switches", "curb_pbft/req",
                                 "curb_hs/req", "flat_pbft/req", "curb_total",
                                 "flat_total", "bound_ok"});
  bool all_within = true;
  for (const std::size_t scale : {1u, 2u, 3u, 4u}) {
    const std::size_t controllers = 8 * scale;
    const std::size_t switches = 16 * scale;
    const auto topo = curb::net::random_geo_topology(controllers, switches, 77);

    CurbOptions opts;
    opts.controller_capacity = 10.0;  // keeps group count growing with N
    opts.op_time_mode = curb::core::OpTimeMode::kFixed;
    CurbSimulation curb_sim{topo, opts};
    (void)curb_sim.run_packet_in_round();  // warm-up
    const auto categories_before = category_counts(curb_sim);
    const curb::core::Controller& c0 = curb_sim.network().controller(0);
    const std::uint64_t height_before =
        c0.has_blockchain() ? c0.blockchain().height() : 0;
    const auto curb_m = curb_sim.run_packet_in_round();
    bool within_bound = false;
    const std::string complexity = msg_complexity_json(
        curb_sim, opts, categories_before, height_before, curb_m, &within_bound);
    all_within = all_within && within_bound;

    CurbOptions hs_opts = opts;
    hs_opts.consensus_engine = curb::bft::ConsensusEngine::kHotstuff;
    CurbSimulation hs_sim{topo, hs_opts};
    (void)hs_sim.run_packet_in_round();
    const auto hs_m = hs_sim.run_packet_in_round();

    FlatPbftBaseline flat{topo, opts};
    (void)flat.run_round(switches);
    const auto flat_m = flat.run_round(switches);

    const double curb_per_req =
        curb_m.accepted > 0
            ? static_cast<double>(curb_m.messages) / static_cast<double>(curb_m.accepted)
            : -1.0;
    const double flat_per_req =
        flat_m.accepted > 0
            ? static_cast<double>(flat_m.messages) / static_cast<double>(flat_m.accepted)
            : -1.0;
    const double hs_per_req =
        hs_m.accepted > 0
            ? static_cast<double>(hs_m.messages) / static_cast<double>(hs_m.accepted)
            : -1.0;
    curb::bench::print_cell(static_cast<double>(controllers));
    curb::bench::print_cell(static_cast<double>(switches));
    curb::bench::print_cell(curb_per_req);
    curb::bench::print_cell(hs_per_req);
    curb::bench::print_cell(flat_per_req);
    curb::bench::print_cell(static_cast<double>(curb_m.messages));
    curb::bench::print_cell(static_cast<double>(flat_m.messages));
    curb::bench::print_cell(std::string{within_bound ? "yes" : "NO"});
    curb::bench::end_row();

    curb::bench::export_obs_from_env(curb_sim.network());
    curb::bench::BenchResults::add(
        "msg_complexity",
        {{"controllers", std::to_string(controllers)},
         {"switches", std::to_string(switches)},
         {"f", std::to_string(opts.f)}},
        {{"curb_pbft_per_req", curb_per_req},
         {"curb_hs_per_req", hs_per_req},
         {"flat_pbft_per_req", flat_per_req},
         {"curb_messages", static_cast<double>(curb_m.messages)},
         {"flat_messages", static_cast<double>(flat_m.messages)}},
        &curb_sim.network(), complexity);
  }
  std::printf(
      "\nExpected shape: curb msgs/req stays near-constant (O(N) total for O(N)\n"
      "requests) with hotstuff below pbft (O(c) vs O(c^2) per group decision);\n"
      "flat_pbft/req grows ~linearly in N (O(N^2) total); bound_ok asserts the\n"
      "measured round stays inside the Theorem 1 per-phase analytic bound.\n");
  if (!all_within) {
    std::printf("WARNING: a measured round exceeded the analytic bound\n");
  }
  return curb::bench::finish();
}
