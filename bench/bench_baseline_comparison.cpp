// Control-plane design comparison on Internet2 (34 switches, one PKT-IN
// per switch): Curb vs the prior-art architectures the paper positions
// against (Section II): a single centralized controller, a MORPH-style
// primary-backup comparator scheme [4]/[5], and a flat SimpleBFT-style
// PBFT control plane [1]. Latency and message cost quantify the price of
// each trust level.

#include <cstdio>

#include "common.hpp"
#include "curb/core/baselines.hpp"
#include "curb/core/simulation.hpp"
#include "curb/net/topology.hpp"

namespace {

using curb::core::CurbOptions;
using curb::core::CurbSimulation;
using curb::core::RoundMetrics;

void print_row(const char* name, const RoundMetrics& m, const char* guarantees) {
  curb::bench::print_cell(std::string{name});
  curb::bench::print_cell(m.mean_latency_ms);
  curb::bench::print_cell(m.accepted > 0 ? static_cast<double>(m.messages) /
                                               static_cast<double>(m.accepted)
                                         : -1.0);
  curb::bench::print_cell(std::string{guarantees});
  curb::bench::end_row();
}

}  // namespace

int main() {
  curb::bench::print_header("Control-plane architectures on Internet2",
                            "Section II comparison (extension table)");
  curb::bench::print_row_header({"architecture", "latency_ms", "msgs/req", "guarantees"});

  const auto topo = curb::net::internet2();
  const std::size_t switches = 34;

  {
    curb::core::SingleControllerBaseline single{topo, {}};
    (void)single.run_round(switches);
    print_row("single-controller", single.run_round(switches), "none");
  }
  {
    curb::core::PrimaryBackupBaseline pb{topo, {}};
    (void)pb.run_round(switches);
    print_row("primary-backup", pb.run_round(switches), "detect-only");
  }
  {
    CurbOptions opts;
    opts.controller_capacity = 12.0;
    opts.max_cs_delay_ms = 14.0;
    opts.op_time_mode = curb::core::OpTimeMode::kFixed;
    curb::core::FlatPbftBaseline flat{topo, opts};
    (void)flat.run_round(switches);
    print_row("flat-pbft", flat.run_round(switches), "BFT, O(N^2) msgs");
  }
  for (const auto engine :
       {curb::bft::ConsensusEngine::kPbft, curb::bft::ConsensusEngine::kHotstuff}) {
    CurbOptions opts;
    opts.controller_capacity = 12.0;
    opts.max_cs_delay_ms = 14.0;
    opts.op_time_mode = curb::core::OpTimeMode::kFixed;
    opts.consensus_engine = engine;
    CurbSimulation sim{topo, opts};
    (void)sim.run_packet_in_round();
    const char* name = engine == curb::bft::ConsensusEngine::kPbft
                           ? "curb (pbft groups)"
                           : "curb (hotstuff)";
    print_row(name, sim.run_packet_in_round(), "BFT+chain, O(N)");
  }
  std::printf(
      "\nNote: baselines run without the 15 ms per-message calibration\n"
      "overhead or blockchain pipeline; the latency column shows the\n"
      "inherent cost ladder of each design, the msgs/req column the\n"
      "communication price Curb's grouping avoids at scale.\n");
  return curb::bench::finish();
}
