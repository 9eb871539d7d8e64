#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "curb/core/simulation.hpp"
#include "curb/crypto/sha256.hpp"
#include "curb/crypto/sigcache.hpp"
#include "curb/net/topology.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/observatory.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

/// Paper-default options tuned for fast tests: Internet2-scale constraints
/// but fixed OP compute delay for determinism.
CurbOptions test_options() {
  CurbOptions opts;
  opts.max_cs_delay_ms = 10.0;
  opts.controller_capacity = 12.0;
  opts.op_time_mode = OpTimeMode::kFixed;
  return opts;
}

/// A small fast deployment (8 controllers / 10 switches, several groups).
CurbSimulation small_sim(CurbOptions opts = test_options()) {
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  return CurbSimulation{net::random_geo_topology(8, 10, 99), opts};
}

TEST(CurbNetwork, InitializationSatisfiesPaperConstraints) {
  CurbSimulation sim{test_options()};
  const auto& state = sim.network().genesis_state();
  const auto& opts = sim.network().options();
  // [C1.1] every switch governed by >= 3f+1 controllers.
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    EXPECT_GE(state.group(state.group_of_switch(sw)).members.size(), 3 * opts.f + 1);
  }
  // [C1.3] all C2S links within D_c,s.
  for (const auto& g : state.groups()) {
    for (const std::uint32_t sw : g.switches) {
      for (const std::uint32_t c : g.members) {
        EXPECT_LE(sim.network().cs_delay_ms(sw, c), opts.max_cs_delay_ms + 1e-9);
      }
    }
  }
  // [C1.2] capacity respected.
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_LE(state.assignment().switches_of(c).size(),
              static_cast<std::size_t>(opts.controller_capacity));
  }
  // finalCom has 3f+1 members; leader has the highest id.
  EXPECT_EQ(state.final_committee().size(), 3 * opts.f + 1);
  EXPECT_EQ(state.final_leader(), state.final_committee().back());
}

TEST(CurbNetwork, PaperGenesisSolveStopsAtProvenBound) {
  // Internet2 paper calibration (f = 1, capacity 12, D_cs 14 ms). The
  // capacity bound ceil(34 switches * 4 / 12) = 12 proves the first
  // 12-controller incumbent optimal, so both exact backends stop there,
  // well inside a node budget that the exhaustive search overruns.
  CurbOptions opts;
  opts.controller_capacity = 12.0;
  opts.max_cs_delay_ms = 14.0;
  const CurbNetwork network{net::internet2(), opts};
  const opt::CapInstance instance = network.build_cap_instance({});
  opt::MilpOptions limits;
  limits.max_nodes = 200;
  for (const auto backend : {opt::CapSolverBackend::kDense, opt::CapSolverBackend::kSparse}) {
    SCOPED_TRACE(opt::to_string(backend));
    const opt::CapResult result =
        opt::solve_cap_with(backend, instance, opt::CapObjective::kTrivial, nullptr, limits);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.stats.proven);
    EXPECT_EQ(result.assignment.controllers_used(), 12u);
  }
}

TEST(CurbNetwork, GenesisBlockSharedByAllControllers) {
  CurbSimulation sim{test_options()};
  const auto genesis_hash = sim.network().genesis_block().hash();
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_EQ(sim.network().controller(c).blockchain().genesis().hash(), genesis_hash);
  }
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbIntegration, PacketInRoundAllAccepted) {
  CurbSimulation sim{test_options()};
  const RoundMetrics m = sim.run_packet_in_round();
  // 34 ingress PKT-INs plus the egress-switch PKT-INs for arriving packets.
  EXPECT_GE(m.issued, sim.network().num_switches());
  EXPECT_EQ(m.accepted, m.issued);
  EXPECT_GT(m.mean_latency_ms, 0.0);
  EXPECT_LT(m.mean_latency_ms, 500.0);  // all within the request timeout
  EXPECT_TRUE(sim.chains_consistent());
  EXPECT_GT(sim.chain_height(), 0u);
}

TEST(CurbIntegration, PacketsDeliveredEndToEnd) {
  CurbSimulation sim{test_options()};
  (void)sim.run_packet_in_round();
  // Every packet sent in the round must eventually reach its destination
  // host (flow rules installed at ingress + egress, PACKET_OUT released).
  std::size_t delivered = 0;
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    delivered += sim.network().switch_node(sw).delivered_packets().size();
  }
  EXPECT_EQ(delivered, sim.network().num_switches());
}

TEST(CurbIntegration, FlowRulesRecordedOnChain) {
  CurbSimulation sim{test_options()};
  (void)sim.run_packet_in_round();
  const auto& chain = sim.network().controller(0).blockchain();
  EXPECT_GT(chain.total_transactions(), sim.network().num_switches());
  // Every accepted request must correspond to an on-chain transaction.
  std::size_t on_chain_pktin = 0;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions()) {
      if (tx.type() == chain::RequestType::kPacketIn) ++on_chain_pktin;
    }
  }
  EXPECT_GE(on_chain_pktin, sim.network().num_switches());
}

TEST(CurbIntegration, MultipleRoundsStayConsistent) {
  auto sim = small_sim();
  for (int round = 0; round < 3; ++round) {
    const RoundMetrics m = sim.run_packet_in_round();
    EXPECT_EQ(m.accepted, m.issued) << "round " << round;
  }
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbIntegration, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto sim = small_sim();
    (void)sim.run_packet_in_round();
    (void)sim.run_packet_in_round();
    return std::make_pair(sim.total_messages(), sim.chain_height());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(CurbIntegration, ReassignmentProbeRoundCompletes) {
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.reass_always_solve = true;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  const RoundMetrics m = sim.run_reassignment_round(3);
  EXPECT_EQ(m.issued, 3u);
  EXPECT_EQ(m.accepted, m.issued);
  EXPECT_TRUE(sim.chains_consistent());
  EXPECT_GT(sim.chain_height(), 0u);
}

TEST(CurbIntegration, ConcurrentConflictingAccusationsEventuallyResolve) {
  // Three switches accuse three DIFFERENT controllers at once. The
  // reassignments race, but the monotone byzantine set guarantees every
  // accusation is eventually absorbed (paper exp. 2 removes three byzantine
  // nodes in one round; across groups it may take a few chained blocks).
  auto sim = small_sim();
  const auto& state = sim.network().genesis_state();
  // Accuse three distinct non-leader controllers.
  std::vector<std::uint32_t> accused;
  for (std::uint32_t c = 0; c < sim.network().num_controllers() && accused.size() < 3;
       ++c) {
    bool is_leader = false;
    for (const auto& g : state.groups()) is_leader |= g.leader == c;
    if (!is_leader) accused.push_back(c);
  }
  ASSERT_EQ(accused.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    sim.network().switch_node(i).request_reassignment({accused[i]});
  }
  sim.network().simulator().run_until(sim.network().simulator().now() +
                                      sim::SimTime::seconds(10));

  const auto& final_state = sim.network().controller(0).state();
  for (const std::uint32_t a : accused) {
    EXPECT_TRUE(std::find(final_state.byzantine().begin(), final_state.byzantine().end(),
                          a) != final_state.byzantine().end())
        << "controller " << a << " not excluded";
    EXPECT_FALSE(final_state.assignment().controller_used(a));
  }
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbByzantine, BadConfigControllerDetectedAndRemoved) {
  auto sim = small_sim();
  // Pick a controller serving switch 0 that is NOT the group leader.
  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_bad_config(true);

  (void)sim.run_packet_in_round();
  (void)sim.run_packet_in_round();

  // Some switch reported the liar...
  bool reported = false;
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    reported |= sim.network().switch_node(sw).reported_byzantine().contains(victim);
  }
  EXPECT_TRUE(reported);
  // ...and the committed reassignment excludes it from every group.
  bool reassigned = false;
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    if (c == victim) continue;
    const auto& cur = sim.network().controller(c).state();
    if (cur.epoch() > 0) {
      reassigned = true;
      EXPECT_FALSE(cur.assignment().controller_used(victim));
      EXPECT_TRUE(std::find(cur.byzantine().begin(), cur.byzantine().end(), victim) !=
                  cur.byzantine().end());
    }
  }
  EXPECT_TRUE(reassigned);
}

TEST(CurbByzantine, SilentFollowerDetectedAndRemoved) {
  auto sim = small_sim();
  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);

  (void)sim.run_packet_in_round();
  (void)sim.run_packet_in_round();
  (void)sim.run_packet_in_round();

  bool excluded = false;
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    if (c == victim) continue;
    const auto& cur = sim.network().controller(c).state();
    if (cur.epoch() > 0 && !cur.assignment().controller_used(victim)) excluded = true;
  }
  EXPECT_TRUE(excluded);
  // The network still serves requests after the reassignment.
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.accepted, 0u);
}

TEST(CurbByzantine, SilentLeaderRecovered) {
  auto sim = small_sim();
  const auto& state = sim.network().genesis_state();
  const std::uint32_t victim = state.group(state.group_of_switch(0)).leader;
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);

  for (int round = 0; round < 4; ++round) (void)sim.run_packet_in_round();

  // Requests to the victim's group eventually succeed again (view change or
  // reassignment recovered the group).
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_EQ(m.accepted, m.issued);
}

TEST(CurbByzantine, LazyControllerFlaggedAfterWindow) {
  CurbOptions opts = test_options();
  opts.max_lazy_rounds = 3;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};

  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_behavior(bft::Behavior::kLazy);
  sim.network().controller(victim).set_lazy_range(250_ms, 400_ms);

  for (int round = 0; round < 6; ++round) (void)sim.run_packet_in_round();

  bool reported = false;
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    reported |= sim.network().switch_node(sw).reported_byzantine().contains(victim);
  }
  EXPECT_TRUE(reported);
}

TEST(CurbModes, ParallelBeatsNonParallelThroughput) {
  CurbOptions parallel = test_options();
  parallel.parallel = true;
  CurbOptions serial = test_options();
  serial.parallel = false;

  CurbSimulation p{parallel};
  CurbSimulation s{serial};
  // Average a few rounds each.
  double tps_p = 0.0;
  double tps_s = 0.0;
  for (int i = 0; i < 2; ++i) tps_p += p.run_packet_in_round().throughput_tps;
  for (int i = 0; i < 2; ++i) tps_s += s.run_packet_in_round().throughput_tps;
  EXPECT_GT(tps_p, tps_s);
}

TEST(CurbScalability, MessagesPerRoundGrowLinearly) {
  // Theorem 1: message complexity O(N). Doubling network size should scale
  // messages by ~2x, far below the ~4x a flat O(N^2) protocol would show.
  CurbOptions opts;
  opts.controller_capacity = 10.0;
  opts.op_time_mode = OpTimeMode::kFixed;

  CurbSimulation small{net::random_geo_topology(8, 16, 7), opts};
  CurbSimulation big{net::random_geo_topology(16, 32, 7), opts};
  const auto m_small = small.run_packet_in_round();
  const auto m_big = big.run_packet_in_round();
  ASSERT_GT(m_small.messages, 0u);
  const double ratio =
      static_cast<double>(m_big.messages) / static_cast<double>(m_small.messages);
  EXPECT_LT(ratio, 3.2);  // linear-ish (2x size -> ~2x messages, slack for overlap)
  EXPECT_GT(ratio, 1.2);
}

TEST(CurbIntegration, SignedTransactionsVerify) {
  // With signature verification on, every transaction carries a real ECDSA
  // signature from its handling leader, and the chain verifies end to end.
  CurbOptions opts = test_options();
  opts.verify_signatures = true;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_EQ(m.accepted, m.issued);
  const auto& chain = sim.network().controller(0).blockchain();
  std::size_t verified = 0;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions()) {
      ASSERT_TRUE(tx.signature().has_value());
      EXPECT_TRUE(
          tx.verify(sim.network().controller(tx.controller_id()).public_key()));
      // And a wrong key must not verify.
      const auto other = (tx.controller_id() + 1) % sim.network().num_controllers();
      EXPECT_FALSE(tx.verify(sim.network().controller(other).public_key()));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

TEST(CurbIntegration, MerkleProofForServedRequest) {
  // Verifiability: a switch (or auditor) can check any flow update against
  // just the block header via a Merkle inclusion proof.
  auto sim = small_sim();
  (void)sim.run_packet_in_round();
  const auto& chain = sim.network().controller(0).blockchain();
  ASSERT_GT(chain.height(), 0u);
  const auto& block = chain.at(1);
  ASSERT_FALSE(block.transactions().empty());
  const auto proof = block.merkle_proof(0);
  EXPECT_TRUE(
      chain::Block::verify_inclusion(block.transactions()[0], proof, block.header()));
}

TEST(CurbIntegration, HotstuffEngineServesRounds) {
  // The paper notes Curb works with other BFT engines (Tendermint,
  // HotStuff); swap in the linear-communication engine and re-check the
  // round invariants plus the message saving.
  CurbOptions pbft_opts = test_options();
  pbft_opts.controller_capacity = 8.0;
  pbft_opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbOptions hs_opts = pbft_opts;
  hs_opts.consensus_engine = bft::ConsensusEngine::kHotstuff;

  const auto topo = net::random_geo_topology(8, 10, 99);
  CurbSimulation pbft_sim{topo, pbft_opts};
  CurbSimulation hs_sim{topo, hs_opts};

  const RoundMetrics pm = pbft_sim.run_packet_in_round();
  const RoundMetrics hm = hs_sim.run_packet_in_round();
  EXPECT_EQ(hm.accepted, hm.issued);
  EXPECT_TRUE(hs_sim.chains_consistent());
  // Same workload, fewer consensus messages with leader-aggregated voting.
  EXPECT_LT(hm.messages, pm.messages);
}

TEST(CurbIntegration, HotstuffSurvivesSilentFollower) {
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.consensus_engine = bft::ConsensusEngine::kHotstuff;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);
  for (int round = 0; round < 3; ++round) (void)sim.run_packet_in_round();
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.accepted, 0u);
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbNorthbound, PolicyDenyBlocksTrafficEverywhere) {
  auto sim = small_sim();
  // Baseline: host 0 -> host 3 flows.
  sim.network().switch_node(0).host_send(3);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  const std::size_t delivered_before =
      sim.network().switch_node(3).delivered_packets().size();
  EXPECT_EQ(delivered_before, 1u);

  // An application denies 0 -> 3 via ANY controller's northbound API.
  sdn::PolicyRule rule{0, 3, sdn::PolicyRule::Action::kDeny, 10};
  sim.network().controller(2).submit_policy(rule);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);

  // Every controller's replicated policy table agrees.
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_FALSE(sim.network().controller(c).policy_table().allows(0, 3)) << c;
    EXPECT_TRUE(sim.network().controller(c).policy_table().allows(3, 0)) << c;
  }
  // And the update is on the chain.
  bool on_chain = false;
  const auto& chain_db = sim.network().controller(0).blockchain();
  for (std::uint64_t h = 1; h <= chain_db.height(); ++h) {
    for (const auto& tx : chain_db.at(h).transactions()) {
      on_chain |= tx.type() == chain::RequestType::kPolicyUpdate;
    }
  }
  EXPECT_TRUE(on_chain);

  // New flow setups for the denied pair get a drop rule, not a path.
  sim.network().switch_node(0).reset_flow_table();
  sim.network().switch_node(0).host_send(3);
  sim.network().switch_node(0).host_send(4);  // unrelated pair still works
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  EXPECT_EQ(sim.network().switch_node(3).delivered_packets().size(), delivered_before);
  EXPECT_EQ(sim.network().switch_node(4).delivered_packets().size(), 1u);
}

TEST(CurbNorthbound, PolicyRemoveRestoresTraffic) {
  auto sim = small_sim();
  const sdn::PolicyRule rule{0, 3, sdn::PolicyRule::Action::kDeny, 10};
  sim.network().controller(0).submit_policy(rule);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  ASSERT_FALSE(sim.network().controller(1).policy_table().allows(0, 3));

  sim.network().controller(0).submit_policy(rule, Controller::PolicyOp::kRemove);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_TRUE(sim.network().controller(c).policy_table().allows(0, 3)) << c;
  }
  sim.network().switch_node(0).host_send(3);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  EXPECT_EQ(sim.network().switch_node(3).delivered_packets().size(), 1u);
}

TEST(CurbObservability, DisabledByDefault) {
  CurbSimulation sim{test_options()};
  EXPECT_EQ(sim.network().observatory(), nullptr);
  // Instrumented paths must still work with the observatory off.
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_EQ(m.accepted, m.issued);
}

TEST(CurbObservability, PacketInRoundProducesProtocolSpanTree) {
  CurbOptions opts = test_options();
  opts.observability = true;
  CurbSimulation sim{opts};
  ASSERT_NE(sim.network().observatory(), nullptr);
  (void)sim.run_packet_in_round();

  const obs::Tracer& tracer = sim.network().observatory()->tracer;
  std::map<std::string, std::size_t> by_name;
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : tracer.spans()) {
    ++by_name[s.name];
    by_id[s.id] = &s;
  }
  // Every protocol stage of the Curb pipeline shows up at least once.
  for (const char* stage :
       {"pkt_in", "intra_pbft", "intra_pbft.pre_prepare", "intra_pbft.prepare",
        "intra_pbft.commit", "agree", "final_pbft", "final_pbft.prepare",
        "final_pbft.commit", "block_commit", "reply_quorum"}) {
    EXPECT_GT(by_name[stage], 0u) << "missing protocol stage span: " << stage;
  }
  // Phase spans nest under their slot span on the same replica track.
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "intra_pbft.prepare" && s.name != "intra_pbft.commit") continue;
    ASSERT_NE(s.parent, 0u) << s.name << " must not be a root span";
    const obs::SpanRecord& parent = *by_id.at(s.parent);
    EXPECT_EQ(parent.name, "intra_pbft");
    EXPECT_EQ(parent.track, s.track);
    EXPECT_GE(s.start, parent.start);
  }
  // reply_quorum hangs directly off the switch's pkt_in request span.
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "reply_quorum") continue;
    ASSERT_NE(s.parent, 0u);
    EXPECT_EQ(by_id.at(s.parent)->name, "pkt_in");
    EXPECT_EQ(by_id.at(s.parent)->track, s.track);
  }
  // Cross-controller keyed stages closed exactly once (nothing left open).
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "agree" || s.name == "block_commit") {
      EXPECT_FALSE(s.open) << s.name << " span never closed";
    }
  }
  // Tracks exist for switches, controllers, and the shared protocol rail.
  std::set<std::string> tracks{tracer.tracks().begin(), tracer.tracks().end()};
  EXPECT_TRUE(tracks.contains("protocol"));
  EXPECT_TRUE(tracks.contains("sw-0"));
  EXPECT_TRUE(tracks.contains("ctrl-0"));
}

TEST(CurbObservability, MetricsCoverHotPaths) {
  CurbOptions opts = test_options();
  opts.observability = true;
  CurbSimulation sim{opts};
  const RoundMetrics m = sim.run_packet_in_round();
  sim.network().snapshot_runtime_metrics();

  obs::MetricsRegistry& reg = sim.network().observatory()->metrics;
  EXPECT_EQ(reg.counter("core.rounds").value(), 1u);
  EXPECT_EQ(reg.histogram("core.request_latency_us").count(), m.accepted);
  EXPECT_GT(reg.counter("net.messages", {{"category", "REPLY"}}).value(), 0u);
  EXPECT_GT(reg.counter("net.bytes", {{"category", "REPLY"}}).value(), 0u);
  EXPECT_GT(reg.histogram("net.delay_us", {{"category", "REPLY"}}).count(), 0u);
  EXPECT_GT(reg.gauge("sim.events_executed").value(), 0.0);
  EXPECT_GT(reg.gauge("sim.queue_high_water").value(), 0.0);
  // Per-controller chain metrics follow the shared chain height.
  EXPECT_EQ(reg.gauge("chain.height", {{"owner", "ctrl-0"}}).value(),
            static_cast<double>(sim.chain_height()));
}

TEST(CurbObservability, TraceByteIdenticalAcrossIdenticalRuns) {
  auto run_once = [] {
    CurbOptions opts = test_options();
    opts.observability = true;
    auto sim = small_sim(opts);
    (void)sim.run_packet_in_round();
    (void)sim.run_packet_in_round();
    sim.network().snapshot_runtime_metrics();
    std::stringstream trace;
    std::stringstream jsonl;
    std::stringstream metrics;
    obs::write_chrome_trace(sim.network().observatory()->tracer, trace);
    obs::write_spans_jsonl(sim.network().observatory()->tracer, jsonl);
    obs::write_metrics_json(sim.network().observatory()->metrics, metrics);
    return trace.str() + "\x1e" + jsonl.str() + "\x1e" + metrics.str();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_once());
}

TEST(CurbObservability, ViewChangeLeavesNoOpenSlotSpans) {
  CurbOptions opts = test_options();
  opts.observability = true;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  const auto& state = sim.network().genesis_state();
  const std::uint32_t victim = state.group(state.group_of_switch(0)).leader;
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);
  for (int round = 0; round < 4; ++round) (void)sim.run_packet_in_round();

  const obs::Tracer& tracer = sim.network().observatory()->tracer;
  bool saw_view_change = false;
  for (const obs::SpanRecord& s : tracer.spans()) {
    saw_view_change |= s.name == "intra_pbft.view_change";
    // Slot/phase spans on the silenced group must have been reset, not
    // leaked open, when the view changed.
    if (s.name == "intra_pbft.prepare" || s.name == "intra_pbft.commit") {
      EXPECT_FALSE(s.open) << "phase span leaked open across view change";
    }
  }
  EXPECT_TRUE(saw_view_change);
  EXPECT_GT(sim.network()
                .observatory()
                ->metrics.counter("bft.view_changes", {{"layer", "intra_pbft"}})
                .value(),
            0u);
}

TEST(CurbSimulationApi, ActiveSwitchSubsetting) {
  CurbSimulation sim{test_options()};
  sim.set_active_switches(4);
  EXPECT_EQ(sim.active_switches(), 4u);
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GE(m.issued, 4u);
  EXPECT_LE(m.issued, 8u);  // 4 ingress + at most 4 egress PKT-INs
  sim.set_active_switches(9999);
  EXPECT_EQ(sim.active_switches(), sim.network().num_switches());
}

/// Restore the process-wide signature cache to its default state no matter
/// how the test exits — other suites in this binary share the singleton.
struct SigCacheGuard {
  ~SigCacheGuard() {
    crypto::SigCache::instance().set_enabled(true);
    crypto::SigCache::instance().clear();
  }
};

TEST(CurbIntegration, SigCacheOnOffRunsAreByteIdentical) {
  // The cache only short-circuits a pure function: a hit returns exactly
  // what re-verification would. Same-seed runs with the cache on vs. off
  // must therefore be byte-identical in every simulation-visible output —
  // trace spans, chain state, and round metrics. (Runtime *gauges* differ
  // by design — sigcache hit/miss counters are host-side telemetry — so the
  // comparison covers spans, not the metrics registry; see DESIGN.md §15.)
  const SigCacheGuard guard;
  auto run_once = [](bool cache_on) {
    crypto::SigCache::instance().set_enabled(cache_on);
    crypto::SigCache::instance().clear();
    CurbOptions opts = test_options();
    opts.verify_signatures = true;
    opts.observability = true;
    opts.controller_capacity = 8.0;
    opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
    CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
    const RoundMetrics m = sim.run_packet_in_round();
    std::stringstream out;
    obs::write_spans_jsonl(sim.network().observatory()->tracer, out);
    out << "\x1e" << m.issued << ',' << m.accepted << ',' << m.messages << ','
        << m.mean_latency_ms << ',' << m.round_duration_ms;
    const auto& chain = sim.network().controller(0).blockchain();
    out << "\x1e" << crypto::to_hex(chain.at(chain.height()).hash());
    return out.str();
  };
  const std::string with_cache = run_once(true);
  const std::string without_cache = run_once(false);
  EXPECT_EQ(with_cache, without_cache);
  // And the cached run actually exercised the cache.
  crypto::SigCache::instance().set_enabled(true);
  crypto::SigCache::instance().clear();
  const auto before = crypto::SigCache::instance().stats();
  (void)run_once(true);
  const auto after = crypto::SigCache::instance().stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.misses, before.misses);
}

TEST(CurbIntegration, CorruptFaultsNeverPoisonTheSignatureCache) {
  // Corruption flips payload bytes after signing; the corrupted tuple's
  // cache key (keyed by digest) differs from the pristine one, so a
  // tampered message can neither reuse a pristine verdict nor poison it.
  // The run must complete with consistent chains, and every committed
  // transaction must still verify through the cache afterwards.
  const SigCacheGuard guard;
  crypto::SigCache::instance().set_enabled(true);
  crypto::SigCache::instance().clear();
  CurbOptions opts = test_options();
  opts.verify_signatures = true;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.fault_spec = "corrupt(p=0.3,cat=AGREE)";
  opts.fault_seed = 7;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.issued, 0u);
  const auto& chain = sim.network().controller(0).blockchain();
  std::size_t verified = 0;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions()) {
      ASSERT_TRUE(tx.signature().has_value());
      EXPECT_TRUE(
          tx.verify(sim.network().controller(tx.controller_id()).public_key()));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
  // All controllers agree on the committed prefix despite the corruption.
  const std::uint64_t height = chain.height();
  for (std::uint32_t c = 1; c < sim.network().num_controllers(); ++c) {
    const auto& other = sim.network().controller(c).blockchain();
    const std::uint64_t min_height = std::min(height, other.height());
    EXPECT_EQ(other.at(min_height).hash(), chain.at(min_height).hash());
  }
}

}  // namespace
}  // namespace curb::core
