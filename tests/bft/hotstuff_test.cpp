#include <gtest/gtest.h>

#include <map>
#include <string>

#include "curb/bft/group.hpp"
#include "curb/bft/replica.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::bft {
namespace {

using namespace curb::sim::literals;

PbftGroup::Options hs_options(std::size_t n = 4) {
  PbftGroup::Options opts;
  opts.group_size = n;
  opts.engine = ConsensusEngine::kHotstuff;
  return opts;
}

std::vector<std::uint8_t> payload(std::string_view s) { return {s.begin(), s.end()}; }

TEST(Hotstuff, EquivocatingLeaderCannotCommitConflicting) {
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("fork"));
  sim.run_until(300_ms);
  EXPECT_EQ(group.replicas_delivered_at_least(1), 0u);
}

TEST(Hotstuff, EquivocatingLeaderDeposedByViewChange) {
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("fork"));
  sim.run_until(3000_ms);
  EXPECT_GE(group.replica(1).view(), 1u);
  EXPECT_EQ(group.replica(1).view(), group.replica(2).view());
}

TEST(Hotstuff, LinearMessageComplexity) {
  // Per decision, HotStuff-style exchanges O(n) messages; PBFT O(n^2).
  auto count = [](ConsensusEngine engine, std::size_t n) {
    sim::Simulator sim;
    PbftGroup::Options opts;
    opts.group_size = n;
    opts.engine = engine;
    PbftGroup group{sim, opts};
    group.replica(0).propose({0x01});
    sim.run_until(400_ms);
    return group.messages_sent();
  };
  for (const std::size_t n : {7u, 13u}) {
    EXPECT_LT(count(ConsensusEngine::kHotstuff, n), count(ConsensusEngine::kPbft, n))
        << "n=" << n;
  }
  // Growth is ~linear: quadrupling n should far less than 16x the messages.
  const double small = static_cast<double>(count(ConsensusEngine::kHotstuff, 4));
  const double big = static_cast<double>(count(ConsensusEngine::kHotstuff, 16));
  EXPECT_LT(big / small, 8.0);
}

TEST(Hotstuff, IgnoresPbftTraffic) {
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  PbftMessage msg;
  msg.type = PbftMessage::Type::kPrePrepare;  // PBFT message to a HotStuff node
  msg.sender = 2;
  EXPECT_NO_THROW(group.replica(0).on_message(msg));
}

TEST(Hotstuff, RejectsForgedQc) {
  // A QC naming fewer than 2f+1 distinct voters must be ignored.
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  PbftMessage qc;
  qc.type = PbftMessage::Type::kQcCommit;
  qc.view = 0;
  qc.sequence = 1;
  qc.sender = 0;
  qc.qc_voters = {0, 0, 0};  // duplicates: only one distinct voter
  group.replica(1).on_message(qc);
  sim.run_until(50_ms);
  EXPECT_TRUE(group.delivered(1).empty());
}

TEST(ReplicaEngine, ConfigSelectsVoteRule) {
  // The same replica speaks PBFT or HotStuff by ReplicaConfig::engine.
  for (const auto& [engine, proposal] :
       {std::pair{ConsensusEngine::kPbft, PbftMessage::Type::kPrePrepare},
        std::pair{ConsensusEngine::kHotstuff, PbftMessage::Type::kProposal}}) {
    sim::Simulator sim;
    std::vector<PbftMessage> sent;
    ReplicaConfig cfg;
    cfg.engine = engine;
    Replica r{cfg, sim, [&sent](std::uint32_t, const PbftMessage& m) { sent.push_back(m); },
              [](std::uint64_t, const std::vector<std::uint8_t>&) {}};
    r.propose({0x01});
    ASSERT_EQ(sent.size(), 3u) << to_string(engine);
    for (const PbftMessage& m : sent) EXPECT_EQ(m.type, proposal) << to_string(engine);
  }
}

TEST(Hotstuff, SilentLeaderTimesOutWithMetricsAndSpans) {
  // One slot commits; the leader's next proposal goes out, then it falls
  // silent: no QC ever comes, followers time out and depose it. The shared
  // core records the bft.* instruments and slot spans for HotStuff too.
  sim::Simulator sim;
  obs::Observatory obs;
  obs.enable(sim);
  PbftGroup::Options opts = hs_options();
  opts.view_change_timeout = sim::SimTime::millis(100);
  opts.obs = &obs;
  PbftGroup group{sim, opts};
  group.replica(0).propose({0x01});
  sim.run_until(50_ms);
  EXPECT_EQ(group.replicas_delivered_at_least(1), 4u);
  group.replica(0).propose({0x02});
  group.replica(0).set_behavior(Behavior::kSilent);
  sim.run_until(1000_ms);
  EXPECT_GE(group.replica(1).view(), 1u);
  EXPECT_NE(group.current_leader().index(), 0u);

  const obs::Labels layer{{"layer", "hotstuff"}};
  EXPECT_GT(obs.metrics.counter("bft.timeouts_fired", layer).value(), 0u);
  EXPECT_GT(obs.metrics.counter("bft.view_changes", layer).value(), 0u);

  // Slot span on the proposal; .prepare until QC-prepare, .commit until
  // QC-commit, both under their slot on the replica's own track.
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  std::map<std::string, std::size_t> closed;
  for (const obs::SpanRecord& s : obs.tracer.spans()) {
    by_id[s.id] = &s;
    if (!s.open) ++closed[s.name];
  }
  for (const char* name : {"hotstuff", "hotstuff.prepare", "hotstuff.commit"}) {
    EXPECT_GE(closed[name], 4u) << name;
  }
  for (const obs::SpanRecord& s : obs.tracer.spans()) {
    if (s.name != "hotstuff.prepare" && s.name != "hotstuff.commit") continue;
    ASSERT_NE(s.parent, 0u) << s.name;
    EXPECT_EQ(by_id.at(s.parent)->name, "hotstuff");
    EXPECT_EQ(by_id.at(s.parent)->track, s.track);
  }
}

}  // namespace
}  // namespace curb::bft
