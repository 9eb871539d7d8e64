// Fault-matrix harness (curb::fault): runs Algorithm 1 end-to-end under each
// fault class with <= f faulty controllers and asserts the three safety
// invariants plus liveness, reproducibility, and the curb-trace anomaly
// cross-check:
//   S1. no two live replicas commit different blocks at the same height
//       (prefix consistency via the hash chain),
//   S2. every config a switch accepted is backed by a committed on-chain
//       transaction for that (switch, request),
//   S3. acceptance always required f+1 matching REPLYs from distinct
//       controllers (exercised adversarially by dup + bogus-reply combos).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "curb/core/simulation.hpp"
#include "curb/fault/injector.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/export.hpp"
#include "curb/opt/cap.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

CurbOptions faulted_options(const std::string& spec, std::uint64_t seed) {
  CurbOptions opts;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.op_time_mode = OpTimeMode::kFixed;
  opts.observability = true;  // anomaly cross-check needs the tracer
  opts.fault_spec = spec;
  opts.fault_seed = seed;
  return opts;
}

/// 8 controllers / 10 switches (f = 1, several PBFT groups), `rounds`
/// PKT-IN rounds under the given fault plan.
struct MatrixRun {
  explicit MatrixRun(const std::string& spec, std::uint64_t seed = 1,
                     std::size_t rounds = 3)
      : sim{net::random_geo_topology(8, 10, 99), faulted_options(spec, seed)} {
    for (std::size_t i = 0; i < rounds; ++i) {
      metrics.push_back(sim.run_packet_in_round());
    }
  }

  [[nodiscard]] CurbNetwork& network() { return sim.network(); }

  /// S1: every pair of live chains agrees on the longest common prefix.
  /// Hash links make the tip-of-prefix comparison equivalent to comparing
  /// every block up to min height.
  void expect_prefix_consistent() {
    const Controller* ref = nullptr;
    for (std::uint32_t c = 0; c < network().num_controllers(); ++c) {
      const Controller& ctrl = network().controller(c);
      if (ctrl.crashed() || !ctrl.has_blockchain()) continue;
      if (ref == nullptr) {
        ref = &ctrl;
        continue;
      }
      const std::uint64_t min_height =
          std::min(ref->blockchain().height(), ctrl.blockchain().height());
      EXPECT_EQ(ctrl.blockchain().at(min_height).hash(),
                ref->blockchain().at(min_height).hash())
          << "controller " << ctrl.id() << " forked from controller " << ref->id()
          << " at or before height " << min_height;
    }
  }

  /// S2: every accepted request appears as a committed transaction on the
  /// tallest live chain.
  void expect_accepted_on_chain() {
    const Controller* tallest = nullptr;
    for (std::uint32_t c = 0; c < network().num_controllers(); ++c) {
      const Controller& ctrl = network().controller(c);
      if (ctrl.crashed() || !ctrl.has_blockchain()) continue;
      if (tallest == nullptr ||
          ctrl.blockchain().height() > tallest->blockchain().height()) {
        tallest = &ctrl;
      }
    }
    ASSERT_NE(tallest, nullptr);
    std::set<std::pair<std::uint32_t, std::uint64_t>> on_chain;
    for (std::uint64_t h = 0; h <= tallest->blockchain().height(); ++h) {
      for (const chain::Transaction& tx : tallest->blockchain().at(h).transactions()) {
        on_chain.insert({tx.switch_id(), tx.request_id()});
      }
    }
    for (std::uint32_t sw = 0; sw < network().num_switches(); ++sw) {
      for (const auto& record : network().switch_node(sw).records()) {
        if (!record.accepted) continue;
        EXPECT_TRUE(on_chain.contains({network().switch_node(sw).id(),
                                       record.request_id}))
            << "switch " << sw << " accepted request " << record.request_id
            << " with no committed on-chain transaction";
      }
    }
  }

  [[nodiscard]] bool fault_anomaly_flagged() {
    const obs::TraceAnalysis analysis =
        obs::TraceAnalysis::from_tracer(network().observatory()->tracer);
    return std::any_of(analysis.findings().begin(), analysis.findings().end(),
                       [](const obs::Finding& f) {
                         return f.detector == "fault_injection";
                       });
  }

  CurbSimulation sim;
  std::vector<RoundMetrics> metrics;
};

struct MatrixCase {
  const char* name;
  const char* spec;
  /// Whether the final round is expected to serve every request (benign
  /// link noise) or merely make progress (partitions, crashes, byzantine).
  bool expect_full_final_round;
};

const MatrixCase kMatrix[] = {
    {"drop-reply-ctrl1", "drop(cat=REPLY,src=ctrl1)", false},
    // Mild jitter: small enough that the per-hop delays cannot accumulate
    // past the s-agent reply timeout, so full service is preserved.
    {"delay-all", "delay(p=0.5,min=1,max=6)", true},
    // Heavy jitter degrades service (replies trail past the reply timeout)
    // but must never break safety.
    {"delay-heavy", "delay(p=0.5,min=5,max=30)", false},
    {"dup-reply", "dup(cat=REPLY,copies=2)", true},
    {"corrupt-reply-ctrl2", "corrupt(cat=REPLY,src=ctrl2)", false},
    {"partition-ctrl1", "partition(a=ctrl1,b=*,until=800)", false},
    {"crash-restart-ctrl1", "crash(node=ctrl1,at=100,down=700)", false},
    {"byz-silent", "byz(node=ctrl1,mode=silent)", false},
    {"byz-lazy", "byz(node=ctrl1,mode=lazy)", false},
    {"byz-equivocate", "byz(node=ctrl1,mode=equivocate)", false},
    {"byz-selective-silent", "byz(node=ctrl1,mode=selective-silent)", false},
    {"byz-stale-view", "byz(node=ctrl1,mode=stale-view)", false},
    {"byz-bogus-reply", "byz(node=ctrl1,mode=bogus-reply)", false},
};

TEST(FaultMatrix, SafetyHoldsUnderEveryFaultClass) {
  for (const MatrixCase& c : kMatrix) {
    SCOPED_TRACE(c.name);
    MatrixRun run{c.spec};
    run.expect_prefix_consistent();
    run.expect_accepted_on_chain();
    // Liveness with <= f faulty: the system keeps serving requests.
    const RoundMetrics& final_round = run.metrics.back();
    EXPECT_GT(final_round.issued, 0u);
    if (c.expect_full_final_round) {
      EXPECT_EQ(final_round.accepted, final_round.issued);
    } else {
      EXPECT_GT(final_round.accepted, 0u);
    }
    // curb-trace cross-check: every injected fault class is flagged.
    EXPECT_TRUE(run.fault_anomaly_flagged())
        << "no fault_injection finding for an injected fault";
  }
}

TEST(FaultMatrix, CleanRunReportsNoFaultAnomalies) {
  MatrixRun run{""};
  EXPECT_EQ(run.network().fault_injector(), nullptr);
  for (const RoundMetrics& m : run.metrics) EXPECT_EQ(m.accepted, m.issued);
  run.expect_prefix_consistent();
  run.expect_accepted_on_chain();
  EXPECT_FALSE(run.fault_anomaly_flagged());
}

TEST(FaultMatrix, LinkFaultsActuallyFire) {
  MatrixRun run{"drop(p=0.2,cat=REPLY);delay(p=0.3,min=5,max=40)"};
  const fault::FaultInjector* injector = run.network().fault_injector();
  ASSERT_NE(injector, nullptr);
  const auto& counts = injector->fired_counts();
  EXPECT_GT(counts.at(fault::FaultKind::kDrop), 0u);
  EXPECT_GT(counts.at(fault::FaultKind::kDelay), 0u);
}

TEST(FaultMatrix, DuplicatedBogusRepliesCannotReachQuorum) {
  // A byzantine controller sends corrupted configs AND the network
  // duplicates its REPLYs threefold: replays from one controller must never
  // stack into the f+1 quorum, so every accepted config is the honest one
  // and stays backed by the chain.
  MatrixRun run{"byz(node=ctrl1,mode=bogus-reply);dup(cat=REPLY,src=ctrl1,copies=3)"};
  run.expect_prefix_consistent();
  run.expect_accepted_on_chain();
  EXPECT_GT(run.metrics.back().accepted, 0u);
}

TEST(FaultMatrix, SameSeedAndSpecReproduceByteIdenticalTraces) {
  const std::string spec = "drop(p=0.3,cat=REPLY);delay(p=0.3,min=1,max=20)";
  auto run_trace = [&spec] {
    MatrixRun run{spec, /*seed=*/7, /*rounds=*/2};
    std::ostringstream jsonl;
    obs::write_spans_jsonl(run.network().observatory()->tracer, jsonl);
    return std::move(jsonl).str();
  };
  const std::string first = run_trace();
  const std::string second = run_trace();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

}  // namespace
}  // namespace curb::core
