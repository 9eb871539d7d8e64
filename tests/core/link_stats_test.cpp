// Link-telemetry and Theorem 1 auditor integration: real CurbSimulation
// runs with the send observer on, pinning the conservation invariant
// (per-link counters sum exactly to the bus totals), deterministic exports,
// and the complexity auditor's clean-vs-faulted verdicts.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "curb/core/simulation.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/net/complexity.hpp"
#include "curb/obs/net/link_stats.hpp"
#include "curb/obs/net/report.hpp"
#include "curb/obs/observatory.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

CurbOptions telemetry_options() {
  CurbOptions opts;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.controller_capacity = 8.0;
  opts.op_time_mode = OpTimeMode::kFixed;
  opts.observability = true;  // brings the per-link counters
  opts.msg_ledger = true;
  return opts;
}

CurbSimulation telemetry_sim(CurbOptions opts = telemetry_options()) {
  return CurbSimulation{net::random_geo_topology(8, 10, 99), opts};
}

void expect_conservation(CurbNetwork& network) {
  const obs::net::LinkStats* links = network.link_stats();
  ASSERT_NE(links, nullptr);
  // Per-link message/byte sums equal the bus totals exactly — every
  // accounted send (drops included) is attributed to exactly one link.
  std::uint64_t link_msgs = 0, link_bytes = 0;
  for (const auto& [key, entry] : links->links()) {
    link_msgs += entry.msgs;
    link_bytes += entry.bytes;
  }
  EXPECT_EQ(link_msgs, network.bus().stats().total_messages());
  EXPECT_EQ(link_bytes, network.bus().stats().total_bytes());
  EXPECT_EQ(links->total_msgs(), link_msgs);
  // Category totals are the same sends regrouped.
  std::uint64_t category_msgs = 0;
  for (const auto& [category, totals] : links->categories()) {
    category_msgs += totals.msgs;
  }
  EXPECT_EQ(category_msgs, link_msgs);
}

TEST(LinkTelemetry, CleanRunConservesAndSatisfiesBound) {
  CurbSimulation sim = telemetry_sim();
  for (int round = 0; round < 2; ++round) {
    const RoundMetrics m = sim.run_packet_in_round(2);
    ASSERT_EQ(m.issued, m.accepted);
  }
  expect_conservation(sim.network());
  EXPECT_EQ(sim.network().link_stats()->total_dups(), 0u);

  const obs::TraceAnalysis analysis =
      obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer);
  const auto rounds = obs::net::extract_round_complexity(analysis.spans());
  ASSERT_EQ(rounds.size(), 2u);
  for (const obs::net::RoundComplexity& rc : rounds) {
    EXPECT_TRUE(rc.bounded);
    EXPECT_FALSE(rc.exceeds) << "round " << rc.round << " measured "
                             << rc.control_total << " vs bound " << rc.bound.total;
    EXPECT_GT(rc.control_total, 0u);
    EXPECT_LE(rc.control_total, rc.bound.total);
    EXPECT_EQ(rc.dup_wire, 0u);
  }
  for (const obs::Finding& f : analysis.findings()) {
    EXPECT_NE(f.detector, "complexity_bound")
        << "clean run flagged: " << f.message;
  }

  // The ledger's wire total covers every accounted send (no dups here).
  const obs::net::MsgLedger* ledger = sim.network().msg_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->total_msgs(), sim.network().bus().stats().total_messages());
}

TEST(LinkTelemetry, DuplicateFaultIsFlaggedAndStaysConserved) {
  CurbOptions opts = telemetry_options();
  opts.fault_spec = "dup(p=1,cat=AGREE,copies=1)";
  CurbSimulation sim = telemetry_sim(opts);
  (void)sim.run_packet_in_round(2);

  // Duplicates are wire-only: the conservation sum is untouched, the dup
  // counters carry the extra copies.
  expect_conservation(sim.network());
  const obs::net::LinkStats* links = sim.network().link_stats();
  EXPECT_GT(links->total_dups(), 0u);
  EXPECT_EQ(links->category_dups("AGREE"), links->total_dups());

  // Wire view: ledger rows count msgs + dups.
  EXPECT_EQ(sim.network().msg_ledger()->total_msgs(),
            sim.network().bus().stats().total_messages() + links->total_dups());

  const obs::TraceAnalysis analysis =
      obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer);
  const auto rounds = obs::net::extract_round_complexity(analysis.spans());
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_TRUE(rounds[0].exceeds);
  EXPECT_GT(rounds[0].dup_wire, 0u);
  EXPECT_GT(rounds[0].phase_measured.agree, rounds[0].bound.agree);
  bool flagged = false;
  for (const obs::Finding& f : analysis.findings()) {
    flagged = flagged || f.detector == "complexity_bound";
  }
  EXPECT_TRUE(flagged);
}

TEST(LinkTelemetry, SameSeedRunsExportIdenticalReports) {
  std::string matrix[2], csv[2], dot[2], complexity[2], ledger[2];
  for (int run = 0; run < 2; ++run) {
    CurbSimulation sim = telemetry_sim();
    (void)sim.run_packet_in_round(2);
    (void)sim.run_packet_in_round(2);
    const obs::net::NodeNameFn names = sim.network().link_node_names();
    obs::net::LinkReportOptions options;
    options.bandwidth_bps = sim.network().options().link_model.bandwidth_bps;
    options.elapsed_s = sim.network().simulator().now().as_seconds_f();
    std::ostringstream m, c, d, x, l;
    obs::net::write_link_matrix_json(*sim.network().link_stats(), names, options, m);
    obs::net::write_link_matrix_csv(*sim.network().link_stats(), names, options, c);
    obs::net::write_link_dot(*sim.network().link_stats(), names, options, d);
    const obs::TraceAnalysis analysis =
        obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer);
    obs::net::write_complexity_json(obs::net::extract_round_complexity(analysis.spans()),
                                    x);
    obs::net::write_ledger_jsonl(*sim.network().msg_ledger(), l);
    matrix[run] = m.str();
    csv[run] = c.str();
    dot[run] = d.str();
    complexity[run] = x.str();
    ledger[run] = l.str();
  }
  EXPECT_EQ(matrix[0], matrix[1]);
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(dot[0], dot[1]);
  EXPECT_EQ(complexity[0], complexity[1]);
  EXPECT_EQ(ledger[0], ledger[1]);
  EXPECT_NE(matrix[0].find("\"links\":["), std::string::npos);
  EXPECT_NE(complexity[0].find("\"violations\":0"), std::string::npos);
}

TEST(LinkTelemetry, UtilizationGaugesPublishTopLinks) {
  CurbSimulation sim = telemetry_sim();
  (void)sim.run_packet_in_round(2);
  sim.network().snapshot_runtime_metrics();
  obs::MetricsRegistry& registry = sim.network().observatory()->metrics;
  EXPECT_GT(registry.gauge("net.links_active").value(), 0.0);
  EXPECT_GE(registry.gauge("net.link_util_max").value(), 0.0);
}

}  // namespace
}  // namespace curb::core
