#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "curb/bft/replica.hpp"
#include "curb/core/messages.hpp"
#include "curb/core/options.hpp"
#include "curb/core/simulation.hpp"
#include "curb/net/message_bus.hpp"
#include "curb/net/topology.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::core {

/// Flat BFT control plane baseline (SimpleBFT/BeaconBFT-style, paper ref
/// [1]): every controller is a replica of ONE PBFT group of size N; every
/// request is sequenced by the global leader and replied to by all
/// replicas. Message complexity per request is O(N^2) — the cost Curb's
/// group-based design eliminates (Theorem 1 validation).
class FlatPbftBaseline {
 public:
  FlatPbftBaseline(net::Topology topology, CurbOptions options);

  /// Each of the first `requesters` switches issues one request; returns
  /// the same round metrics the Curb driver produces.
  RoundMetrics run_round(std::size_t requesters);

  [[nodiscard]] std::uint64_t total_messages() const { return bus_->stats().total_messages(); }
  [[nodiscard]] std::size_t num_controllers() const { return controller_nodes_.size(); }
  [[nodiscard]] std::size_t num_switches() const { return switch_nodes_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  struct Request {
    std::uint32_t switch_id;
    std::uint64_t request_id;
    sim::SimTime sent;
    std::optional<sim::SimTime> accepted;
    std::map<std::vector<std::uint8_t>, std::set<std::uint32_t>> replies;
  };

  void on_controller_message(std::uint32_t controller, const CurbMessage& msg);
  void on_switch_reply(std::uint32_t switch_id, const ReplyMsg& reply);

  net::Topology topology_;
  CurbOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<net::MessageBus<CurbMessage>> bus_;
  std::vector<net::NodeId> controller_nodes_;
  std::vector<net::NodeId> switch_nodes_;
  std::vector<std::unique_ptr<bft::Replica>> replicas_;
  std::vector<Request> requests_;
  std::uint64_t next_request_id_ = 1;
  std::size_t quorum_ = 0;  // f+1 over the global group
};

/// Single centralized controller baseline: no replication, no consensus.
/// Fast until the controller saturates; zero byzantine tolerance. The
/// per-request service time models the paper's "centralized controller
/// communication bottleneck" discussion.
class SingleControllerBaseline {
 public:
  struct Options {
    net::LinkModel link_model{};
    /// Mean service time per request at the controller.
    sim::SimTime service_time = sim::SimTime::millis(2);
  };

  SingleControllerBaseline(net::Topology topology, Options options);

  RoundMetrics run_round(std::size_t requesters);

  [[nodiscard]] std::uint64_t total_messages() const { return bus_->stats().total_messages(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  net::Topology topology_;
  Options options_;
  sim::Simulator sim_;
  std::unique_ptr<net::MessageBus<CurbMessage>> bus_;
  net::NodeId controller_node_;
  std::vector<net::NodeId> switch_nodes_;
  sim::SimTime controller_busy_until_ = sim::SimTime::zero();
  struct Request {
    std::uint32_t switch_id;
    std::uint64_t request_id;
    sim::SimTime sent;
    std::optional<sim::SimTime> accepted;
  };
  std::vector<Request> requests_;
  std::uint64_t next_request_id_ = 1;
};

/// MORPH-style primary-backup baseline (paper refs [4]/[5]): each switch is
/// served by f+1 controllers whose replies a switch-side comparator checks
/// for agreement (no consensus among controllers, no blockchain). Fast —
/// one round trip — but provides no ordering, no verifiable history, and a
/// disagreement can only be detected, not resolved, at the switch.
class PrimaryBackupBaseline {
 public:
  struct Options {
    std::size_t f = 1;  // replicas per switch = f + 1
    net::LinkModel link_model{};
    sim::SimTime request_timeout = sim::SimTime::millis(500);
  };

  PrimaryBackupBaseline(net::Topology topology, Options options);

  RoundMetrics run_round(std::size_t requesters);

  /// Make a controller reply with corrupted configs (comparator test).
  void set_bad_config(std::uint32_t controller_id, bool enabled);
  /// Requests whose replies disagreed (comparator alarms).
  [[nodiscard]] std::uint64_t mismatches_detected() const { return mismatches_; }
  [[nodiscard]] std::uint64_t total_messages() const { return bus_->stats().total_messages(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// The f+1 controllers serving a switch (nearest-first).
  [[nodiscard]] const std::vector<std::uint32_t>& replicas_of(std::uint32_t switch_id) const {
    return assignment_[switch_id];
  }

 private:
  struct Request {
    std::uint32_t switch_id;
    std::uint64_t request_id;
    sim::SimTime sent;
    std::optional<sim::SimTime> accepted;
    std::map<std::uint32_t, std::vector<std::uint8_t>> replies;
  };

  void on_switch_reply(std::uint32_t switch_id, const ReplyMsg& reply);

  net::Topology topology_;
  Options options_;
  sim::Simulator sim_;
  std::unique_ptr<net::MessageBus<CurbMessage>> bus_;
  std::vector<net::NodeId> controller_nodes_;
  std::vector<net::NodeId> switch_nodes_;
  std::vector<std::vector<std::uint32_t>> assignment_;  // switch -> f+1 controllers
  std::vector<bool> bad_config_;
  std::vector<Request> requests_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t mismatches_ = 0;
};

}  // namespace curb::core
