#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "curb/bft/replica.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::bft {

/// Self-contained BFT group harness: n replicas exchanging messages over a
/// uniform-delay in-memory link. Used by tests and by standalone BFT
/// benchmarks; the Curb core wires replicas over the geographic MessageBus
/// instead.
class PbftGroup {
 public:
  struct Options {
    std::size_t group_size = 4;
    sim::SimTime link_delay = sim::SimTime::millis(1);
    sim::SimTime view_change_timeout = kViewChangeTimeout;
    ConsensusEngine engine = ConsensusEngine::kPbft;
    /// Observability (nullptr disables): spans go on track "replica-<i>"
    /// and spans and metrics are named after the engine.
    obs::Observatory* obs = nullptr;
  };

  PbftGroup(sim::Simulator& sim, Options options) : sim_{sim}, options_{options} {
    delivered_.resize(options.group_size);
    for (std::uint32_t i = 0; i < options.group_size; ++i) {
      ReplicaConfig cfg;
      cfg.engine = options.engine;
      cfg.replica_index = i;
      cfg.group_size = options.group_size;
      cfg.view_change_timeout = options.view_change_timeout;
      cfg.obs = options.obs;
      cfg.span_track = "replica-" + std::to_string(i);
      cfg.span_prefix = to_string(options.engine);
      replicas_.push_back(std::make_unique<Replica>(
          cfg, sim,
          [this, i](std::uint32_t dest, const PbftMessage& msg) {
            ++messages_sent_;
            sim_.schedule(options_.link_delay,
                          [this, dest, msg] { replicas_[dest]->on_message(msg); });
          },
          [this, i](std::uint64_t seq, const std::vector<std::uint8_t>& payload) {
            delivered_[i].push_back({seq, payload});
          }));
    }
  }

  [[nodiscard]] Replica& replica(std::uint32_t i) { return *replicas_[i]; }
  [[nodiscard]] std::size_t size() const { return replicas_.size(); }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }

  struct Delivery {
    std::uint64_t sequence;
    std::vector<std::uint8_t> payload;

    bool operator==(const Delivery&) const = default;
  };
  [[nodiscard]] const std::vector<Delivery>& delivered(std::uint32_t i) const {
    return delivered_[i];
  }

  /// Leader of the current view of replica 0 (all agree in steady state).
  [[nodiscard]] Replica& current_leader() {
    return *replicas_[replicas_[0]->leader_index()];
  }

  /// Count of replicas that have delivered at least `n` payloads.
  [[nodiscard]] std::size_t replicas_delivered_at_least(std::size_t n) const {
    std::size_t count = 0;
    for (const auto& d : delivered_) count += (d.size() >= n) ? 1 : 0;
    return count;
  }

 private:
  sim::Simulator& sim_;
  Options options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::vector<Delivery>> delivered_;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace curb::bft
