#include "curb/core/baselines.hpp"

#include <algorithm>

#include "curb/core/codec.hpp"

namespace curb::core {

using namespace curb::sim::literals;

FlatPbftBaseline::FlatPbftBaseline(net::Topology topology, CurbOptions options)
    : topology_{std::move(topology)}, options_{options}, sim_{options.seed} {
  bus_ = std::make_unique<net::MessageBus<CurbMessage>>(sim_, topology_,
                                                        options_.link_model);
  controller_nodes_ = topology_.nodes_of_kind(net::NodeKind::kController);
  switch_nodes_ = topology_.nodes_of_kind(net::NodeKind::kSwitch);
  const std::size_t n = controller_nodes_.size();
  if (n < 4) throw std::invalid_argument{"FlatPbftBaseline: need >= 4 controllers"};
  const std::size_t f = (n - 1) / 3;
  quorum_ = f + 1;

  for (std::uint32_t i = 0; i < n; ++i) {
    bft::ReplicaConfig cfg;
    cfg.replica_index = i;
    cfg.group_size = n;
    cfg.view_change_timeout = options_.pbft_timeout;
    replicas_.push_back(std::make_unique<bft::Replica>(
        cfg, sim_,
        [this, i](std::uint32_t dest, const bft::PbftMessage& msg) {
          PbftEnvelope envelope{0, 0, msg};
          bus_->send(controller_nodes_[i], controller_nodes_[dest],
                     CurbMessage{envelope}, envelope.wire_size(), "flat-pbft");
        },
        [this, i](std::uint64_t, const std::vector<std::uint8_t>& payload) {
          // Committed: every replica replies to the requesting switch.
          const auto txs = deserialize_tx_list(payload);
          for (const auto& tx : txs) {
            ReplyMsg reply{i, tx.switch_id(), tx.request_id(), tx.config()};
            bus_->send(controller_nodes_[i], switch_nodes_[tx.switch_id()],
                       CurbMessage{reply}, reply.wire_size(), "REPLY");
          }
        }));
    bus_->attach(controller_nodes_[i], [this, i](net::NodeId, const CurbMessage& msg) {
      on_controller_message(i, msg);
    });
  }
  for (std::uint32_t s = 0; s < switch_nodes_.size(); ++s) {
    bus_->attach(switch_nodes_[s], [this, s](net::NodeId, const CurbMessage& msg) {
      if (const auto* reply = std::get_if<ReplyMsg>(&msg)) {
        if (reply->switch_id == s) on_switch_reply(s, *reply);
      }
    });
  }
}

void FlatPbftBaseline::on_controller_message(std::uint32_t controller,
                                             const CurbMessage& msg) {
  if (const auto* envelope = std::get_if<PbftEnvelope>(&msg)) {
    replicas_[controller]->on_message(envelope->message);
    return;
  }
  if (const auto* request = std::get_if<sdn::RequestMsg>(&msg)) {
    // Only the leader sequences requests.
    if (!replicas_[controller]->is_leader()) return;
    chain::Transaction tx{request->type, request->switch_id, controller,
                          request->request_id, std::vector<std::uint8_t>{0x01}};
    replicas_[controller]->propose(serialize_tx_list({tx}));
  }
}

void FlatPbftBaseline::on_switch_reply(std::uint32_t switch_id, const ReplyMsg& reply) {
  for (auto& request : requests_) {
    if (request.switch_id != switch_id || request.request_id != reply.request_id ||
        request.accepted) {
      continue;
    }
    auto& senders = request.replies[reply.config];
    senders.insert(reply.controller_id);
    if (senders.size() >= quorum_) request.accepted = sim_.now();
    return;
  }
}

RoundMetrics FlatPbftBaseline::run_round(std::size_t requesters) {
  const sim::SimTime round_start = sim_.now();
  const std::uint64_t messages_before = bus_->stats().total_messages();
  requests_.clear();

  const std::size_t n = std::min(requesters, switch_nodes_.size());
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint64_t id = next_request_id_++;
    requests_.push_back({s, id, sim_.now(), std::nullopt, {}});
    sdn::RequestMsg request{chain::RequestType::kPacketIn, s, id, {}};
    // SimpleBFT-style: the switch broadcasts to all replicas.
    for (const net::NodeId ctl : controller_nodes_) {
      bus_->send(switch_nodes_[s], ctl, CurbMessage{request}, request.wire_size(),
                 "PKT-IN");
    }
  }
  sim_.run_until(round_start + options_.request_timeout * 4 + 2_s);

  RoundMetrics metrics;
  sim::SimTime last_accept = round_start;
  double latency_sum = 0.0;
  for (const auto& request : requests_) {
    ++metrics.issued;
    if (!request.accepted) continue;
    ++metrics.accepted;
    const double latency = (*request.accepted - request.sent).as_millis_f();
    latency_sum += latency;
    metrics.max_latency_ms = std::max(metrics.max_latency_ms, latency);
    last_accept = std::max(last_accept, *request.accepted);
  }
  if (metrics.accepted > 0) {
    metrics.mean_latency_ms = latency_sum / static_cast<double>(metrics.accepted);
    const double duration_s = (last_accept - round_start).as_seconds_f();
    metrics.round_duration_ms = duration_s * 1000.0;
    if (duration_s > 0) {
      metrics.throughput_tps = static_cast<double>(metrics.accepted) / duration_s;
    }
  }
  metrics.messages = bus_->stats().total_messages() - messages_before;
  return metrics;
}

SingleControllerBaseline::SingleControllerBaseline(net::Topology topology, Options options)
    : topology_{std::move(topology)}, options_{options}, sim_{1} {
  bus_ = std::make_unique<net::MessageBus<CurbMessage>>(sim_, topology_,
                                                        options_.link_model);
  const auto controllers = topology_.nodes_of_kind(net::NodeKind::kController);
  if (controllers.empty()) {
    throw std::invalid_argument{"SingleControllerBaseline: no controller site"};
  }
  controller_node_ = controllers.front();
  switch_nodes_ = topology_.nodes_of_kind(net::NodeKind::kSwitch);

  bus_->attach(controller_node_, [this](net::NodeId, const CurbMessage& msg) {
    const auto* request = std::get_if<sdn::RequestMsg>(&msg);
    if (request == nullptr) return;
    // FIFO service queue: requests wait while the controller is busy.
    const sim::SimTime start = std::max(sim_.now(), controller_busy_until_);
    controller_busy_until_ = start + options_.service_time;
    const sim::SimTime delay = controller_busy_until_ - sim_.now();
    const ReplyMsg reply{0, request->switch_id, request->request_id, {0x01}};
    sim_.schedule(delay, [this, reply] {
      bus_->send(controller_node_, switch_nodes_[reply.switch_id], CurbMessage{reply},
                 reply.wire_size(), "REPLY");
    });
  });
  for (std::uint32_t s = 0; s < switch_nodes_.size(); ++s) {
    bus_->attach(switch_nodes_[s], [this, s](net::NodeId, const CurbMessage& msg) {
      const auto* reply = std::get_if<ReplyMsg>(&msg);
      if (reply == nullptr || reply->switch_id != s) return;
      for (auto& request : requests_) {
        if (request.switch_id == s && request.request_id == reply->request_id &&
            !request.accepted) {
          request.accepted = sim_.now();
          return;
        }
      }
    });
  }
}

RoundMetrics SingleControllerBaseline::run_round(std::size_t requesters) {
  const sim::SimTime round_start = sim_.now();
  const std::uint64_t messages_before = bus_->stats().total_messages();
  requests_.clear();

  const std::size_t n = std::min(requesters, switch_nodes_.size());
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint64_t id = next_request_id_++;
    requests_.push_back({s, id, sim_.now(), std::nullopt});
    sdn::RequestMsg request{chain::RequestType::kPacketIn, s, id, {}};
    bus_->send(switch_nodes_[s], controller_node_, CurbMessage{request},
               request.wire_size(), "PKT-IN");
  }
  sim_.run_until(round_start + sim::SimTime::seconds(10));

  RoundMetrics metrics;
  sim::SimTime last_accept = round_start;
  double latency_sum = 0.0;
  for (const auto& request : requests_) {
    ++metrics.issued;
    if (!request.accepted) continue;
    ++metrics.accepted;
    const double latency = (*request.accepted - request.sent).as_millis_f();
    latency_sum += latency;
    metrics.max_latency_ms = std::max(metrics.max_latency_ms, latency);
    last_accept = std::max(last_accept, *request.accepted);
  }
  if (metrics.accepted > 0) {
    metrics.mean_latency_ms = latency_sum / static_cast<double>(metrics.accepted);
    const double duration_s = (last_accept - round_start).as_seconds_f();
    metrics.round_duration_ms = duration_s * 1000.0;
    if (duration_s > 0) {
      metrics.throughput_tps = static_cast<double>(metrics.accepted) / duration_s;
    }
  }
  metrics.messages = bus_->stats().total_messages() - messages_before;
  return metrics;
}

PrimaryBackupBaseline::PrimaryBackupBaseline(net::Topology topology, Options options)
    : topology_{std::move(topology)}, options_{options}, sim_{1} {
  bus_ = std::make_unique<net::MessageBus<CurbMessage>>(sim_, topology_,
                                                        options_.link_model);
  controller_nodes_ = topology_.nodes_of_kind(net::NodeKind::kController);
  switch_nodes_ = topology_.nodes_of_kind(net::NodeKind::kSwitch);
  if (controller_nodes_.size() < options_.f + 1) {
    throw std::invalid_argument{"PrimaryBackupBaseline: need >= f+1 controllers"};
  }
  bad_config_.assign(controller_nodes_.size(), false);

  // Assignment: the f+1 nearest controllers per switch (MORPH assigns by
  // proximity and load; proximity suffices for the baseline).
  assignment_.resize(switch_nodes_.size());
  for (std::uint32_t s = 0; s < switch_nodes_.size(); ++s) {
    std::vector<std::uint32_t> order(controller_nodes_.size());
    for (std::uint32_t c = 0; c < order.size(); ++c) order[c] = c;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return topology_.distance_km(switch_nodes_[s], controller_nodes_[a]) <
             topology_.distance_km(switch_nodes_[s], controller_nodes_[b]);
    });
    order.resize(options_.f + 1);
    assignment_[s] = std::move(order);
  }

  for (std::uint32_t c = 0; c < controller_nodes_.size(); ++c) {
    bus_->attach(controller_nodes_[c], [this, c](net::NodeId, const CurbMessage& msg) {
      const auto* request = std::get_if<sdn::RequestMsg>(&msg);
      if (request == nullptr) return;
      // No consensus: each replica answers immediately and independently.
      std::vector<std::uint8_t> config{0x01};
      if (bad_config_[c]) config[0] ^= 0xff;
      const ReplyMsg reply{c, request->switch_id, request->request_id,
                           std::move(config)};
      bus_->send(controller_nodes_[c], switch_nodes_[request->switch_id],
                 CurbMessage{reply}, reply.wire_size(), "REPLY");
    });
  }
  for (std::uint32_t s = 0; s < switch_nodes_.size(); ++s) {
    bus_->attach(switch_nodes_[s], [this, s](net::NodeId, const CurbMessage& msg) {
      if (const auto* reply = std::get_if<ReplyMsg>(&msg)) {
        if (reply->switch_id == s) on_switch_reply(s, *reply);
      }
    });
  }
}

void PrimaryBackupBaseline::set_bad_config(std::uint32_t controller_id, bool enabled) {
  bad_config_.at(controller_id) = enabled;
}

void PrimaryBackupBaseline::on_switch_reply(std::uint32_t switch_id,
                                            const ReplyMsg& reply) {
  for (auto& request : requests_) {
    if (request.switch_id != switch_id || request.request_id != reply.request_id) {
      continue;
    }
    request.replies.emplace(reply.controller_id, reply.config);
    if (request.replies.size() < options_.f + 1) return;
    // Comparator: all f+1 replies must agree; a mismatch is detected but —
    // unlike Curb — there is no agreed-on recovery path or audit trail.
    bool all_equal = true;
    const auto& first = request.replies.begin()->second;
    for (const auto& [controller, config] : request.replies) {
      all_equal &= config == first;
    }
    if (all_equal) {
      if (!request.accepted) request.accepted = sim_.now();
    } else {
      ++mismatches_;
    }
    return;
  }
}

RoundMetrics PrimaryBackupBaseline::run_round(std::size_t requesters) {
  const sim::SimTime round_start = sim_.now();
  const std::uint64_t messages_before = bus_->stats().total_messages();
  requests_.clear();

  const std::size_t n = std::min(requesters, switch_nodes_.size());
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint64_t id = next_request_id_++;
    requests_.push_back({s, id, sim_.now(), std::nullopt, {}});
    sdn::RequestMsg request{chain::RequestType::kPacketIn, s, id, {}};
    for (const std::uint32_t c : assignment_[s]) {
      bus_->send(switch_nodes_[s], controller_nodes_[c], CurbMessage{request},
                 request.wire_size(), "PKT-IN");
    }
  }
  sim_.run_until(round_start + options_.request_timeout * 4);

  RoundMetrics metrics;
  sim::SimTime last_accept = round_start;
  double latency_sum = 0.0;
  for (const auto& request : requests_) {
    ++metrics.issued;
    if (!request.accepted) continue;
    ++metrics.accepted;
    const double latency = (*request.accepted - request.sent).as_millis_f();
    latency_sum += latency;
    metrics.max_latency_ms = std::max(metrics.max_latency_ms, latency);
    last_accept = std::max(last_accept, *request.accepted);
  }
  if (metrics.accepted > 0) {
    metrics.mean_latency_ms = latency_sum / static_cast<double>(metrics.accepted);
    const double duration_s = (last_accept - round_start).as_seconds_f();
    metrics.round_duration_ms = duration_s * 1000.0;
    if (duration_s > 0) {
      metrics.throughput_tps = static_cast<double>(metrics.accepted) / duration_s;
    }
  }
  metrics.messages = bus_->stats().total_messages() - messages_before;
  return metrics;
}

}  // namespace curb::core
