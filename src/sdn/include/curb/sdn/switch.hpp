#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "curb/sdn/flow.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::sdn {

/// Data-plane switch: priority flow table, table-miss punting with packet
/// buffering (OpenFlow buffer_id semantics), and FLOW_MOD installation.
/// Matches the paper's Open vSwitch role: a packet that misses the table is
/// buffered and triggers PACKET_IN; the eventual PACKET_OUT(+FLOW_MOD)
/// releases the buffered packet through the new rule.
class Switch {
 public:
  /// Buffered table-miss packets expire after this long (paper: buffered
  /// packets "expire after a period of time").
  static constexpr sim::SimTime kBufferExpiry = sim::SimTime::seconds(2);

  struct Config {
    std::uint32_t switch_id = 0;
  };

  /// Table miss: `buffer_id` references the buffered packet.
  using PacketInFn = std::function<void(const Packet&, std::uint64_t buffer_id)>;
  /// Forward on an output port (ports map to adjacent nodes externally).
  using ForwardFn = std::function<void(const Packet&, std::uint32_t out_port)>;
  /// Deliver to a locally attached host.
  using DeliverFn = std::function<void(const Packet&)>;

  Switch(Config config, sim::Simulator& sim, PacketInFn packet_in, ForwardFn forward,
         DeliverFn deliver);

  /// Process an incoming packet: match -> forward/deliver/drop, or buffer
  /// and punt to the control plane on a miss.
  void receive(const Packet& packet);

  /// Install flow entries (a FLOW_MOD batch from an accepted config).
  void install(const std::vector<FlowEntry>& entries);

  /// PACKET_OUT referencing a buffered packet: re-process it through the
  /// (presumably updated) table. Unknown/expired ids are ignored.
  void packet_out(std::uint64_t buffer_id);

  [[nodiscard]] FlowTable& table() { return table_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }
  [[nodiscard]] std::uint32_t id() const { return config_.switch_id; }

  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t table_misses = 0;
    std::uint64_t buffer_expired = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t buffered_packets() const { return buffer_.size(); }

 private:
  void process(const Packet& packet, bool allow_punt);

  Config config_;
  sim::Simulator& sim_;
  PacketInFn packet_in_;
  ForwardFn forward_;
  DeliverFn deliver_;
  FlowTable table_;
  std::map<std::uint64_t, Packet> buffer_;
  std::uint64_t next_buffer_id_ = 1;
  Stats stats_;
};

}  // namespace curb::sdn
