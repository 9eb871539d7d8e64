#include "curb/sdn/switch.hpp"

namespace curb::sdn {

Switch::Switch(Config config, sim::Simulator& sim, PacketInFn packet_in, ForwardFn forward,
               DeliverFn deliver)
    : config_{config},
      sim_{sim},
      packet_in_{std::move(packet_in)},
      forward_{std::move(forward)},
      deliver_{std::move(deliver)} {}

void Switch::receive(const Packet& packet) {
  ++stats_.received;
  process(packet, /*allow_punt=*/true);
}

void Switch::process(const Packet& packet, bool allow_punt) {
  FlowEntry* entry = table_.lookup(packet, sim_.now());
  if (entry == nullptr || entry->action.kind == FlowAction::Kind::kToController) {
    if (!allow_punt) {
      ++stats_.dropped;
      return;
    }
    ++stats_.table_misses;
    const std::uint64_t buffer_id = next_buffer_id_++;
    buffer_.emplace(buffer_id, packet);
    sim_.schedule(kBufferExpiry, [this, buffer_id] {
      if (buffer_.erase(buffer_id) > 0) ++stats_.buffer_expired;
    });
    packet_in_(packet, buffer_id);
    return;
  }
  switch (entry->action.kind) {
    case FlowAction::Kind::kForward:
      ++stats_.forwarded;
      forward_(packet, entry->action.out_port);
      break;
    case FlowAction::Kind::kDeliver:
      ++stats_.delivered;
      deliver_(packet);
      break;
    case FlowAction::Kind::kDrop:
      ++stats_.dropped;
      break;
    case FlowAction::Kind::kToController:
      break;  // handled above
  }
}

void Switch::install(const std::vector<FlowEntry>& entries) {
  for (const FlowEntry& e : entries) table_.install(e);
}

void Switch::packet_out(std::uint64_t buffer_id) {
  const auto it = buffer_.find(buffer_id);
  if (it == buffer_.end()) return;  // expired or unknown
  const Packet packet = it->second;
  buffer_.erase(it);
  // Re-process without punting again: if the rule still misses, drop.
  process(packet, /*allow_punt=*/false);
}

}  // namespace curb::sdn
