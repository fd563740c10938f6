#include "netif/ni_base.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace nimcast::netif {

NetworkInterface::NetworkInterface(sim::Simulator& simctx,
                                   net::WormholeNetwork& network,
                                   SystemParams params, topo::HostId self,
                                   sim::Trace* trace)
    : sim_{simctx},
      network_{network},
      params_{params},
      self_{self},
      trace_{trace},
      coproc_{simctx, params.ni_engines},
      buffer_{simctx} {
  network.bind_sink(self, this);
}

void NetworkInterface::install(net::MessageId message, ForwardingEntry entry) {
  if (message < 0) {
    throw std::invalid_argument("NetworkInterface: negative message id");
  }
  if (entry.packet_count < 1) {
    throw std::invalid_argument("ForwardingEntry: packet_count < 1");
  }
  for (topo::HostId c : entry.children) {
    if (c == self_) {
      throw std::invalid_argument("ForwardingEntry: node is its own child");
    }
  }
  const auto id = static_cast<std::size_t>(message);
  if (id >= slot_of_.size()) slot_of_.resize(id + 1, 0);
  if (slot_of_[id] == 0) {
    slots_.emplace_back();
    slot_of_[id] = static_cast<std::uint32_t>(slots_.size());
  }
  // A reinstall keeps the slot (and any packets it still holds) but
  // restarts the message's receive count.
  MessageSlot& slot = slots_[slot_of_[id] - 1];
  slot.entry = std::move(entry);
  slot.received = 0;
}

const ForwardingEntry* NetworkInterface::find_entry(net::MessageId m) const {
  const MessageSlot* slot = find_slot(m);
  return slot == nullptr ? nullptr : &slot->entry;
}

void NetworkInterface::after_host_receive(net::MessageId, Host&) {}

void NetworkInterface::deliver(const net::Packet& packet) {
  // Receive processing occupies the coprocessor for t_rcv; only then does
  // the firmware see the header and react. Low priority: firmware
  // finishes forwarding the packet in hand before polling the receive
  // queue (the loop structure of Figs. 6 and 7).
  coproc_.enqueue_low(params_.t_rcv, [this, packet] {
    const ForwardingEntry* entry = find_entry(packet.message);
    if (entry == nullptr) {
      throw std::logic_error("NI " + std::to_string(self_) +
                             ": packet for unknown message " +
                             std::to_string(packet.message));
    }
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     "rcv done msg=" + std::to_string(packet.message) +
                         " pkt=" + std::to_string(packet.packet_index));
    }
    on_packet_received(packet, *entry);
    note_data_processed(packet, *entry);
    if (on_packet_at_ni) on_packet_at_ni(self_, packet);
  });
}

void NetworkInterface::note_data_processed(const net::Packet& packet,
                                           const ForwardingEntry& entry) {
  MessageSlot* slot = find_slot(packet.message);
  assert(slot != nullptr && &slot->entry == &entry);
  const std::int32_t count = ++slot->received;
  if (count > entry.packet_count) {
    throw std::logic_error("NI " + std::to_string(self_) +
                           ": duplicate packet delivery");
  }
  if (count == entry.packet_count && entry.is_destination &&
      on_message_at_ni) {
    on_message_at_ni(self_, packet.message);
  }
}

void NetworkInterface::hold_packet(net::MessageId message, std::int32_t index,
                                   std::int32_t copies) {
  MessageSlot* slot = find_slot(message);
  if (slot == nullptr) {
    throw std::logic_error("NI " + std::to_string(self_) +
                           ": hold_packet for unknown message " +
                           std::to_string(message));
  }
  auto& outstanding = slot->outstanding;
  const auto i = static_cast<std::size_t>(index);
  if (i >= outstanding.size()) {
    outstanding.resize(std::max(
        i + 1, static_cast<std::size_t>(slot->entry.packet_count)), 0);
  }
  assert(outstanding[i] == 0 && "packet already held");
  buffer_.acquire();
  if (copies > 0) {
    outstanding[i] = copies;
  } else {
    buffer_.release();
  }
}

void NetworkInterface::release_copy(net::MessageId message,
                                    std::int32_t index) {
  MessageSlot* slot = find_slot(message);
  assert(slot != nullptr &&
         static_cast<std::size_t>(index) < slot->outstanding.size());
  auto& count = slot->outstanding[static_cast<std::size_t>(index)];
  assert(count > 0 && "release_copy on a packet not held");
  if (--count == 0) buffer_.release();
}

void NetworkInterface::inject_copy(net::MessageId message, std::int32_t index,
                                   std::int32_t packet_count,
                                   topo::HostId child,
                                   std::int32_t route_class) {
  coproc_.enqueue(params_.t_snd, [this, message, index, packet_count, child,
                                  route_class] {
    net::Packet p;
    p.message = message;
    p.packet_index = index;
    p.packet_count = packet_count;
    p.sender = self_;
    p.dest = child;
    p.route_class = route_class;
    network_.send(p);
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     "sent msg=" + std::to_string(message) + " pkt=" +
                         std::to_string(index) + " -> host " +
                         std::to_string(child));
    }
  });
}

void NetworkInterface::send_copy(net::MessageId message, std::int32_t index,
                                 std::int32_t packet_count, topo::HostId child,
                                 std::int32_t route_class) {
  coproc_.enqueue(params_.t_snd, [this, message, index, packet_count, child,
                                  route_class] {
    net::Packet p;
    p.message = message;
    p.packet_index = index;
    p.packet_count = packet_count;
    p.sender = self_;
    p.dest = child;
    p.route_class = route_class;
    network_.send(p);
    release_copy(message, index);
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     "sent msg=" + std::to_string(message) + " pkt=" +
                         std::to_string(index) + " -> host " +
                         std::to_string(child));
    }
  });
}

void NetworkInterface::send_copy_then(net::MessageId message,
                                      std::int32_t index,
                                      std::int32_t packet_count,
                                      topo::HostId child,
                                      std::int32_t route_class,
                                      std::function<void()> then) {
  coproc_.enqueue(params_.t_snd, [this, message, index, packet_count, child,
                                  route_class, then = std::move(then)] {
    net::Packet p;
    p.message = message;
    p.packet_index = index;
    p.packet_count = packet_count;
    p.sender = self_;
    p.dest = child;
    p.route_class = route_class;
    network_.send(p);
    release_copy(message, index);
    then();
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     "sent msg=" + std::to_string(message) + " pkt=" +
                         std::to_string(index) + " -> host " +
                         std::to_string(child));
    }
  });
}

}  // namespace nimcast::netif
