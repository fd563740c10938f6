#include "netif/smart_ni.hpp"

namespace nimcast::netif {

void FpfsNi::start_from_host(net::MessageId message, Host& host) {
  // One software start-up moves the whole message into NI memory; the
  // coprocessor owns everything from there (Figure 4(b)).
  host.software_send([this, message] {
    const ForwardingEntry* entry = find_entry(message);
    if (entry == nullptr) {
      throw std::logic_error("FpfsNi: no forwarding entry at source");
    }
    const auto copies = static_cast<std::int32_t>(entry->children.size());
    for (std::int32_t j = 0; j < entry->packet_count; ++j) {
      hold_packet(message, j, copies);
    }
    // Packet-major: pkt j to every child before pkt j+1 to any.
    for (std::int32_t j = 0; j < entry->packet_count; ++j) {
      for (topo::HostId child : entry->children) {
        send_copy(message, j, entry->packet_count, child,
                  entry->route_class);
      }
    }
  });
}

void FpfsNi::start_streaming(const std::vector<net::MessageId>& messages,
                             Host& host) {
  if (messages.empty()) {
    throw std::logic_error("FpfsNi: start_streaming with no messages");
  }
  host.software_send([this, messages] {
    std::vector<const ForwardingEntry*> entries;
    entries.reserve(messages.size());
    for (net::MessageId m : messages) {
      const ForwardingEntry* entry = find_entry(m);
      if (entry == nullptr) {
        throw std::logic_error("FpfsNi: no forwarding entry at source");
      }
      entries.push_back(entry);
      const auto copies = static_cast<std::int32_t>(entry->children.size());
      for (std::int32_t j = 0; j < entry->packet_count; ++j) {
        hold_packet(m, j, copies);
      }
    }
    // Round-robin over the classes, packet-major within each: stream
    // packet g = copy g/R of class g mod R (exhausted classes are
    // skipped, so an uneven split stays in global stream order).
    std::vector<std::int32_t> cursor(messages.size(), 0);
    bool more = true;
    while (more) {
      more = false;
      for (std::size_t r = 0; r < messages.size(); ++r) {
        const ForwardingEntry& entry = *entries[r];
        if (cursor[r] >= entry.packet_count) continue;
        const std::int32_t j = cursor[r]++;
        more = true;
        for (topo::HostId child : entry.children) {
          send_copy(messages[r], j, entry.packet_count, child,
                    entry.route_class);
        }
      }
    }
  });
}

void FpfsNi::start_streaming_adaptive(
    const std::vector<net::MessageId>& messages, std::int32_t stream_packets,
    Host& host, std::function<std::size_t(std::int32_t)> select) {
  if (messages.empty()) {
    throw std::logic_error("FpfsNi: start_streaming_adaptive with no messages");
  }
  if (stream_packets < 1) {
    throw std::logic_error("FpfsNi: start_streaming_adaptive needs packets");
  }
  host.software_send([this, messages, stream_packets,
                      select = std::move(select)]() mutable {
    auto stream = std::make_shared<AdaptiveStream>();
    stream->messages = messages;
    stream->stream_packets = stream_packets;
    stream->select = std::move(select);
    stream->entries.reserve(messages.size());
    for (net::MessageId m : messages) {
      const ForwardingEntry* entry = find_entry(m);
      if (entry == nullptr) {
        throw std::logic_error("FpfsNi: no forwarding entry at source");
      }
      if (entry->packet_count != stream_packets) {
        throw std::logic_error(
            "FpfsNi: adaptive classes must be installed with the full "
            "stream as packet_count");
      }
      stream->entries.push_back(entry);
    }
    issue_adaptive(stream, 0);
  });
}

void FpfsNi::issue_adaptive(const std::shared_ptr<AdaptiveStream>& stream,
                            std::int32_t g) {
  // Childless classes advance synchronously; the loop re-enters from the
  // last copy's completion otherwise, so selection for packet g+1 sees
  // the fabric as of the instant packet g finished injecting.
  while (g < stream->stream_packets) {
    const std::size_t r = stream->select(g);
    const ForwardingEntry& entry = *stream->entries.at(r);
    const auto copies = static_cast<std::int32_t>(entry.children.size());
    hold_packet(stream->messages[r], g, copies);
    if (copies == 0) {
      ++g;
      continue;
    }
    for (std::size_t i = 0; i + 1 < entry.children.size(); ++i) {
      send_copy(stream->messages[r], g, entry.packet_count, entry.children[i],
                entry.route_class);
    }
    send_copy_then(stream->messages[r], g, entry.packet_count,
                   entry.children.back(), entry.route_class,
                   [this, stream, g] { issue_adaptive(stream, g + 1); });
    return;
  }
}

void FpfsNi::on_packet_received(const net::Packet& packet,
                                const ForwardingEntry& entry) {
  if (entry.children.empty()) return;  // leaf: DMA to host only
  hold_packet(packet.message, packet.packet_index,
              static_cast<std::int32_t>(entry.children.size()));
  for (topo::HostId child : entry.children) {
    send_copy(packet.message, packet.packet_index, packet.packet_count,
              child, entry.route_class);
  }
}

void FcfsNi::start_from_host(net::MessageId message, Host& host) {
  host.software_send([this, message] {
    const ForwardingEntry* entry = find_entry(message);
    if (entry == nullptr) {
      throw std::logic_error("FcfsNi: no forwarding entry at source");
    }
    const auto copies = static_cast<std::int32_t>(entry->children.size());
    for (std::int32_t j = 0; j < entry->packet_count; ++j) {
      hold_packet(message, j, copies);
    }
    // Child-major: the whole message to child i before child i+1 sees
    // anything.
    for (topo::HostId child : entry->children) {
      for (std::int32_t j = 0; j < entry->packet_count; ++j) {
        send_copy(message, j, entry->packet_count, child);
      }
    }
  });
}

void FcfsNi::on_packet_received(const net::Packet& packet,
                                const ForwardingEntry& entry) {
  if (entry.children.empty()) return;
  // Every packet will eventually be copied to every child; the copies to
  // children 2..c only get queued when the message is complete, which is
  // exactly why FCFS holds buffers so long.
  hold_packet(packet.message, packet.packet_index,
              static_cast<std::int32_t>(entry.children.size()));
  send_copy(packet.message, packet.packet_index, packet.packet_count,
            entry.children.front());

  const auto id = static_cast<std::size_t>(packet.message);
  if (id >= arrivals_.size()) arrivals_.resize(id + 1, 0);
  if (++arrivals_[id] == entry.packet_count) {
    for (std::size_t i = 1; i < entry.children.size(); ++i) {
      for (std::int32_t j = 0; j < entry.packet_count; ++j) {
        send_copy(packet.message, j, entry.packet_count, entry.children[i]);
      }
    }
  }
}

}  // namespace nimcast::netif
