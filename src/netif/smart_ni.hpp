#pragma once

#include <memory>
#include <vector>

#include "netif/ni_base.hpp"

namespace nimcast::netif {

/// First-Packet-First-Served smart NI (paper Section 3.2, Figure 7).
///
/// Source: packet-major order — packet 1 to every child, then packet 2 to
/// every child, ... Intermediate: each received packet is forwarded to all
/// children immediately; the firmware keeps no per-message counter. A
/// packet's buffer slot frees once its last copy has been injected, giving
/// the T_p = c * t_nd holding time of Section 3.3.2.
class FpfsNi final : public NetworkInterface {
 public:
  using NetworkInterface::NetworkInterface;

  void start_from_host(net::MessageId message, Host& host) override;

  /// Streaming source entry point: one software start-up, then the
  /// coprocessor interleaves the installed `messages` round-robin in
  /// packet-major order — stream packet g is copy g/|messages| of
  /// message g mod |messages|. This is what lets consecutive stream
  /// packets leave down *different* rotation trees; starting the
  /// messages via start_from_host would serialize them class by class
  /// (each enqueues its whole message at once). With one message this
  /// is exactly start_from_host.
  void start_streaming(const std::vector<net::MessageId>& messages,
                       Host& host);

  /// Adaptive streaming source: stream packet g goes down class
  /// `select(g)`, decided when the coprocessor is about to issue it (the
  /// last copy of packet g-1 hangs packet g's selection off its own
  /// completion via send_copy_then). Each class must be installed with
  /// `packet_count == stream_packets` — the global stream index is the
  /// packet index, so a class carries the sparse subset of indices the
  /// selector routes to it. With one coprocessor engine the issue
  /// timing is byte-identical to start_streaming whenever `select`
  /// reproduces g mod |messages| (with >1 engines the deferred enqueue
  /// would serialize what start_streaming overlaps).
  void start_streaming_adaptive(
      const std::vector<net::MessageId>& messages, std::int32_t stream_packets,
      Host& host, std::function<std::size_t(std::int32_t)> select);

  [[nodiscard]] const char* style() const override { return "smart-fpfs"; }

 protected:
  void on_packet_received(const net::Packet& packet,
                          const ForwardingEntry& entry) override;

 private:
  struct AdaptiveStream {
    std::vector<net::MessageId> messages;
    std::vector<const ForwardingEntry*> entries;
    std::int32_t stream_packets = 0;
    std::function<std::size_t(std::int32_t)> select;
  };
  void issue_adaptive(const std::shared_ptr<AdaptiveStream>& stream,
                      std::int32_t g);
};

/// First-Child-First-Served smart NI (paper Section 3.1, Figure 6).
///
/// Source: child-major order — the whole message to child 1, then to
/// child 2, ... Intermediate: each received packet is forwarded to the
/// *first* child immediately; once all packets have arrived, the whole
/// message is sent to each remaining child. Packets therefore stay
/// buffered until the message has gone to every child — the
/// T_f = ((c-1)m + 1) * t_nd holding time the paper charges against FCFS.
class FcfsNi final : public NetworkInterface {
 public:
  using NetworkInterface::NetworkInterface;

  void start_from_host(net::MessageId message, Host& host) override;
  [[nodiscard]] const char* style() const override { return "smart-fcfs"; }

 protected:
  void on_packet_received(const net::Packet& packet,
                          const ForwardingEntry& entry) override;

 private:
  /// Packets received per message, indexed by (dense) message id.
  std::vector<std::int32_t> arrivals_;
};

}  // namespace nimcast::netif
