#pragma once

#include <functional>

#include "netif/ni_base.hpp"
#include "network/network_config.hpp"
#include "sim/rng.hpp"

namespace nimcast::netif {

/// Parameters of the hop-by-hop reliability protocol.
struct ReliabilityParams {
  /// Base retransmission timeout, armed when a data packet is injected
  /// and disarmed by the matching ACK. Should comfortably exceed one
  /// round-trip (data + ACK traversal + both coprocessor passes).
  /// `Time::zero()` (the default) derives it from the system parameters
  /// via `derived_retx_timeout` instead of hardcoding a magic constant.
  sim::Time retx_timeout = sim::Time::zero();
  /// Give-up bound: after this many retransmissions of one copy the edge
  /// is declared dead and the NI reports a per-destination delivery
  /// failure (`on_delivery_failure`) instead of retrying forever. High
  /// enough that a loss rate < ~50% practically never trips it.
  std::int32_t max_retransmissions = 64;
  /// Coprocessor occupancy to emit or absorb one ACK (ACKs are tiny
  /// control packets; they still traverse the network as worms).
  sim::Time t_ack = sim::Time::us(1.0);
};

/// Retransmission timeout implied by the system parameters: one
/// ACK-inclusive round trip over `hops` switch-switch links — request
/// t_step, response t_step, both coprocessor passes, plus worst-case ACK
/// queueing behind `fanout` sibling ACKs — doubled as a safety margin
/// against transient channel contention.
[[nodiscard]] sim::Time derived_retx_timeout(const SystemParams& params,
                                             const net::NetworkConfig& config,
                                             std::size_t hops,
                                             std::int32_t fanout,
                                             sim::Time t_ack);

/// Reliable FPFS smart NI: the paper's FPFS discipline layered with a
/// hop-by-hop positive-acknowledgment protocol, the problem addressed by
/// the reliable-multicast systems the paper cites ([4] ATM, [12]
/// Myrinet).
///
/// Every tree edge runs its own ACK/retransmit loop:
///   - each forwarded data packet arms a retransmission timer; the
///     receiver ACKs every copy it sees (including duplicates — ACKs can
///     be lost too);
///   - duplicate data packets are detected by (message, index) and not
///     re-forwarded or re-counted;
///   - the per-copy ACK state (timer, attempts) and the duplicate filter
///     live in the NI's message slot as dense per-(packet, child) and
///     per-packet tables, so the protocol allocates per message, not per
///     copy;
///   - a packet's NI buffer slot is released when every child has
///     ACKed it, not when the copies were injected — reliability is what
///     actually forces multicast buffering at NIs.
///
/// With loss_rate == 0 the discipline behaves exactly like FpfsNi except
/// for the added ACK traffic.
class ReliableFpfsNi final : public NetworkInterface {
 public:
  ReliableFpfsNi(sim::Simulator& simctx, net::WormholeNetwork& network,
                 SystemParams params, ReliabilityParams reliability,
                 topo::HostId self, sim::Trace* trace = nullptr);

  void start_from_host(net::MessageId message, Host& host) override;
  void deliver(const net::Packet& packet) override;
  [[nodiscard]] const char* style() const override { return "reliable-fpfs"; }

  /// Wire tag marking acknowledgment packets.
  static constexpr std::int32_t kAckTag = -77;

  [[nodiscard]] std::int64_t retransmissions() const { return retx_count_; }
  [[nodiscard]] std::int64_t duplicates_seen() const { return dup_count_; }

  /// Tree edges abandoned: retransmission budget exhausted or the child
  /// became unreachable. Each abandonment released its buffer obligation
  /// and fired on_delivery_failure; the NI itself never throws for them.
  [[nodiscard]] std::int64_t deliveries_failed() const { return gave_up_; }

  /// Fired when a copy is abandoned (message, packet index, child).
  std::function<void(net::MessageId, std::int32_t, topo::HostId)>
      on_delivery_failure;

  /// The resolved base timeout (explicit or derived).
  [[nodiscard]] sim::Time base_timeout() const { return base_timeout_; }

 protected:
  void on_packet_received(const net::Packet& packet,
                          const ForwardingEntry& entry) override;

 private:
  /// Marks every copy of held packet `index` as awaiting its child's ACK
  /// (sizing the slot's table on first use); a copy already awaiting one
  /// keeps its state.
  void await_acks(MessageSlot& slot, std::int32_t index);
  /// The ACK state of `message`'s packet `index` to `child` while that
  /// copy awaits its ACK, else nullptr.
  [[nodiscard]] PendingCopy* pending_copy(net::MessageId message,
                                          std::int32_t index,
                                          topo::HostId child);
  /// Queues (or re-queues) one copy and arms the timer at injection.
  void reliable_send(net::MessageId message, std::int32_t index,
                     std::int32_t packet_count, topo::HostId child);
  void on_timeout(net::MessageId message, std::int32_t index,
                  std::int32_t packet_count, topo::HostId child);
  void handle_ack(const net::Packet& ack);
  void send_ack(const net::Packet& data);
  /// Timeout for the (attempts+1)-th transmission: retransmission i
  /// waits base_timeout * 1.5^min(i, 4), stretched by a deterministic
  /// jitter in [1, 1.25) to de-synchronize retransmit storms across NIs.
  [[nodiscard]] sim::Time backoff_timeout(std::int32_t attempts);

  ReliabilityParams reliability_;
  sim::Time base_timeout_;
  sim::Rng backoff_rng_;
  std::int64_t retx_count_ = 0;
  std::int64_t dup_count_ = 0;
  std::int64_t gave_up_ = 0;
};

}  // namespace nimcast::netif
