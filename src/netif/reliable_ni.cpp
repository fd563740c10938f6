#include "netif/reliable_ni.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nimcast::netif {

namespace {
/// Exponential backoff: retransmission i waits
/// base_timeout * kBackoffFactor^min(i, kBackoffCap), stretched by a
/// deterministic jitter in [1, 1 + kBackoffJitter). The gentle factor
/// (1.5^4 ~ 5x cap) suits random wire loss, where waiting longer buys
/// nothing.
constexpr double kBackoffFactor = 1.5;
constexpr std::int32_t kBackoffCap = 4;
constexpr double kBackoffJitter = 0.25;
/// Seed of the jitter stream; each NI folds its host id in, so the
/// whole protocol stays a pure function of seeds.
constexpr std::uint64_t kJitterSeed = 0x5eedfa17;
}  // namespace

sim::Time derived_retx_timeout(const SystemParams& params,
                               const net::NetworkConfig& config,
                               std::size_t hops, std::int32_t fanout,
                               sim::Time t_ack) {
  const auto h = static_cast<sim::Time::rep>(std::max<std::size_t>(hops, 1));
  // One direction: coprocessor send pass, header over injection + h
  // switch links + ejection, payload drain, coprocessor receive pass.
  const sim::Time t_step = params.t_snd + config.t_hop * (h + 2) +
                           config.serialization_time() + params.t_rcv;
  // Full ACK round trip, plus the ACK possibly queueing behind the
  // coprocessor passes of `fanout` sibling copies at either end.
  const sim::Time rtt =
      t_step + t_step + params.t_snd + params.t_rcv +
      t_ack * static_cast<sim::Time::rep>(std::max(fanout, 1));
  return rtt * 2;
}

ReliableFpfsNi::ReliableFpfsNi(sim::Simulator& simctx,
                               net::WormholeNetwork& network,
                               SystemParams params,
                               ReliabilityParams reliability,
                               topo::HostId self, sim::Trace* trace)
    : NetworkInterface{simctx, network, params, self, trace},
      reliability_{reliability},
      base_timeout_{reliability.retx_timeout == sim::Time::zero()
                        ? derived_retx_timeout(params, network.config(),
                                               /*hops=*/4, /*fanout=*/8,
                                               reliability.t_ack)
                        : reliability.retx_timeout},
      backoff_rng_{kJitterSeed ^
                   (std::uint64_t{0x9E3779B97F4A7C15} *
                    static_cast<std::uint64_t>(self + 1))} {}

sim::Time ReliableFpfsNi::backoff_timeout(std::int32_t attempts) {
  const auto exponent = std::min(std::max(attempts, 0), kBackoffCap);
  double scale = std::pow(kBackoffFactor, exponent);
  if (attempts > 0) {
    scale *= 1.0 + kBackoffJitter * backoff_rng_.next_double();
  }
  return sim::Time::us(base_timeout_.as_us() * scale);
}

void ReliableFpfsNi::start_from_host(net::MessageId message, Host& host) {
  host.software_send([this, message] {
    const ForwardingEntry* entry = find_entry(message);
    if (entry == nullptr) {
      throw std::logic_error("ReliableFpfsNi: no forwarding entry at source");
    }
    const auto copies = static_cast<std::int32_t>(entry->children.size());
    for (std::int32_t j = 0; j < entry->packet_count; ++j) {
      hold_packet(message, j, copies);
    }
    MessageSlot& slot = *find_slot(message);
    for (std::int32_t j = 0; j < entry->packet_count; ++j) {
      await_acks(slot, j);
      for (topo::HostId child : entry->children) {
        reliable_send(message, j, entry->packet_count, child);
      }
    }
  });
}

void ReliableFpfsNi::await_acks(MessageSlot& slot, std::int32_t index) {
  const std::size_t fanout = slot.entry.children.size();
  if (!slot.pending) {
    const std::size_t size =
        static_cast<std::size_t>(slot.entry.packet_count) * fanout;
    slot.pending = std::make_unique<PendingCopy[]>(size);
    slot.pending_size = static_cast<std::uint32_t>(size);
  }
  const std::size_t first = static_cast<std::size_t>(index) * fanout;
  if (first + fanout > slot.pending_size) {
    throw std::logic_error("ReliableFpfsNi: packet index past the message");
  }
  for (std::size_t c = 0; c < fanout; ++c) {
    PendingCopy& copy = slot.pending[first + c];
    if (!copy.live) copy = PendingCopy{{}, 0, true};
  }
}

ReliableFpfsNi::PendingCopy* ReliableFpfsNi::pending_copy(
    net::MessageId message, std::int32_t index, topo::HostId child) {
  MessageSlot* slot = find_slot(message);
  if (slot == nullptr) return nullptr;
  const auto& kids = slot->entry.children;
  const auto pos = static_cast<std::size_t>(
      std::find(kids.begin(), kids.end(), child) - kids.begin());
  const std::size_t i = static_cast<std::size_t>(index) * kids.size() + pos;
  if (pos == kids.size() || i >= slot->pending_size) return nullptr;
  PendingCopy& copy = slot->pending[i];
  return copy.live ? &copy : nullptr;
}

void ReliableFpfsNi::reliable_send(net::MessageId message, std::int32_t index,
                                   std::int32_t packet_count,
                                   topo::HostId child) {
  coproc_.enqueue(params_.t_snd, [this, message, index, packet_count, child] {
    // The ACK may have arrived while this (re)transmission sat in the
    // coprocessor queue; if so the copy no longer awaits one and sending
    // it now would only waste wire time (and double-release buffers).
    PendingCopy* copy = pending_copy(message, index, child);
    if (copy == nullptr) return;
    PendingCopy& pending = *copy;
    net::Packet p;
    p.message = message;
    p.packet_index = index;
    p.packet_count = packet_count;
    p.sender = self_;
    p.dest = child;
    // The attempt number is part of the packet's loss-hash identity:
    // each retransmitted copy gets an independent drop draw.
    p.attempt = pending.attempts;
    network_.send(p);
    // Arm (or re-arm) the retransmission timer as of injection time,
    // exponentially backed off by the attempts already burned.
    pending.timer = sim_.schedule_in(
        backoff_timeout(pending.attempts),
        [this, message, index, packet_count, child] {
          on_timeout(message, index, packet_count, child);
        });
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     "rsent msg=" + std::to_string(message) + " pkt=" +
                         std::to_string(index) + " -> host " +
                         std::to_string(child));
    }
  });
}

void ReliableFpfsNi::on_timeout(net::MessageId message, std::int32_t index,
                                std::int32_t packet_count,
                                topo::HostId child) {
  PendingCopy* copy = pending_copy(message, index, child);
  if (copy == nullptr) return;  // ACKed in the meantime
  PendingCopy& pending = *copy;
  // A child cut off by a fault cannot ACK no matter how often we retry;
  // abandon the edge immediately instead of burning the budget.
  const bool unreachable = !network_.reachable(self_, child);
  if (!unreachable) {
    ++pending.attempts;
    ++retx_count_;
  }
  if (unreachable || pending.attempts > reliability_.max_retransmissions) {
    pending.live = false;
    ++gave_up_;
    // The edge's buffer obligation is met by abandonment: without this
    // the slot would leak and the NI would report held buffers forever.
    release_copy(message, index);
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                     std::string("giveup") +
                         (unreachable ? "-unreachable" : "-budget") +
                         " msg=" + std::to_string(message) + " pkt=" +
                         std::to_string(index) + " -> host " +
                         std::to_string(child));
    }
    if (on_delivery_failure) on_delivery_failure(message, index, child);
    return;
  }
  if (trace_) {
    trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                   "retx msg=" + std::to_string(message) + " pkt=" +
                       std::to_string(index) + " -> host " +
                       std::to_string(child));
  }
  reliable_send(message, index, packet_count, child);
}

void ReliableFpfsNi::send_ack(const net::Packet& data) {
  coproc_.enqueue_front(reliability_.t_ack, [this, data] {
    net::Packet ack;
    ack.message = data.message;
    ack.packet_index = data.packet_index;
    ack.packet_count = data.packet_count;
    ack.sender = self_;
    ack.dest = data.sender;
    ack.tag = kAckTag;
    // Inherit the data copy's attempt number so the ACK for each
    // (re)transmission is its own independent loss draw.
    ack.attempt = data.attempt;
    network_.send(ack);
  });
}

void ReliableFpfsNi::handle_ack(const net::Packet& ack) {
  PendingCopy* copy = pending_copy(ack.message, ack.packet_index, ack.sender);
  if (copy == nullptr) return;  // duplicate ACK
  sim_.cancel(copy->timer);
  copy->live = false;
  // The child has the packet; this copy's buffer obligation is met.
  release_copy(ack.message, ack.packet_index);
}

void ReliableFpfsNi::deliver(const net::Packet& packet) {
  // Control traffic jumps the queue: a data or ACK packet behind a long
  // forwarding backlog would otherwise delay acknowledgments past the
  // retransmission timeout and trigger spurious retransmit storms even
  // on a lossless fabric (real NIs prioritize tiny control responses for
  // exactly this reason).
  if (packet.tag == kAckTag) {
    coproc_.enqueue_front(reliability_.t_ack,
                          [this, packet] { handle_ack(packet); });
    return;
  }
  // Acknowledge at arrival — the sender may be retransmitting because a
  // previous ACK was lost, and duplicates must be re-ACKed too.
  send_ack(packet);
  coproc_.enqueue_low(params_.t_rcv, [this, packet] {
    MessageSlot* slot = find_slot(packet.message);
    if (slot == nullptr) {
      throw std::logic_error("ReliableFpfsNi: packet for unknown message");
    }
    PacketState& state = packet_state(*slot, packet.packet_index);
    if (state.seen) {
      ++dup_count_;
      return;  // duplicate data: do not re-forward or re-count
    }
    state.seen = true;
    on_packet_received(packet, slot->entry);
    note_data_processed(packet, slot->entry);
  });
}

void ReliableFpfsNi::on_packet_received(const net::Packet& packet,
                                        const ForwardingEntry& entry) {
  if (entry.children.empty()) return;
  hold_packet(packet.message, packet.packet_index,
              static_cast<std::int32_t>(entry.children.size()));
  await_acks(*find_slot(packet.message), packet.packet_index);
  for (topo::HostId child : entry.children) {
    reliable_send(packet.message, packet.packet_index, packet.packet_count,
                  child);
  }
}

}  // namespace nimcast::netif
