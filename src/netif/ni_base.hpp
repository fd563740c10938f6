#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "netif/buffer_tracker.hpp"
#include "netif/collective_role.hpp"
#include "netif/forwarding.hpp"
#include "netif/host.hpp"
#include "netif/serial_server.hpp"
#include "netif/system_params.hpp"
#include "network/wormhole_network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace nimcast::netif {

/// Base network interface model.
///
/// One per host. The NI owns a coprocessor (a `SerialServer`): accepting a
/// packet from the network costs `t_rcv`, injecting one copy costs
/// `t_snd`. Subclasses implement the multicast forwarding discipline —
/// what the coprocessor firmware does with a received multicast packet and
/// how the source side schedules the initial copies. A CollectiveRole
/// message runs the collective firmware on the same coprocessor instead.
///
/// The engine wires `on_message_at_ni` to fire when this NI has received
/// (and finished receive-processing of) every packet of a message for
/// which it is a destination; host-level completion (the +t_r) is layered
/// on top by the engine through the Host object.
class NetworkInterface : public net::DeliverySink {
 public:
  /// Binds itself as `self`'s delivery sink on `network` — packets
  /// addressed to `self` arrive through deliver() with no per-packet
  /// closure or engine-installed dispatch in between.
  NetworkInterface(sim::Simulator& simctx, net::WormholeNetwork& network,
                   SystemParams params, topo::HostId self,
                   sim::Trace* trace = nullptr);
  ~NetworkInterface() override = default;

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;

  /// Installs multicast forwarding state for `message`. Must be called on
  /// every participant's NI before the source begins.
  void install(net::MessageId message, ForwardingEntry entry);

  /// Installs this host's collective role for `message`: its packets skip
  /// the style's deliver() (no ACK layer sees them) for the collective
  /// firmware, whose met obligation fires on_message_at_ni.
  void install_role(net::MessageId message, CollectiveRole role);
  /// The role installed for `message`, or nullptr.
  [[nodiscard]] const CollectiveRole* role(net::MessageId message) const;
  /// Source-side start of `message`'s role, after the host's t_s.
  void start_role(net::MessageId message);

  /// Source-side entry point: begins the multicast at this node, charging
  /// whatever host software cost the NI style requires (smart NIs: one
  /// t_s to move the message into NI memory; conventional NIs: one t_s
  /// per child, with the message staying in host memory).
  virtual void start_from_host(net::MessageId message, Host& host) = 0;

  /// Network delivery entry point: a packet has fully arrived in the NI
  /// receive queue. Receive processing (t_rcv) is queued on the
  /// coprocessor; the discipline hook runs when it completes. Virtual so
  /// protocol layers (e.g. the reliable NI) can interpose on raw
  /// arrivals (ACKs, duplicates) before the standard path.
  virtual void deliver(const net::Packet& packet);

  /// DeliverySink: the network hands this NI its own fully-arrived
  /// packets. A collective packet holds a buffer slot until its role
  /// handles it after t_rcv (low lane); the rest route through the
  /// virtual deliver() so protocol layers keep their interposition point.
  void on_packet_delivered(const net::Packet& packet) final {
    MessageSlot* slot = find_slot(packet.message);
    if (slot == nullptr || !slot->role) {
      deliver(packet);
      return;
    }
    CollectiveRole* role = slot->role;
    ++role->delivered;
    buffer_.acquire();
    coproc_.enqueue_low(params_.t_rcv, [this, role, packet] {
      buffer_.release();
      role_handle(*role, packet);
    });
  }

  /// Called by the engine after the destination host finished its t_r for
  /// `message` (the message is now in application memory). Conventional
  /// NIs forward to children from here; smart NIs ignore it.
  virtual void after_host_receive(net::MessageId message, Host& host);

  /// Fired once per (destination NI, message): all packets received and
  /// receive-processed.
  std::function<void(topo::HostId, net::MessageId)> on_message_at_ni;

  /// Fired once per receive-processed data packet, after the forwarding
  /// discipline ran. Unset (the default) costs the hot path one branch;
  /// the streaming engine binds it to drive per-packet in-order
  /// reassembly accounting.
  std::function<void(topo::HostId, const net::Packet&)> on_packet_at_ni;

  [[nodiscard]] topo::HostId id() const { return self_; }
  [[nodiscard]] const BufferTracker& buffer() const { return buffer_; }
  [[nodiscard]] const SerialServer& coprocessor() const { return coproc_; }
  /// Coprocessor backlog: tasks queued plus tasks in service. The
  /// adaptive streaming selector samples this at telemetry snapshots as
  /// the NI-side congestion signal.
  [[nodiscard]] std::int64_t injection_queue_depth() const {
    return static_cast<std::int64_t>(coproc_.queued()) + coproc_.active();
  }
  [[nodiscard]] const SystemParams& params() const { return params_; }
  [[nodiscard]] virtual const char* style() const = 0;

 protected:
  /// Discipline hook: a multicast packet finished receive processing.
  /// Forward copies as the discipline dictates (leaves do nothing).
  virtual void on_packet_received(const net::Packet& packet,
                                  const ForwardingEntry& entry) = 0;

  /// Queues one copy of packet `index` on the coprocessor (t_snd), then
  /// injects it into the network under `route_class` with `tag`. No
  /// buffer accounting.
  void inject_copy(net::MessageId message, std::int32_t index,
                   std::int32_t packet_count, topo::HostId child,
                   std::int32_t route_class = 0, std::int32_t tag = -1);

  /// Buffer-accounted variant: decrements the packet's outstanding-copy
  /// count when the injection completes, releasing the buffer slot at
  /// zero. The packet must be held (see hold_packet).
  void send_copy(net::MessageId message, std::int32_t index,
                 std::int32_t packet_count, topo::HostId child,
                 std::int32_t route_class = 0);

  /// send_copy with a continuation: `then` runs inside the same
  /// coprocessor completion action, after the injection and buffer
  /// release. The adaptive streaming source hangs the *next* packet's
  /// member selection off its last copy this way — the continuation
  /// enqueues before the coprocessor picks its next task, so the issue
  /// stream's timing is byte-identical to enqueueing everything upfront.
  template <typename F>
  void send_copy_then(net::MessageId message, std::int32_t index,
                      std::int32_t packet_count, topo::HostId child,
                      std::int32_t route_class, F then) {
    coproc_.enqueue(params_.t_snd, [this, message, index, packet_count, child,
                                    route_class,
                                    then = std::move(then)]() mutable {
      transmit(message, index, packet_count, child, route_class, true);
      then();
    });
  }

  /// Declares that packet `index` is resident in NI memory and will be
  /// copied out `copies` times. Acquires a buffer slot (released
  /// immediately when copies == 0).
  void hold_packet(net::MessageId message, std::int32_t index,
                   std::int32_t copies);

  /// Decrements a held packet's outstanding-copy count, releasing its
  /// buffer slot on the last copy. send_copy calls it once the injection
  /// completes; the reliable NI calls it directly on acknowledgment.
  void release_copy(net::MessageId message, std::int32_t index);

  /// Counts one successfully receive-processed *distinct* data packet and
  /// fires on_message_at_ni when the message completes. deliver() calls
  /// this; subclasses that override deliver() must call it themselves for
  /// each distinct packet.
  void note_data_processed(const net::Packet& packet,
                           const ForwardingEntry& entry);

  /// The installed entry for `m`, or nullptr. The pointer stays valid
  /// across later installs (a reinstall overwrites the same entry), save
  /// one that turns `m` from a multicast into a collective role or back,
  /// which moves the message to a new slot.
  [[nodiscard]] const ForwardingEntry* find_entry(net::MessageId m) const;

  /// One copy of a held packet awaiting its child's acknowledgment
  /// (reliable NI): the armed retransmission timer and the attempts
  /// burned so far.
  struct PendingCopy {
    sim::EventId timer;
    std::int32_t attempts = 0;
    bool live = false;  ///< sent, not yet ACKed or abandoned
  };

  /// One packet of a message at this NI.
  struct PacketState {
    /// Copies still to inject or acknowledge; > 0 while the packet
    /// occupies a buffer slot.
    std::int32_t outstanding = 0;
    /// Reliable NI: a data copy was already receive-processed.
    bool seen = false;
  };

  /// Everything the NI keeps per message: the forwarding entry, how many
  /// distinct packets finished receive processing, the per-packet states
  /// (sized on first use, so leaves of the unreliable styles never
  /// allocate them), the reliable NI's per-copy ACK state, and the
  /// collective role when the message is one.
  struct MessageSlot {
    ForwardingEntry entry;
    std::int32_t received = 0;
    /// Entries of `pending`: per (packet, child position in
    /// entry.children), packet-major, allocated on the first send (an
    /// array and its count, not a vector, keep a slot at 88 bytes).
    std::uint32_t pending_size = 0;
    std::vector<PacketState> packets;
    std::unique_ptr<PendingCopy[]> pending;
    /// The collective role, held in the same allocation (a RoleSlot) so
    /// forwarding slots do not carry its size; null for a multicast.
    CollectiveRole* role = nullptr;
  };

  /// Packet `index`'s state in `slot`, sizing the table on first use.
  PacketState& packet_state(MessageSlot& slot, std::int32_t index);

  /// The slot of an installed message, or nullptr. Inline: every
  /// received packet and every injected copy looks its message up.
  [[nodiscard]] const MessageSlot* find_slot(net::MessageId m) const {
    const auto id = static_cast<std::size_t>(m);
    if (m < 0 || id >= slot_of_.size() || slot_of_[id] == 0) return nullptr;
    return slots_[slot_of_[id] - 1].get();
  }
  [[nodiscard]] MessageSlot* find_slot(net::MessageId m) {
    return const_cast<MessageSlot*>(std::as_const(*this).find_slot(m));
  }

  /// The one send path behind inject_copy, send_copy and send_copy_then,
  /// run inside their coprocessor completion: builds packet `index` of
  /// `message` for `child` with `tag`, hands it to the network, releases
  /// its buffer copy when `release`, and records the "sent" trace line.
  void transmit(net::MessageId message, std::int32_t index,
                std::int32_t packet_count, topo::HostId child,
                std::int32_t route_class, bool release,
                std::int32_t tag = -1);

  sim::Simulator& sim_;
  net::WormholeNetwork& network_;
  SystemParams params_;
  topo::HostId self_;
  sim::Trace* trace_;
  SerialServer coproc_;
  BufferTracker buffer_;

 private:
  // The collective firmware (collective_role.cpp).
  void role_handle(CollectiveRole& role, const net::Packet& packet);
  /// Reduce up phase: folds one child packet into the local partial.
  void role_fold(CollectiveRole& role, const net::Packet& packet);
  /// Counts one step toward `goal`; reaching it meets the obligation.
  void role_progress(CollectiveRole& role, net::MessageId message,
                     std::int32_t goal);

  /// A collective role message's slot: the role lives inline. A slot is
  /// a RoleSlot exactly when its `role` is set.
  struct RoleSlot final : MessageSlot {
    RoleSlot(MessageSlot&& base, CollectiveRole r)
        : MessageSlot(std::move(base)), held{std::move(r)} {
      role = &held;
    }
    RoleSlot(RoleSlot&&) = delete;
    CollectiveRole held;
  };
  /// Deletes a slot as what it is (MessageSlot has no virtual members).
  struct SlotDeleter {
    void operator()(MessageSlot* slot) const noexcept;
  };

  /// Message ids are dense (1..N in every engine), so a vector indexed
  /// by id maps each installed message to its slot (index + 1; 0 = not
  /// installed; four bytes per id, as an NI in a mix sees most ids).
  /// Each slot is owned on its own: find_entry and role pointers held by
  /// streams, repair rounds and queued firmware tasks survive later
  /// installs of other messages.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::unique_ptr<MessageSlot, SlotDeleter>> slots_;
};

}  // namespace nimcast::netif
