#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "network/network_config.hpp"
#include "network/packet.hpp"
#include "routing/route_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"

namespace nimcast::net {

/// Receiver of fully-arrived packets, bound once per host. The hot send
/// path dispatches through this instead of carrying a per-packet
/// std::function — every NI delivered to itself anyway, so the closure
/// was pure allocation overhead at scale.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  /// The packet has fully arrived (header + payload) at this host's NI.
  virtual void on_packet_delivered(const Packet& packet) = 0;
};

/// Channel-level wormhole network simulator.
///
/// Every undirected switch link contributes two directed channels; every
/// host contributes an injection channel (NI -> switch) and an ejection
/// channel (switch -> NI). A packet travels as a worm: the header acquires
/// the channels of its route in order, advancing one `t_hop` per acquired
/// channel; when a channel is busy the worm *blocks in place, holding
/// everything it has acquired so far* — the defining wormhole behaviour
/// and the reason the paper needs contention-free tree constructions.
/// Channels release when the packet has fully drained into the destination
/// NI (exact for short fixed-size packets whose worm spans the path).
///
/// Blocked worms wait in per-channel FIFO queues, so contention resolution
/// is deterministic given the event order.
///
/// Virtual channels (when the route table's router uses them, e.g.
/// dateline torus routing) are modeled as independent channels: each VC
/// has its own occupancy and FIFO. This preserves the deadlock behaviour
/// exactly; it idealizes bandwidth in the rare instants when two VCs of
/// one physical link carry flits simultaneously (a standard lightweight
/// simplification, noted in DESIGN.md).
///
/// Storage: worms live in a deque arena (stable addresses, so `Worm*`
/// survives growth) with an intrusive free list; a recycled slot keeps
/// its vectors' capacity, so steady-state traffic allocates nothing.
/// Channel state is three flat arrays indexed by channel id (busy flag,
/// waiter-FIFO head/tail), with the FIFO linked through the worms
/// themselves.
///
/// Loss is a pure hash of a packet's identity (loss_seed, message,
/// packet index, attempt, sender, dest), not a draw from an RNG stream,
/// so whether a packet is lost does not depend on the order in which
/// events happen to run.
class WormholeNetwork {
 public:
  WormholeNetwork(sim::Simulator& simctx, const topo::Topology& topology,
                  const routing::RouteTable& routes, NetworkConfig config,
                  sim::Trace* trace = nullptr);

  WormholeNetwork(const WormholeNetwork&) = delete;
  WormholeNetwork& operator=(const WormholeNetwork&) = delete;

  /// Binds the packet receiver for `host`. Rebinding overwrites; sinks
  /// must outlive the network (NIs own their network reference, so NI
  /// construction order takes care of this).
  void bind_sink(topo::HostId host, DeliverySink* sink);

  /// Injects one packet from `packet.sender`'s NI toward `packet.dest`'s
  /// NI at the current simulated time; on full arrival the destination
  /// host's bound DeliverySink receives it. The injection channel may
  /// itself be busy, in which case the worm queues like at any other
  /// channel. Packets whose sender or destination sits on a dead switch,
  /// or whose pair is unreachable in the route table their route_class
  /// selects (0 = primary, see bind_route_class), are dropped at
  /// injection (counted in packets_dropped()).
  void send(const Packet& packet);

  /// Binds the route table packets of `route_class == cls` (cls >= 1)
  /// build their paths from; class 0 is the primary table. The table
  /// must match the primary's host count and virtual-channel
  /// multiplicity (channel numbering depends on both) and must outlive
  /// the network. Fault repair only rebuilds the primary table
  /// (rebind_routes); bound class tables go stale and their worms die
  /// at the first dead channel like any fault victim — the engine's
  /// surviving-member fallback handles redelivery.
  void bind_route_class(std::int32_t cls, const routing::RouteTable& routes);

  /// Fired after a `config.faults` event has been applied: the liveness
  /// mask is updated and every worm caught on a dying channel has been
  /// truncated. Fires for recoveries (kLinkUp) too — the multicast engine
  /// hooks this to rebuild routes on the *current* surviving subgraph,
  /// whichever direction it just changed.
  std::function<void(const FaultEvent&)> on_fault;

  /// Swaps the route table consulted for future injections — the
  /// fault-repair path after a rebuild on the surviving subgraph. Host
  /// count and virtual-channel multiplicity must match the original
  /// table (channel numbering depends on both). Worms already in flight
  /// keep their old paths.
  void rebind_routes(const routing::RouteTable& routes);

  [[nodiscard]] const routing::RouteTable& routes() const { return *routes_; }

  /// Current fault state; empty vectors mean the pristine fabric.
  [[nodiscard]] const topo::SubgraphMask& fault_state() const { return mask_; }

  /// False when the host's switch has died or the host itself was killed
  /// by a kHostDown fault.
  [[nodiscard]] bool host_alive(topo::HostId h) const;

  /// Both endpoints alive and connected under the bound route table.
  [[nodiscard]] bool reachable(topo::HostId src, topo::HostId dst) const;

  /// Worms currently traversing the network (or blocked inside it). A
  /// simulator that goes idle while this is non-zero has hit a routing
  /// deadlock — possible with torus dimension-ordered routes, impossible
  /// with up*/down*.
  [[nodiscard]] std::int32_t in_flight() const { return in_flight_; }

  [[nodiscard]] std::int64_t packets_delivered() const { return delivered_; }

  /// Packets dropped by the loss process (loss_rate > 0) or by faults
  /// (truncated worms, injections into a dead fabric segment). Dropped
  /// packets consumed wire time but never reached their delivery
  /// callback.
  [[nodiscard]] std::int64_t packets_dropped() const { return dropped_; }

  /// Worms truncated mid-flight by a fault: their acquired channels were
  /// freed, the tail was killed, and the receiver saw a CRC-style drop.
  /// A subset of packets_dropped().
  [[nodiscard]] std::int64_t packets_killed() const { return killed_; }

  /// Fault events applied so far.
  [[nodiscard]] std::int32_t faults_applied() const { return faults_applied_; }

  /// Cumulative time worms spent blocked on busy channels; the
  /// contention metric reported by the ordering ablation.
  [[nodiscard]] sim::Time total_block_time() const { return total_block_; }

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Latency of an uncontended traversal over `hops` switch-switch links
  /// (plus injection and ejection): the network component of the paper's
  /// t_step.
  [[nodiscard]] sim::Time uncontended_latency(std::size_t hops) const;

  /// Pool high-water mark: worm slots ever allocated. Equals the peak
  /// number of simultaneously live worms — the pool leak/reuse invariant
  /// the worm-pool tests pin.
  [[nodiscard]] std::size_t worm_pool_slots() const { return arena_.size(); }

  /// Slots currently on the free list (== worm_pool_slots() when the
  /// network is idle and nothing leaked).
  [[nodiscard]] std::size_t worm_pool_free() const { return free_count_; }

  /// Maximum in_flight() ever observed.
  [[nodiscard]] std::int32_t peak_in_flight() const { return peak_in_flight_; }

  /// Per-channel congestion telemetry, maintained on the existing
  /// channel-acquisition/release path (two array increments — no
  /// per-flit allocation, no extra events). Counters are cumulative and
  /// monotone over the network's lifetime.
  /// Total channels (switch + injection + ejection); valid ids are
  /// [0, num_channels()).
  [[nodiscard]] std::int32_t num_channels() const {
    return static_cast<std::int32_t>(channel_busy_.size());
  }
  /// Cumulative ns worms spent parked waiting for `chan`, accrued at
  /// each FIFO hand-off. Sums to total_block_time() over all channels.
  [[nodiscard]] std::int64_t channel_block_ns(std::int32_t chan) const {
    return chan_block_ns_[static_cast<std::size_t>(chan)];
  }
  /// Times `chan` was acquired (first grab + every FIFO hand-off).
  [[nodiscard]] std::uint64_t channel_acquisitions(std::int32_t chan) const {
    return chan_acq_[static_cast<std::size_t>(chan)];
  }
  /// Public channel-id helper for telemetry consumers: the injection
  /// (NI -> switch) channel of host `h`. A rotation member's switch
  /// footprint plus its forwarders' injection channels is the channel
  /// set whose congestion the member actually feels.
  [[nodiscard]] std::int32_t injection_channel_id(topo::HostId h) const {
    return injection_channel(h);
  }

 private:
  struct PendingRelease {
    std::int32_t chan;
    sim::EventId id;
  };

  struct Worm {
    Packet packet;
    std::vector<std::int32_t> path;      ///< channel ids, injection..ejection
    std::vector<sim::Time> acquired_at;  ///< per-channel acquisition times
    /// Pipelined mode: staggered releases not yet fired — cancelled and
    /// released on kill.
    std::vector<PendingRelease> pending_releases;
    std::size_t next = 0;        ///< next channel to acquire
    sim::Time block_start{};     ///< set while parked on a busy channel
    sim::EventId pending{};      ///< in-flight hop / drain-completion event
    /// Waiter-FIFO link while parked; free-list link while the slot is
    /// free.
    Worm* next_waiter = nullptr;
    /// Channels [0, released_below) already freed by pipelined staggered
    /// releases; they must not be freed again when the worm is killed.
    std::size_t released_below = 0;
    bool parked = false;    ///< sitting in some channel's waiter FIFO
    bool draining = false;  ///< final channel acquired, payload draining
    bool in_use = false;    ///< live worm vs free slot (fault sweep filter)
  };

  /// Channel ids: [0, 2E*V) switch channels, [2E*V, 2E*V+H) injection,
  /// [2E*V+H, 2E*V+2H) ejection.
  [[nodiscard]] std::int32_t injection_channel(topo::HostId h) const;
  [[nodiscard]] std::int32_t ejection_channel(topo::HostId h) const;
  /// Table for a packet's route class: class 0, unbound or out-of-range
  /// classes fall back to the primary table.
  [[nodiscard]] const routing::RouteTable& class_table(std::int32_t cls) const;
  void build_path(topo::HostId src, topo::HostId dst, std::int32_t cls,
                  std::vector<std::int32_t>& out) const;

  [[nodiscard]] Worm* alloc_worm();
  void free_worm(Worm* w);
  void push_waiter(std::int32_t chan, Worm* w);
  [[nodiscard]] Worm* pop_waiter(std::int32_t chan);
  void erase_waiter(std::int32_t chan, Worm* w);

  /// Advances the worm's header through free channels; parks it on the
  /// first busy one.
  void progress(Worm* w);
  /// Schedules the header's arrival at path[next], `t_hop` from now.
  void schedule_hop(Worm* w);
  /// Called once the final channel is acquired: schedules the tail drain
  /// (and, in pipelined mode, the staggered upstream releases).
  void schedule_drain(Worm* w);
  void complete(Worm* w);
  void release_channel(std::int32_t chan);

  /// Applies one fault event: updates the liveness mask, condemns the
  /// affected channels and truncates every worm caught on one.
  void apply_fault(const FaultEvent& ev);
  void refresh_dead_channels();
  /// Truncates a worm: unparks or cancels its pending events, frees every
  /// channel it still holds, counts the packet as dropped+killed.
  void kill_worm(Worm* w);
  [[nodiscard]] bool channel_dead(std::int32_t chan) const {
    return !channel_dead_.empty() &&
           channel_dead_[static_cast<std::size_t>(chan)];
  }

  /// Loss draw for a delivered packet: a pure hash of (loss_seed,
  /// message, packet index, attempt, sender, dest) against loss_rate.
  /// No state and no draw order, so event order cannot change it.
  [[nodiscard]] bool packet_lost(const Packet& p) const;

  sim::Simulator& sim_;
  const topo::Topology& topology_;
  const routing::RouteTable* routes_;  ///< pointer: rebindable after faults
  /// Alternative tables by route class (index = class - 1); null slots
  /// fall back to the primary table.
  std::vector<const routing::RouteTable*> class_routes_;
  NetworkConfig config_;
  sim::Trace* trace_;

  // Flat per-channel state, indexed by channel id.
  std::vector<std::uint8_t> channel_busy_;
  std::vector<Worm*> wait_head_;  ///< waiter-FIFO head, null when empty
  std::vector<Worm*> wait_tail_;
  /// Cumulative block ns per channel; see channel_block_ns().
  std::vector<std::int64_t> chan_block_ns_;
  /// Acquisition count per channel; see channel_acquisitions().
  std::vector<std::uint64_t> chan_acq_;

  std::deque<Worm> arena_;  ///< stable addresses; grows at injection
  Worm* free_head_ = nullptr;
  std::size_t free_count_ = 0;
  std::int32_t in_flight_ = 0;
  std::int32_t peak_in_flight_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t killed_ = 0;
  sim::Time total_block_ = sim::Time::zero();

  std::vector<DeliverySink*> sinks_;  ///< per host, null until bound

  std::int32_t faults_applied_ = 0;
  topo::SubgraphMask mask_;
  /// Hosts killed by kHostDown. Kept out of SubgraphMask on purpose:
  /// host death does not change the switch graph, so route tables need
  /// no rebuild. Sized lazily like the mask (empty == all alive).
  std::vector<bool> dead_host_;
  /// Parallel to channel_busy_; sized lazily at the first fault so the
  /// zero-fault path touches nothing.
  std::vector<bool> channel_dead_;
};

}  // namespace nimcast::net
