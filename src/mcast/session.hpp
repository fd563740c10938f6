#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "netif/host.hpp"
#include "netif/ni_base.hpp"
#include "network/wormhole_network.hpp"
#include "sim/simulator.hpp"

namespace nimcast::mcast {

/// The simulated system one traffic::TrafficEngine run (and so every
/// engine call) runs on (paper Sections 2.3 and 3): one simulator, the
/// wormhole network, and per participating host a Host (t_s/t_r
/// software) plus, for the multicast styles, its NI. The network is
/// constructed first, so its fault events keep their FIFO order keys;
/// nothing else the session does schedules an event unless its comment
/// says so, so the run keeps its exact sequence of schedule and
/// reserve_order calls. Its errors are prefixed "TrafficEngine".
class Session {
 public:
  /// With a non-empty fault plan and RepairPolicy::reroute, every fault
  /// event rebuilds up*/down* routes on the surviving fabric
  /// (std::invalid_argument on a multi-VC table, which cannot be rebuilt).
  Session(const topo::Topology& topology, const routing::RouteTable& routes,
          const netif::SystemParams& params, const net::NetworkConfig& network,
          const RepairPolicy& repair, sim::Trace* trace = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::WormholeNetwork& network() { return network_; }
  [[nodiscard]] bool faulty() const { return faulty_; }
  [[nodiscard]] std::size_t num_hosts() const { return num_hosts_; }

  /// Builds `h`'s Host and a `style` NI (bound as h's delivery sink)
  /// unless it has them.
  void add_ni(topo::HostId h, NiStyle style,
              const netif::ReliabilityParams& reliability = {});
  [[nodiscard]] netif::NetworkInterface& ni(topo::HostId h) {
    return *nis_[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] netif::Host& host(topo::HostId h) {
    return *hosts_[static_cast<std::size_t>(h)];
  }
  /// Calls `f(ni)` for every NI, in ascending host id.
  template <typename F>
  void for_each_ni(F&& f) {
    for (auto& ni : nis_) {
      if (ni) f(*ni);
    }
  }

  /// The next dense message id (1, 2, ...), tagged with ledger `key`.
  [[nodiscard]] net::MessageId new_message(std::size_t key = 0);
  /// Installs `message` on every node of `tree`: its children, the
  /// message's packet count, and "destination" for every non-root node.
  void install_tree(net::MessageId message, const core::HostTree& tree,
                    std::int32_t packets, std::int32_t route_class = 0);
  /// Installs a two-node leg src -> dst.
  void install_unicast(net::MessageId message, topo::HostId src,
                       topo::HostId dst, std::int32_t packets);
  /// Hands `message` to `root`'s NI now (the host pays its start-up).
  void start(topo::HostId root, net::MessageId message);
  /// Schedules start(root, message) at `when`.
  void start_at(sim::Time when, topo::HostId root, net::MessageId message);

  /// Runs the simulator until the queue drains; throws
  /// std::runtime_error when worms are still in flight (a deadlock).
  void drain();

  /// One destination's first completion of a ledger key.
  struct Completion {
    std::size_t key = 0;
    topo::HostId host = topo::kInvalidId;
    sim::Time at;
  };
  /// Wires every NI's message completion into the ledger as
  /// complete(key, dest, message) for keys below `keys`; messages of
  /// larger keys are untracked. Call after every NI is built.
  void track_completions(std::size_t keys,
                         std::function<void(std::size_t)> on_first = {});
  /// The first time `dest` completes a message of tracked `key`,
  /// `on_first(key)` runs and the host's t_r is queued, after which the
  /// host-level completion is logged and the NI sees after_host_receive.
  /// Later completions of the same key at the same destination (repair
  /// resends) are ignored.
  void complete(std::size_t key, topo::HostId dest, net::MessageId message);
  /// The ledger key `message` was created with (new_message).
  [[nodiscard]] std::size_t key_of(net::MessageId message) const {
    return message_key_[static_cast<std::size_t>(message - 1)];
  }
  [[nodiscard]] bool arrived(std::size_t key, topo::HostId h) const {
    return arrived_[key * num_hosts_ + static_cast<std::size_t>(h)] != 0;
  }
  /// Host-level completions in the order they fired.
  [[nodiscard]] const std::vector<Completion>& completion_log() const {
    return host_done_;
  }

  /// Repair rounds r = 1 .. RepairPolicy::max_attempts: `round` plans
  /// and schedules round r's work to start at now + 30 us * 2^(r-1)
  /// and returns whether it scheduled anything; the loop drains after
  /// every round that did and stops at the first that did not.
  void repair_rounds(const std::function<bool(sim::Time start_at)>& round);
  /// Handoff election: the first host of `order` other than `excluded`
  /// that is alive and `holds` what the initiator must send, else
  /// kInvalidId.
  [[nodiscard]] topo::HostId elect(
      const std::vector<topo::HostId>& order, topo::HostId excluded,
      const std::function<bool(topo::HostId)>& holds) const;
  /// CCO-order orphan re-parenting: a k-binomial tree over `initiator`
  /// plus every host of `order` (already in contention-free order) that
  /// `needs` re-delivery and that the surviving fabric reaches from
  /// `initiator`, with `fanout` clamped to the population. nullopt when
  /// nobody needs re-parenting.
  [[nodiscard]] std::optional<core::HostTree> repair_tree(
      topo::HostId initiator, const std::vector<topo::HostId>& order,
      const std::function<bool(topo::HostId)>& needs,
      std::int32_t fanout) const;

  /// One verdict per host of `nodes` except `root`, in order: reachable
  /// from `reference` on the end-of-run routes, delivered at its
  /// earliest `done` time when listed there.
  [[nodiscard]] std::vector<DestinationStatus> verdicts(
      const std::vector<topo::HostId>& nodes, topo::HostId root,
      topo::HostId reference,
      std::span<const std::pair<topo::HostId, sim::Time>> done);

 private:
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  netif::SystemParams params_;
  RepairPolicy repair_;
  sim::Trace* trace_;
  bool faulty_;
  std::size_t num_hosts_;
  sim::Simulator sim_;
  net::WormholeNetwork network_;
  std::vector<std::unique_ptr<routing::RouteTable>> repaired_tables_;
  std::vector<std::unique_ptr<netif::Host>> hosts_;
  std::vector<std::unique_ptr<netif::NetworkInterface>> nis_;
  std::vector<std::size_t> message_key_;
  std::size_t tracked_keys_ = 0;
  std::vector<std::uint8_t> arrived_;
  std::function<void(std::size_t)> on_first_;
  std::vector<Completion> host_done_;
  /// verdicts' per-host completion index: Time::max() except while a
  /// call fills it.
  std::vector<sim::Time> done_at_;
};

/// kComplete when every destination delivered (or there are none),
/// kFailed when none did, kPartial otherwise.
[[nodiscard]] Outcome outcome_of(
    const std::vector<DestinationStatus>& destinations);

}  // namespace nimcast::mcast
