#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "routing/routing.hpp"
#include "topology/topology.hpp"

namespace nimcast::routing {

/// Kept only because the benchmark's frozen workload builders
/// (perfbench/workloads/common.cpp) still take and compare it. nimcast
/// itself has one route store, RouteTable's compressed table; nothing in
/// the library reads this enum.
enum class RouteStorage : std::uint8_t { kEager, kCompressed };

/// Host-level routes for a (topology, router), one route per *switch
/// pair* (hosts on the same switch share it), materialized on first use.
///
/// Host routes are switch routes between the attached switches; hosts on
/// the same switch route through that single switch (zero link hops, but
/// still one injection and one ejection channel in the network model).
/// A flat num_switches² array of 4-byte route ids points into block
/// storage that holds only the routes a run has touched, so construction
/// is O(switches²) slots and no routing.
///
/// Pairs the router cannot connect (a partitioned surviving subgraph
/// after faults) are unreachable rather than throwing: check
/// `reachable()` before `path()`. Reachability comes from the router's
/// per-switch component map, so the hot reachable() path never routes.
/// Tables rebuilt after a fault carry an `epoch` so consumers can tell
/// which generation of routes produced a result.
///
/// Every query answers exactly what the router's try_route() would for
/// the pair's attached switches (tests/routing/test_route_table_lazy
/// checks this against an all-pairs reference on every seed topology,
/// pre- and post-fault). Tables are safe to share across testbed worker
/// threads: concurrent first-touch materialization is synchronized, and
/// a published route is immutable.
class RouteTable {
 public:
  /// Non-owning constructor: the caller keeps `router` alive for the
  /// table's lifetime, since routes are materialized from it on demand.
  RouteTable(const topo::Topology& topology, const Router& router,
             std::int32_t epoch = 0);

  /// Owning constructor for tables whose router would otherwise be a
  /// temporary (the fault-repair rebuild path).
  RouteTable(const topo::Topology& topology,
             std::shared_ptr<const Router> router, std::int32_t epoch = 0);

  /// Only meaningful when `reachable(src, dst)`; unreachable pairs hold
  /// an empty placeholder route.
  [[nodiscard]] const SwitchRoute& path(topo::HostId src,
                                        topo::HostId dst) const;

  [[nodiscard]] bool reachable(topo::HostId src, topo::HostId dst) const {
    const auto a = component(switch_of(src));
    return a >= 0 && a == component(switch_of(dst));
  }

  /// True when every host pair has a legal route (always the case before
  /// any fault partitions the fabric).
  [[nodiscard]] bool fully_connected() const { return unreachable_pairs_ == 0; }

  [[nodiscard]] std::int64_t unreachable_pairs() const {
    return unreachable_pairs_;
  }

  /// Route generation: 0 for the pristine fabric, bumped by each
  /// fault-time rebuild.
  [[nodiscard]] std::int32_t epoch() const { return epoch_; }

  [[nodiscard]] std::int32_t num_hosts() const { return num_hosts_; }

  /// Virtual channels the generating router uses; the network provisions
  /// this many per directed physical channel.
  [[nodiscard]] std::int32_t virtual_channels() const { return num_vcs_; }

  /// Number of switch-switch link hops between two hosts.
  [[nodiscard]] std::size_t hops(topo::HostId src, topo::HostId dst) const {
    return path(src, dst).hops();
  }

  /// True when the routes of (a -> b) and (c -> d) share no directed
  /// channel — the paper's link-disjointness condition for contention-free
  /// orderings (Section 4.3.2).
  [[nodiscard]] bool disjoint(const topo::Graph& g, topo::HostId a,
                              topo::HostId b, topo::HostId c,
                              topo::HostId d) const;

  /// Switch-pair routes materialized so far. Diagnostics and scaling
  /// benches only.
  [[nodiscard]] std::size_t routes_materialized() const;

  /// Approximate heap footprint of the route storage: the pair index,
  /// block table and component map plus the route vectors actually
  /// allocated. The quantity `bench_scale` and perfbench report.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Materialized routes live in fixed-size blocks that never move, so a
  /// published route id stays valid while other threads append.
  static constexpr std::uint32_t kBlockRoutes = 16;

  /// The fill lock and route count, boxed so RouteTable stays movable.
  ///
  /// Publication: a filler (holding `mutex`) writes the route into its
  /// block — allocating the block and storing its pointer in `blocks_`
  /// first if needed — then release-stores id+1 into `route_id_`. A
  /// reader that acquire-loads a non-zero id therefore sees both the
  /// block pointer and the route; `blocks_` is sized once and never
  /// reallocated.
  struct FillState {
    std::mutex mutex;
    /// Routes materialized so far, which is also the next route id.
    /// Written under `mutex`.
    std::atomic<std::uint32_t> materialized{0};
  };

  [[nodiscard]] const SwitchRoute& route(std::uint32_t id) const {
    return blocks_[id / kBlockRoutes][id % kBlockRoutes];
  }
  [[nodiscard]] topo::SwitchId switch_of(topo::HostId h) const {
    return host_switch_[h];
  }
  [[nodiscard]] std::size_t num_blocks() const {
    return (pairs() + kBlockRoutes - 1) / kBlockRoutes;
  }
  [[nodiscard]] std::size_t pairs() const {
    return num_switches_ * num_switches_;
  }
  [[nodiscard]] std::size_t pair(topo::SwitchId s, topo::SwitchId d) const {
    return static_cast<std::size_t>(s) * num_switches_ +
           static_cast<std::size_t>(d);
  }
  [[nodiscard]] std::int32_t component(topo::SwitchId s) const {
    return component_[static_cast<std::size_t>(s)];
  }

  const topo::Topology* topology_;
  /// The topology's per-host attached switches (Topology::host_switches).
  const topo::SwitchId* host_switch_;
  std::shared_ptr<const Router> owned_;  ///< null when non-owning
  const Router* router_;
  std::int32_t num_hosts_;
  std::int32_t num_vcs_;
  std::int32_t epoch_;
  std::int64_t unreachable_pairs_ = 0;
  std::size_t num_switches_;
  std::vector<std::int32_t> component_;  ///< per-switch, -1 = dead
  /// The route store, read by path() without the lock: num_switches²
  /// route ids (0 = not yet materialized, else route id+1) and enough
  /// block slots for every switch pair (null until first used).
  std::unique_ptr<std::atomic<std::uint32_t>[]> route_id_;
  std::unique_ptr<std::unique_ptr<SwitchRoute[]>[]> blocks_;
  std::unique_ptr<FillState> fill_;
};

}  // namespace nimcast::routing
