#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "routing/routing.hpp"
#include "topology/topology.hpp"

namespace nimcast::routing {

/// How a RouteTable stores its routes.
enum class RouteStorage : std::uint8_t {
  /// All-pairs host routes materialized at construction: O(hosts²)
  /// SwitchRoute objects. The router is asked once per *switch pair* and
  /// the route copied into every host pair on it, so the build costs
  /// O(switches²) routings plus the copies. No router kept alive, but the
  /// memory does not survive a 1024-host fabric.
  kEager,
  /// Compressed: one route per *switch pair* (hosts on the same switch
  /// share it), materialized lazily on first use. A flat num_switches²
  /// array of 4-byte route ids points into block storage that holds
  /// only the routes a run has touched. Reachability comes from the
  /// router's per-switch component map, so the hot reachable() path
  /// never routes. The generating router must outlive the table (the
  /// owning-router constructor takes care of that).
  kCompressed,
};

/// All-pairs host-level routes, precomputed once per (topology, router).
///
/// Host routes are switch routes between the attached switches; hosts on
/// the same switch route through that single switch (zero link hops, but
/// still one injection and one ejection channel in the network model).
///
/// Pairs the router cannot connect (a partitioned surviving subgraph
/// after faults) are recorded as unreachable rather than throwing: check
/// `reachable()` before `path()`. Tables rebuilt after a fault carry an
/// `epoch` so consumers can tell which generation of routes produced a
/// result.
///
/// Both storage modes are bit-identical in every query — same routes,
/// same reachability verdicts — because both ultimately ask the same
/// deterministic router (enforced by tests/routing/test_route_table_lazy
/// on every seed topology, pre- and post-fault). Compressed tables are
/// safe to share across testbed worker threads: concurrent first-touch
/// materialization is synchronized, and a published route is immutable.
class RouteTable {
 public:
  /// Non-owning constructor. In kEager mode the router is only used
  /// during construction; in kCompressed mode the caller must keep it
  /// alive for the table's lifetime.
  RouteTable(const topo::Topology& topology, const Router& router,
             std::int32_t epoch = 0,
             RouteStorage storage = RouteStorage::kEager);

  /// Owning constructor for compressed tables whose router would
  /// otherwise be a temporary (the fault-repair rebuild path).
  RouteTable(const topo::Topology& topology,
             std::shared_ptr<const Router> router, std::int32_t epoch = 0,
             RouteStorage storage = RouteStorage::kCompressed);

  /// Only meaningful when `reachable(src, dst)`; unreachable pairs hold
  /// an empty placeholder route.
  [[nodiscard]] const SwitchRoute& path(topo::HostId src,
                                        topo::HostId dst) const {
    if (lazy_) return lazy_path(src, dst);
    return routes_[index(src, dst)];
  }

  [[nodiscard]] bool reachable(topo::HostId src, topo::HostId dst) const {
    if (lazy_) {
      const auto a = component(topology_->switch_of(src));
      return a >= 0 && a == component(topology_->switch_of(dst));
    }
    return reachable_[index(src, dst)] != 0;
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

  [[nodiscard]] RouteStorage storage() const {
    return lazy_ ? RouteStorage::kCompressed : RouteStorage::kEager;
  }

  /// Switch-pair routes currently materialized (compressed mode;
  /// eager tables report every host pair). Diagnostics and scaling
  /// benches only.
  [[nodiscard]] std::size_t routes_materialized() const;

  /// Approximate heap footprint of the route storage: the pair index
  /// or per-pair arrays plus the route vectors actually allocated. The
  /// quantity `bench_scale` tracks for the compressed-vs-eager
  /// comparison.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Drops every materialized route (an O(switches²) clear of the pair
  /// index); subsequent path() calls re-materialize identically from the
  /// router. No-op for eager tables. Not thread-safe against concurrent
  /// queries.
  void invalidate_cache();

 private:
  /// Materialized routes live in fixed-size blocks that never move, so a
  /// published route id stays valid while other threads append.
  static constexpr std::uint32_t kBlockRoutes = 16;

  /// State behind the compressed mode, boxed so RouteTable stays movable.
  ///
  /// Publication: a filler (holding `fill_mutex`) writes the route into
  /// its block — allocating the block and storing its pointer first if
  /// needed — then release-stores id+1 into `route_id`. A reader that
  /// acquire-loads a non-zero id therefore sees both the block pointer
  /// and the route; `blocks` itself is sized once and never reallocated.
  struct Lazy {
    std::shared_ptr<const Router> owned;   ///< may be null (non-owning)
    const Router* router = nullptr;
    std::size_t num_switches = 0;
    /// num_switches² entries: 0 = not yet materialized, else route id+1.
    std::unique_ptr<std::atomic<std::uint32_t>[]> route_id;
    /// Enough block slots for every switch pair; null until first used.
    std::vector<std::unique_ptr<SwitchRoute[]>> blocks;
    std::vector<std::int32_t> component;   ///< per-switch, -1 = dead
    mutable std::mutex fill_mutex;
    /// Routes materialized so far, which is also the next route id.
    /// Written under fill_mutex.
    std::atomic<std::uint32_t> materialized{0};

    [[nodiscard]] std::size_t pairs() const {
      return num_switches * num_switches;
    }
    [[nodiscard]] std::size_t pair(topo::SwitchId s, topo::SwitchId d) const {
      return static_cast<std::size_t>(s) * num_switches +
             static_cast<std::size_t>(d);
    }
    [[nodiscard]] const SwitchRoute& route(std::uint32_t id) const {
      return blocks[id / kBlockRoutes][id % kBlockRoutes];
    }
  };

  [[nodiscard]] std::size_t index(topo::HostId s, topo::HostId d) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(num_hosts_) +
           static_cast<std::size_t>(d);
  }

  [[nodiscard]] std::int32_t component(topo::SwitchId s) const {
    return lazy_->component[static_cast<std::size_t>(s)];
  }

  void init_lazy(const topo::Topology& topology, const Router& router,
                 std::shared_ptr<const Router> owned);
  void init_eager(const topo::Topology& topology, const Router& router);
  void recompute_components();
  [[nodiscard]] const SwitchRoute& lazy_path(topo::HostId src,
                                             topo::HostId dst) const;

  const topo::Topology* topology_;
  std::int32_t num_hosts_;
  std::int32_t num_vcs_;
  std::int32_t epoch_;
  std::int64_t unreachable_pairs_ = 0;
  // Eager storage (empty in compressed mode).
  std::vector<SwitchRoute> routes_;
  std::vector<std::uint8_t> reachable_;
  std::unique_ptr<Lazy> lazy_;  ///< non-null selects compressed mode
};

}  // namespace nimcast::routing
