#include "routing/route_table.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nimcast::routing {

RouteTable::RouteTable(const topo::Topology& topology, const Router& router,
                       std::int32_t epoch)
    : topology_{&topology},
      router_{&router},
      num_hosts_{topology.num_hosts()},
      num_vcs_{router.virtual_channels()},
      epoch_{epoch},
      num_switches_{
          static_cast<std::size_t>(topology.switches().num_vertices())},
      component_{router.host_reach_components(topology.switches())},
      store_{std::make_unique<Store>()} {
  store_->route_id = std::make_unique<std::atomic<std::uint32_t>[]>(pairs());
  store_->blocks.resize((pairs() + kBlockRoutes - 1) / kBlockRoutes);
  // unreachable_pairs = hosts² − Σ_component (hosts in component)².
  // Hosts on a dead switch (component -1) reach nobody, themselves
  // included, so they contribute no c² term and stay subtracted.
  std::vector<std::int64_t> hosts_in_component(component_.size(), 0);
  for (topo::HostId h = 0; h < num_hosts_; ++h) {
    const auto c = component(topology.switch_of(h));
    if (c >= 0) ++hosts_in_component[static_cast<std::size_t>(c)];
  }
  const auto total = static_cast<std::int64_t>(num_hosts_);
  unreachable_pairs_ = total * total;
  for (const auto count : hosts_in_component) {
    unreachable_pairs_ -= count * count;
  }
}

RouteTable::RouteTable(const topo::Topology& topology,
                       std::shared_ptr<const Router> router, std::int32_t epoch)
    : RouteTable{topology, *router, epoch} {
  owned_ = std::move(router);
}

const SwitchRoute& RouteTable::path(topo::HostId src, topo::HostId dst) const {
  const auto s = topology_->switch_of(src);
  const auto d = topology_->switch_of(dst);
  auto& slot = store_->route_id[pair(s, d)];
  if (const auto id = slot.load(std::memory_order_acquire); id != 0) {
    return store_->route(id - 1);
  }
  std::lock_guard lock{store_->fill_mutex};
  if (const auto id = slot.load(std::memory_order_relaxed); id != 0) {
    return store_->route(id - 1);
  }
  auto r = router_->try_route(s, d);
  // Routability must agree with the component map, or reachable() and
  // path() would contradict each other.
  assert(r.has_value() ==
         (component(s) >= 0 && component(s) == component(d)));
  const auto id = store_->materialized.load(std::memory_order_relaxed);
  auto& block = store_->blocks[id / kBlockRoutes];
  if (!block) block = std::make_unique<SwitchRoute[]>(kBlockRoutes);
  SwitchRoute& route = block[id % kBlockRoutes];
  if (r) route = *std::move(r);  // unreachable pairs keep the empty route
  store_->materialized.store(id + 1, std::memory_order_relaxed);
  slot.store(id + 1, std::memory_order_release);
  return route;
}

bool RouteTable::disjoint(const topo::Graph& g, topo::HostId a, topo::HostId b,
                          topo::HostId c, topo::HostId d) const {
  const auto ch1 = route_channels(g, path(a, b), num_vcs_);
  const auto ch2 = route_channels(g, path(c, d), num_vcs_);
  for (std::int32_t x : ch1) {
    if (std::find(ch2.begin(), ch2.end(), x) != ch2.end()) return false;
  }
  return true;
}

std::size_t RouteTable::routes_materialized() const {
  return store_->materialized.load(std::memory_order_relaxed);
}

std::size_t RouteTable::memory_bytes() const {
  const std::uint32_t routes =
      store_->materialized.load(std::memory_order_relaxed);
  std::size_t bytes = pairs() * sizeof(std::atomic<std::uint32_t>);
  bytes += store_->blocks.capacity() * sizeof(store_->blocks.front());
  const std::size_t blocks_used = (routes + kBlockRoutes - 1) / kBlockRoutes;
  bytes += blocks_used * kBlockRoutes * sizeof(SwitchRoute);
  bytes += component_.capacity() * sizeof(std::int32_t);
  for (std::uint32_t id = 0; id < routes; ++id) {
    const SwitchRoute& r = store_->route(id);
    bytes += r.switches.capacity() * sizeof(topo::SwitchId) +
             r.links.capacity() * sizeof(topo::LinkId) +
             r.vcs.capacity() * sizeof(std::uint8_t);
  }
  return bytes;
}

}  // namespace nimcast::routing
