#include "routing/route_table.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nimcast::routing {

RouteTable::RouteTable(const topo::Topology& topology, const Router& router,
                       std::int32_t epoch, RouteStorage storage)
    : topology_{&topology},
      num_hosts_{topology.num_hosts()},
      num_vcs_{router.virtual_channels()},
      epoch_{epoch} {
  if (storage == RouteStorage::kEager) {
    init_eager(topology, router);
  } else {
    init_lazy(topology, router, nullptr);
  }
}

RouteTable::RouteTable(const topo::Topology& topology,
                       std::shared_ptr<const Router> router, std::int32_t epoch,
                       RouteStorage storage)
    : topology_{&topology},
      num_hosts_{topology.num_hosts()},
      num_vcs_{router->virtual_channels()},
      epoch_{epoch} {
  if (storage == RouteStorage::kEager) {
    init_eager(topology, *router);
  } else {
    const Router& ref = *router;
    init_lazy(topology, ref, std::move(router));
  }
}

namespace {

template <typename T>
std::vector<T> copy_with_capacity(const std::vector<T>& v) {
  std::vector<T> out;
  out.reserve(v.capacity());
  out.assign(v.begin(), v.end());
  return out;
}

/// Copy that keeps each vector's capacity, so a route copied into many
/// host pairs reports the same footprint as one the router built.
SwitchRoute copy_route(const SwitchRoute& r) {
  return {copy_with_capacity(r.switches), copy_with_capacity(r.links),
          copy_with_capacity(r.vcs)};
}

}  // namespace

void RouteTable::init_eager(const topo::Topology& topology,
                            const Router& router) {
  const auto pairs = static_cast<std::size_t>(num_hosts_) *
                     static_cast<std::size_t>(num_hosts_);
  routes_.resize(pairs);
  reachable_.assign(pairs, 0);
  // A route depends only on the switch pair: ask the router once per
  // pair of host-attached switches and copy the answer into every host
  // pair on it.
  const auto num_switches = topology.switches().num_vertices();
  std::vector<std::vector<topo::HostId>> hosts_on(
      static_cast<std::size_t>(num_switches));
  for (topo::HostId h = 0; h < num_hosts_; ++h) {
    hosts_on[static_cast<std::size_t>(topology.switch_of(h))].push_back(h);
  }
  for (topo::SwitchId s = 0; s < num_switches; ++s) {
    const auto& src_hosts = hosts_on[static_cast<std::size_t>(s)];
    if (src_hosts.empty()) continue;
    for (topo::SwitchId d = 0; d < num_switches; ++d) {
      const auto& dst_hosts = hosts_on[static_cast<std::size_t>(d)];
      if (dst_hosts.empty()) continue;
      const auto r = router.try_route(s, d);
      if (!r) {
        const auto host_pairs = src_hosts.size() * dst_hosts.size();
        unreachable_pairs_ += static_cast<std::int64_t>(host_pairs);
        continue;
      }
      for (const topo::HostId a : src_hosts) {
        for (const topo::HostId b : dst_hosts) {
          routes_[index(a, b)] = copy_route(*r);
          reachable_[index(a, b)] = 1;
        }
      }
    }
  }
}

void RouteTable::init_lazy(const topo::Topology& topology, const Router& router,
                           std::shared_ptr<const Router> owned) {
  lazy_ = std::make_unique<Lazy>();
  lazy_->owned = std::move(owned);
  lazy_->router = &router;
  lazy_->num_switches =
      static_cast<std::size_t>(topology.switches().num_vertices());
  const auto pairs = lazy_->pairs();
  lazy_->route_id = std::make_unique<std::atomic<std::uint32_t>[]>(pairs);
  lazy_->blocks.resize((pairs + kBlockRoutes - 1) / kBlockRoutes);
  recompute_components();
}

void RouteTable::recompute_components() {
  lazy_->component = lazy_->router->host_reach_components(
      topology_->switches());
  // unreachable_pairs = hosts² − Σ_component (hosts in component)², the
  // same count the eager loop accumulates pair by pair. Hosts on a dead
  // switch (component -1) reach nobody, themselves included, so they
  // contribute no c² term and stay subtracted.
  std::vector<std::int64_t> hosts_in_component(lazy_->component.size(), 0);
  for (topo::HostId h = 0; h < num_hosts_; ++h) {
    const auto c = component(topology_->switch_of(h));
    if (c >= 0) ++hosts_in_component[static_cast<std::size_t>(c)];
  }
  const auto total = static_cast<std::int64_t>(num_hosts_);
  unreachable_pairs_ = total * total;
  for (const auto count : hosts_in_component) {
    unreachable_pairs_ -= count * count;
  }
}

const SwitchRoute& RouteTable::lazy_path(topo::HostId src,
                                         topo::HostId dst) const {
  const auto s = topology_->switch_of(src);
  const auto d = topology_->switch_of(dst);
  auto& slot = lazy_->route_id[lazy_->pair(s, d)];
  if (const auto id = slot.load(std::memory_order_acquire); id != 0) {
    return lazy_->route(id - 1);
  }
  std::lock_guard lock{lazy_->fill_mutex};
  if (const auto id = slot.load(std::memory_order_relaxed); id != 0) {
    return lazy_->route(id - 1);
  }
  auto r = lazy_->router->try_route(s, d);
  // Routability must agree with the component map, or reachable() and
  // path() would contradict each other.
  assert(r.has_value() ==
         (component(s) >= 0 && component(s) == component(d)));
  const auto id = lazy_->materialized.load(std::memory_order_relaxed);
  auto& block = lazy_->blocks[id / kBlockRoutes];
  if (!block) block = std::make_unique<SwitchRoute[]>(kBlockRoutes);
  SwitchRoute& route = block[id % kBlockRoutes];
  if (r) route = *std::move(r);  // unreachable pairs keep the empty route
  lazy_->materialized.store(id + 1, std::memory_order_relaxed);
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
  if (!lazy_) return routes_.size();
  return lazy_->materialized.load(std::memory_order_relaxed);
}

namespace {

std::size_t route_heap_bytes(const SwitchRoute& r) {
  return r.switches.capacity() * sizeof(topo::SwitchId) +
         r.links.capacity() * sizeof(topo::LinkId) +
         r.vcs.capacity() * sizeof(std::uint8_t);
}

}  // namespace

std::size_t RouteTable::memory_bytes() const {
  std::size_t bytes = 0;
  if (lazy_) {
    const std::uint32_t routes =
        lazy_->materialized.load(std::memory_order_relaxed);
    bytes += lazy_->pairs() * sizeof(std::atomic<std::uint32_t>);
    bytes += lazy_->blocks.capacity() * sizeof(lazy_->blocks.front());
    const std::size_t blocks_used = (routes + kBlockRoutes - 1) / kBlockRoutes;
    bytes += blocks_used * kBlockRoutes * sizeof(SwitchRoute);
    bytes += lazy_->component.capacity() * sizeof(std::int32_t);
    for (std::uint32_t id = 0; id < routes; ++id) {
      bytes += route_heap_bytes(lazy_->route(id));
    }
  } else {
    bytes += routes_.capacity() * sizeof(SwitchRoute);
    bytes += reachable_.capacity() * sizeof(std::uint8_t);
    for (const auto& r : routes_) bytes += route_heap_bytes(r);
  }
  return bytes;
}

void RouteTable::invalidate_cache() {
  if (!lazy_) return;
  for (std::size_t k = 0; k < lazy_->pairs(); ++k) {
    lazy_->route_id[k].store(0, std::memory_order_relaxed);
  }
  for (auto& block : lazy_->blocks) block.reset();
  lazy_->materialized.store(0, std::memory_order_relaxed);
  recompute_components();
}

}  // namespace nimcast::routing
