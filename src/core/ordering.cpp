#include "core/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace nimcast::core {

Chain cco_ordering(const topo::Topology& topology,
                   const routing::UpDownRouter& router) {
  const auto& g = topology.switches();
  const auto& level = router.levels();
  const auto n = static_cast<std::size_t>(g.num_vertices());

  // Up-tree children: v's parent is its lowest-id strictly-higher
  // neighbor (with BFS levels this is exactly the level-1 parent).
  // Switches at the minimum level are forest roots — a single one for
  // BFS orientations, every spine for explicit level functions.
  std::int32_t min_level = level[0];
  for (std::int32_t lv : level) min_level = std::min(min_level, lv);
  std::vector<std::vector<topo::SwitchId>> tree_children(n);
  std::vector<topo::SwitchId> roots;
  for (topo::SwitchId v = 0; v < g.num_vertices(); ++v) {
    if (level[static_cast<std::size_t>(v)] == min_level) {
      roots.push_back(v);
      continue;
    }
    topo::SwitchId parent = topo::kInvalidId;
    for (topo::LinkId e : g.incident(v)) {
      const topo::SwitchId w = g.edge(e).other(v);
      if (level[static_cast<std::size_t>(w)] <
          level[static_cast<std::size_t>(v)]) {
        if (parent == topo::kInvalidId || w < parent) parent = w;
      }
    }
    if (parent == topo::kInvalidId) {
      throw std::logic_error("cco_ordering: level structure broken");
    }
    tree_children[static_cast<std::size_t>(parent)].push_back(v);
  }
  for (auto& kids : tree_children) std::sort(kids.begin(), kids.end());

  // Preorder DFS from each root (ascending id); hosts of each switch
  // appended in ascending id order.
  Chain chain;
  chain.reserve(static_cast<std::size_t>(topology.num_hosts()));
  std::vector<topo::SwitchId> stack{roots.rbegin(), roots.rend()};
  while (!stack.empty()) {
    const topo::SwitchId v = stack.back();
    stack.pop_back();
    for (topo::HostId h : topology.hosts_of(v)) chain.push_back(h);
    const auto& kids = tree_children[static_cast<std::size_t>(v)];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  if (chain.size() != static_cast<std::size_t>(topology.num_hosts())) {
    throw std::logic_error("cco_ordering: chain misses hosts");
  }
  return chain;
}

Chain dimension_chain(const topo::Topology& topology) {
  Chain chain(static_cast<std::size_t>(topology.num_hosts()));
  std::iota(chain.begin(), chain.end(), 0);
  return chain;
}

Chain random_ordering(std::int32_t num_hosts, sim::Rng& rng) {
  Chain chain(static_cast<std::size_t>(num_hosts));
  std::iota(chain.begin(), chain.end(), 0);
  rng.shuffle(chain);
  return chain;
}

Chain arrange_participants(const Chain& chain, topo::HostId source,
                           const std::vector<topo::HostId>& dests) {
  // One mark byte per host id the chain can hold. Ids outside that range
  // cannot be participants; they are only checked for the input errors.
  topo::HostId chain_end = 0;
  for (topo::HostId h : chain) chain_end = std::max(chain_end, h + 1);
  const auto outside = [chain_end](topo::HostId h) {
    return h < 0 || h >= chain_end;
  };
  std::vector<std::uint8_t> want(static_cast<std::size_t>(chain_end), 0);
  std::vector<topo::HostId> strays;
  bool duplicate = false;
  for (topo::HostId h : dests) {
    if (outside(h)) {
      strays.push_back(h);
      continue;
    }
    auto& mark = want[static_cast<std::size_t>(h)];
    duplicate = duplicate || mark != 0;
    mark = 1;
  }
  std::sort(strays.begin(), strays.end());
  if (duplicate ||
      std::adjacent_find(strays.begin(), strays.end()) != strays.end()) {
    throw std::invalid_argument("arrange_participants: duplicate destination");
  }
  if (outside(source)
          ? std::binary_search(strays.begin(), strays.end(), source)
          : want[static_cast<std::size_t>(source)] != 0) {
    throw std::invalid_argument("arrange_participants: source in dests");
  }
  if (outside(source) || !strays.empty()) {
    throw std::invalid_argument(
        "arrange_participants: participant missing from chain");
  }
  want[static_cast<std::size_t>(source)] = 1;

  // Participants in chain order.
  Chain members;
  members.reserve(dests.size() + 1);
  for (topo::HostId h : chain) {
    if (h >= 0 && want[static_cast<std::size_t>(h)] != 0) members.push_back(h);
  }
  if (members.size() != dests.size() + 1) {
    throw std::invalid_argument(
        "arrange_participants: participant missing from chain");
  }
  // Rotate so the source leads.
  const auto it = std::find(members.begin(), members.end(), source);
  std::rotate(members.begin(), it, members.end());
  return members;
}

}  // namespace nimcast::core
