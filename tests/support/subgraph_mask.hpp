#pragma once

#include <cstddef>
#include <initializer_list>

#include "topology/graph.hpp"

namespace nimcast::topo::test_support {

/// A surviving-subgraph mask over `g` with the listed links and switches
/// dead and everything else alive.
inline SubgraphMask mask_for(const Graph& g,
                             std::initializer_list<LinkId> dead_links,
                             std::initializer_list<SwitchId> dead_switches
                             = {}) {
  SubgraphMask mask;
  mask.dead_link.assign(static_cast<std::size_t>(g.num_edges()), false);
  mask.dead_switch.assign(static_cast<std::size_t>(g.num_vertices()), false);
  for (LinkId e : dead_links) {
    mask.dead_link[static_cast<std::size_t>(e)] = true;
  }
  for (SwitchId s : dead_switches) {
    mask.dead_switch[static_cast<std::size_t>(s)] = true;
  }
  return mask;
}

}  // namespace nimcast::topo::test_support
