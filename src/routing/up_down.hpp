#pragma once

#include <vector>

#include "routing/routing.hpp"

namespace nimcast::routing {

/// up*/down* routing for irregular switch-based networks.
///
/// A BFS spanning tree is grown from a root switch and every link (tree
/// and cross link alike) is oriented: the "up" end is the endpoint closer
/// to the root, with lower switch id breaking ties. A legal route crosses
/// zero or more links in the up direction followed by zero or more in the
/// down direction — this forbids the down->up turn and makes the channel
/// dependency graph acyclic, hence deadlock-free wormhole routing
/// (the scheme of Autonet, used by the paper's reference [5]).
///
/// Routes returned are shortest legal paths with deterministic tie-breaks
/// (prefer the lexicographically smallest next (switch, link)).
class UpDownRouter final : public Router {
 public:
  /// `root < 0` selects the default root: the switch with the highest
  /// degree (lowest id on ties), a standard heuristic that keeps the BFS
  /// tree shallow.
  explicit UpDownRouter(const topo::Graph& g, topo::SwitchId root = -1);

  /// Orientation from an explicit level function instead of BFS: "up"
  /// points toward strictly smaller levels (lower id on equal levels).
  /// Structured fabrics (fat-trees) use this to make *every* spine an
  /// "up" target — BFS from a single root would bury the other spines
  /// below the leaves and destroy path diversity. Still deadlock-free:
  /// any consistent orientation forbidding down->up turns is.
  UpDownRouter(const topo::Graph& g, std::vector<std::int32_t> levels);

  /// Orientation over the surviving subgraph after fault injection. The
  /// graph may be disconnected: each surviving component is oriented by
  /// its own BFS (roots picked by highest alive degree, lowest id on
  /// ties; `preferred_root` wins for its component when alive). Pairs in
  /// different components are unreachable — try_route() reports nullopt
  /// and route() throws NoLegalRoute for them.
  UpDownRouter(const topo::Graph& g, topo::SubgraphMask mask,
               topo::SwitchId preferred_root = -1);

  [[nodiscard]] SwitchRoute route(topo::SwitchId src,
                                  topo::SwitchId dst) const override;
  [[nodiscard]] std::optional<SwitchRoute> try_route(
      topo::SwitchId src, topo::SwitchId dst) const override;
  [[nodiscard]] const char* name() const override { return "up*/down*"; }

  /// Surviving-component map for the compressed RouteTable: BFS component
  /// ids over the masked graph, dead switches -1. Component equality is
  /// exactly try_route() feasibility — up*/down* connects every alive
  /// pair within a component (both ends reach the component root via
  /// tree edges, and root-to-anywhere is a pure down path).
  [[nodiscard]] std::vector<std::int32_t> host_reach_components(
      const topo::Graph& g) const override;

  [[nodiscard]] topo::SwitchId root() const { return root_; }
  [[nodiscard]] const std::vector<std::int32_t>& levels() const {
    return level_;
  }
  /// The endpoint of `link` on the "up" side (closer to the root).
  [[nodiscard]] topo::SwitchId up_end(topo::LinkId link) const {
    return up_end_[static_cast<std::size_t>(link)];
  }
  /// True when traversing `link` out of `from` moves in the up direction.
  [[nodiscard]] bool is_up(topo::LinkId link, topo::SwitchId from) const;

  [[nodiscard]] const topo::SubgraphMask& mask() const { return mask_; }

 private:
  /// One usable link out of a switch, pre-oriented for the BFS.
  struct Hop {
    topo::LinkId link;
    topo::SwitchId to;
    bool up;  ///< crossing it moves toward the root
  };

  /// Fills `hops_`/`hop_begin_` from the orientation; every constructor
  /// calls it last.
  void build_hops();

  const topo::Graph& graph_;
  topo::SwitchId root_;
  topo::SubgraphMask mask_;  ///< empty (all alive) for the full-graph ctors
  std::vector<std::int32_t> level_;
  std::vector<topo::SwitchId> up_end_;
  /// Adjacency in CSR form: switch v's hops are
  /// hops_[hop_begin_[v] .. hop_begin_[v+1]), in (neighbour id, link id)
  /// order — the BFS's deterministic tie-break — with dead links and dead
  /// neighbours already dropped.
  std::vector<std::int32_t> hop_begin_;
  std::vector<Hop> hops_;
};

}  // namespace nimcast::routing
