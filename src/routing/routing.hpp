#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "topology/graph.hpp"
#include "topology/ids.hpp"
#include "topology/topology.hpp"

namespace nimcast::routing {

/// A switch-level route. `switches` lists every switch visited, source
/// first; `links[i]` is the link crossed between `switches[i]` and
/// `switches[i+1]`. A route that starts and ends on the same switch has one
/// entry and no links.
///
/// `vcs` optionally assigns a virtual channel per hop (empty means VC 0
/// everywhere). Virtual channels break cyclic channel dependencies on
/// topologies where the physical channels alone cannot — the dateline
/// scheme on tori being the classic case.
struct SwitchRoute {
  std::vector<topo::SwitchId> switches;
  std::vector<topo::LinkId> links;
  std::vector<std::uint8_t> vcs;

  [[nodiscard]] std::size_t hops() const { return links.size(); }
  [[nodiscard]] bool valid_shape() const {
    return !switches.empty() && switches.size() == links.size() + 1 &&
           (vcs.empty() || vcs.size() == links.size());
  }
  [[nodiscard]] std::uint8_t vc(std::size_t hop) const {
    return vcs.empty() ? std::uint8_t{0} : vcs[hop];
  }
};

/// Thrown by Router::route when no legal route exists between two
/// switches. Legitimate for multi-root orientations (e.g. level-based
/// up*/down* on a fat-tree, where spine-to-spine would need an illegal
/// down->up turn); such pairs simply carry no traffic. Host-level route
/// tables must never hit this — hosts hang off leaves.
class NoLegalRoute : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deterministic unicast routing function over a switch graph.
///
/// Implementations must be connected and deterministic: the same (src,
/// dst) always yields the same route, because the paper's contention-free
/// tree constructions reason about *the* path between two nodes.
class Router {
 public:
  virtual ~Router() = default;
  [[nodiscard]] virtual SwitchRoute route(topo::SwitchId src,
                                          topo::SwitchId dst) const = 0;
  /// Non-throwing variant: nullopt where route() would throw NoLegalRoute
  /// — the queryable "unreachable" verdict fault repair builds on.
  /// Routers with a cheap feasibility check override this; the default
  /// wraps route().
  [[nodiscard]] virtual std::optional<SwitchRoute> try_route(
      topo::SwitchId src, topo::SwitchId dst) const;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Virtual channels this router's routes may reference (>= 1). The
  /// network must provision this many per directed physical channel.
  [[nodiscard]] virtual std::int32_t virtual_channels() const { return 1; }
  /// Per-switch connectivity verdict for *host-attached* switches: two
  /// hosts are mutually routable iff their switches carry the same
  /// non-negative component id (-1 marks a dead switch). The compressed
  /// RouteTable uses this to answer reachable() and count unreachable
  /// pairs without materializing any route. The default — one component
  /// spanning every switch — is correct for routers over a connected,
  /// pristine fabric; mask-aware routers (post-fault up*/down*) override
  /// it with the surviving components.
  [[nodiscard]] virtual std::vector<std::int32_t> host_reach_components(
      const topo::Graph& g) const {
    return std::vector<std::int32_t>(
        static_cast<std::size_t>(g.num_vertices()), 0);
  }
};

/// Directed channel id for a link crossing: 2*link for the a->b direction,
/// 2*link+1 for b->a. The wormhole network and the deadlock checker share
/// this numbering. With V virtual channels, VC v of directed channel c is
/// channel c*V + v.
[[nodiscard]] std::int32_t directed_channel(const topo::Graph& g,
                                            topo::LinkId link,
                                            topo::SwitchId from);

/// Appends a route's directed-channel sequence to `out`, expanding
/// virtual channels with multiplicity `num_vcs`.
void append_route_channels(const topo::Graph& g, const SwitchRoute& r,
                           std::int32_t num_vcs,
                           std::vector<std::int32_t>& out);

/// The same sequence as a fresh vector.
[[nodiscard]] std::vector<std::int32_t> route_channels(
    const topo::Graph& g, const SwitchRoute& r, std::int32_t num_vcs = 1);

/// True when the channel-dependency graph induced by all switch-pair
/// routes of `router` on `g` is acyclic — i.e. wormhole routing over these
/// routes cannot deadlock (Dally & Seitz condition). Honors the router's
/// virtual-channel assignment; switch pairs without a legal route
/// (NoLegalRoute) contribute no dependencies.
[[nodiscard]] bool deadlock_free(const topo::Graph& g, const Router& router);

}  // namespace nimcast::routing
