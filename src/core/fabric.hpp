#pragma once

#include <cstdint>
#include <memory>

#include "core/ordering.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"
#include "topology/kary_ncube.hpp"

namespace nimcast::core {

/// One routed system: a topology, its deadlock-free router, the lazy
/// route table over that router and the contention-free base chain that
/// k-binomial trees are bound onto (paper Section 4.3.2). Every rig —
/// testbeds, chaos campaigns, the api, the CLI and the benches — is
/// built through one of the three factories.
///
/// The topology and router live on the heap, so a Fabric moves freely
/// while its route table (and anything else holding references into it)
/// stays valid.
class Fabric {
 public:
  /// Random irregular network (the paper's Section 5.2 family) with
  /// up*/down* routing and a CCO chain. Draws from `rng` exactly what
  /// topo::make_irregular draws, so the caller's later draws do not move.
  [[nodiscard]] static Fabric irregular(const topo::IrregularConfig& cfg,
                                        sim::Rng& rng);

  /// Two-level fat tree with the levelled up*/down* router (every spine
  /// an "up" target, topo::fat_tree_levels) and a CCO chain.
  [[nodiscard]] static Fabric fat_tree(const topo::FatTreeConfig& cfg);

  /// k-ary n-cube (mesh, torus or hypercube) with dimension-ordered
  /// routing and the dimension-ordered chain.
  [[nodiscard]] static Fabric mesh(const topo::KAryNCubeConfig& cfg);

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }
  [[nodiscard]] const routing::Router& router() const { return *router_; }
  [[nodiscard]] const routing::RouteTable& routes() const { return routes_; }
  [[nodiscard]] const Chain& chain() const { return chain_; }
  [[nodiscard]] std::int32_t num_hosts() const {
    return topology_->num_hosts();
  }

  /// The up*/down* router rotation planning salts its alternatives
  /// from (core::plan_rotation); null on a dimension-ordered mesh.
  [[nodiscard]] const routing::UpDownRouter* updown() const {
    return updown_;
  }

 private:
  /// Chains by CCO over `updown` when it is non-null, else by dimension.
  Fabric(std::unique_ptr<const topo::Topology> topology,
         std::unique_ptr<const routing::Router> router,
         const routing::UpDownRouter* updown);

  std::unique_ptr<const topo::Topology> topology_;
  std::unique_ptr<const routing::Router> router_;
  const routing::UpDownRouter* updown_;
  routing::RouteTable routes_;
  Chain chain_;
};

}  // namespace nimcast::core
