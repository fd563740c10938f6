#include "core/fabric.hpp"

#include <utility>

#include "routing/dimension_ordered.hpp"

namespace nimcast::core {

Fabric::Fabric(std::unique_ptr<const topo::Topology> topology,
               std::unique_ptr<const routing::Router> router,
               const routing::UpDownRouter* updown)
    : topology_{std::move(topology)},
      router_{std::move(router)},
      updown_{updown},
      routes_{*topology_, *router_},
      chain_{updown_ != nullptr ? cco_ordering(*topology_, *updown_)
                                : dimension_chain(*topology_)} {}

Fabric Fabric::irregular(const topo::IrregularConfig& cfg, sim::Rng& rng) {
  auto topology =
      std::make_unique<const topo::Topology>(topo::make_irregular(cfg, rng));
  auto router =
      std::make_unique<const routing::UpDownRouter>(topology->switches());
  const routing::UpDownRouter* updown = router.get();
  return Fabric{std::move(topology), std::move(router), updown};
}

Fabric Fabric::fat_tree(const topo::FatTreeConfig& cfg) {
  auto topology =
      std::make_unique<const topo::Topology>(topo::make_fat_tree(cfg));
  auto router = std::make_unique<const routing::UpDownRouter>(
      topology->switches(), topo::fat_tree_levels(cfg));
  const routing::UpDownRouter* updown = router.get();
  return Fabric{std::move(topology), std::move(router), updown};
}

Fabric Fabric::mesh(const topo::KAryNCubeConfig& cfg) {
  auto topology =
      std::make_unique<const topo::Topology>(topo::make_kary_ncube(cfg));
  auto router = std::make_unique<const routing::DimensionOrderedRouter>(
      topology->switches(), cfg);
  return Fabric{std::move(topology), std::move(router), nullptr};
}

}  // namespace nimcast::core
