// core::Fabric against the bundle its factories replace: the same draws,
// router, route for every host pair and base chain as a topology, router,
// route table and chain built by hand.

#include "core/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "routing/dimension_ordered.hpp"

namespace nimcast::core {
namespace {

/// Every host pair routes in `fabric` exactly as in a table built by hand
/// over `router`.
void expect_same_routes(const Fabric& fabric, const routing::Router& router) {
  const routing::RouteTable reference{fabric.topology(), router};
  EXPECT_EQ(fabric.routes().virtual_channels(), reference.virtual_channels());
  for (topo::HostId s = 0; s < fabric.num_hosts(); ++s) {
    for (topo::HostId d = 0; d < fabric.num_hosts(); ++d) {
      ASSERT_TRUE(fabric.routes().reachable(s, d));
      ASSERT_TRUE(reference.reachable(s, d));
      const routing::SwitchRoute& got = fabric.routes().path(s, d);
      const routing::SwitchRoute& want = reference.path(s, d);
      EXPECT_EQ(got.switches, want.switches) << s << " -> " << d;
      EXPECT_EQ(got.links, want.links) << s << " -> " << d;
      EXPECT_EQ(got.vcs, want.vcs) << s << " -> " << d;
    }
  }
}

topo::IrregularConfig small_irregular() {
  topo::IrregularConfig cfg;
  cfg.num_hosts = 24;
  cfg.num_switches = 6;
  return cfg;
}

TEST(Fabric, IrregularDrawsExactlyWhatMakeIrregularDraws) {
  for (const std::uint64_t seed : {1u, 7u, 1997u}) {
    sim::Rng via_fabric{seed};
    sim::Rng alone{seed};
    const Fabric fabric = Fabric::irregular(small_irregular(), via_fabric);
    const topo::Topology topology =
        topo::make_irregular(small_irregular(), alone);
    EXPECT_EQ(via_fabric.next_u64(), alone.next_u64()) << "seed " << seed;
    EXPECT_EQ(fabric.topology().host_switches(), topology.host_switches());
    ASSERT_EQ(fabric.topology().switches().num_edges(),
              topology.switches().num_edges());
    for (topo::LinkId e = 0; e < topology.switches().num_edges(); ++e) {
      EXPECT_EQ(fabric.topology().switches().edge(e).a,
                topology.switches().edge(e).a);
      EXPECT_EQ(fabric.topology().switches().edge(e).b,
                topology.switches().edge(e).b);
    }
  }
}

TEST(Fabric, IrregularRoutesUpDownOverTheCcoChain) {
  sim::Rng rng{3};
  const Fabric fabric = Fabric::irregular(small_irregular(), rng);
  const routing::UpDownRouter router{fabric.topology().switches()};
  ASSERT_NE(fabric.updown(), nullptr);
  EXPECT_EQ(fabric.updown(), &fabric.router());
  EXPECT_EQ(fabric.updown()->root(), router.root());
  EXPECT_EQ(fabric.chain(), cco_ordering(fabric.topology(), router));
  expect_same_routes(fabric, router);
}

TEST(Fabric, FatTreeRouterIsLevelled) {
  topo::FatTreeConfig cfg;
  cfg.edge_switches = 4;
  cfg.spine_switches = 3;
  cfg.hosts_per_edge = 4;
  cfg.trunk = 2;
  const Fabric fabric = Fabric::fat_tree(cfg);
  ASSERT_NE(fabric.updown(), nullptr);
  EXPECT_EQ(fabric.updown()->levels(), topo::fat_tree_levels(cfg));
  const routing::UpDownRouter router{fabric.topology().switches(),
                                     topo::fat_tree_levels(cfg)};
  EXPECT_EQ(fabric.chain(), cco_ordering(fabric.topology(), router));
  expect_same_routes(fabric, router);
}

TEST(Fabric, MeshRoutesDimensionOrderedOverTheDimensionChain) {
  for (const topo::KAryNCubeConfig cfg :
       {topo::KAryNCubeConfig{4, 2, false}, topo::KAryNCubeConfig{4, 2, true},
        topo::KAryNCubeConfig{2, 4, false}}) {
    const Fabric fabric = Fabric::mesh(cfg);
    EXPECT_EQ(fabric.updown(), nullptr);
    EXPECT_EQ(fabric.chain(), dimension_chain(fabric.topology()));
    const routing::DimensionOrderedRouter router{fabric.topology().switches(),
                                                 cfg};
    EXPECT_STREQ(fabric.router().name(), router.name());
    expect_same_routes(fabric, router);
  }
}

TEST(Fabric, RoutesStayValidWhenTheFabricMoves) {
  sim::Rng rng{11};
  std::vector<Fabric> fabrics;
  for (int t = 0; t < 5; ++t) {  // no reserve: growth moves the fabrics
    fabrics.push_back(Fabric::irregular(small_irregular(), rng));
  }
  for (const Fabric& fabric : fabrics) {
    expect_same_routes(fabric, *fabric.updown());
  }
}

}  // namespace
}  // namespace nimcast::core
