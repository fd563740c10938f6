#include <gtest/gtest.h>

#include "routing/repair.hpp"
#include "routing/up_down.hpp"
#include "support/subgraph_mask.hpp"

namespace nimcast::routing {
namespace {

/// Square of switches 0-1-2-3 (edges 0:{0,1} 1:{1,2} 2:{2,3} 3:{3,0})
/// with one host per switch: every link failure leaves a detour.
struct SquareRig {
  topo::Topology topology{topo::Graph{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
                          {0, 1, 2, 3},
                          "square"};
};

using topo::test_support::mask_for;

TEST(MaskedUpDown, RoutesAroundADeadLink) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  const UpDownRouter router{g, mask_for(g, {0})};
  const auto r = router.try_route(0, 1);
  ASSERT_TRUE(r.has_value());
  // Only detour left: 0 - 3 - 2 - 1.
  EXPECT_EQ(r->hops(), 3u);
  for (topo::LinkId e : r->links) EXPECT_NE(e, 0);
}

TEST(MaskedUpDown, AllAliveMaskMatchesUnmaskedRouter) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  const UpDownRouter plain{g};
  const UpDownRouter masked{g, mask_for(g, {}), plain.root()};
  for (topo::SwitchId s = 0; s < g.num_vertices(); ++s) {
    for (topo::SwitchId d = 0; d < g.num_vertices(); ++d) {
      EXPECT_EQ(plain.route(s, d).switches, masked.route(s, d).switches);
    }
  }
}

TEST(MaskedUpDown, PartitionYieldsNulloptAndRouteThrows) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  // Killing links 0 and 3 isolates switch 0.
  const UpDownRouter router{g, mask_for(g, {0, 3})};
  EXPECT_FALSE(router.try_route(0, 2).has_value());
  EXPECT_THROW((void)router.route(0, 2), NoLegalRoute);
  // The surviving component still routes internally.
  ASSERT_TRUE(router.try_route(1, 3).has_value());
  // And the isolated switch routes to itself.
  ASSERT_TRUE(router.try_route(0, 0).has_value());
}

TEST(MaskedUpDown, DeadSwitchIsUnroutable) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  const UpDownRouter router{g, mask_for(g, {}, {2})};
  EXPECT_FALSE(router.try_route(0, 2).has_value());
  EXPECT_FALSE(router.try_route(2, 0).has_value());
  // 1 and 3 detour around the corpse via 0.
  const auto r = router.try_route(1, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->hops(), 2u);
  for (topo::SwitchId s : r->switches) EXPECT_NE(s, 2);
}

TEST(MaskedUpDown, MaskSizeMismatchThrows) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  topo::SubgraphMask bad;
  bad.dead_link.assign(2, false);  // graph has 4 links
  EXPECT_THROW((UpDownRouter{g, bad}), std::invalid_argument);
}

TEST(RouteRepair, RebuildRecordsEpochAndReachability) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  const auto table =
      rebuild_updown(rig.topology, mask_for(g, {0, 3}), /*epoch=*/7);
  EXPECT_EQ(table->epoch(), 7);
  EXPECT_FALSE(table->fully_connected());
  // Host 0 sits on the isolated switch: 3 pairs out, 3 pairs in.
  EXPECT_EQ(table->unreachable_pairs(), 6);
  EXPECT_FALSE(table->reachable(0, 2));
  EXPECT_FALSE(table->reachable(2, 0));
  EXPECT_TRUE(table->reachable(1, 3));
  EXPECT_TRUE(table->reachable(0, 0));
}

TEST(RouteRepair, PristineMaskRebuildIsFullyConnected) {
  SquareRig rig;
  const auto table = rebuild_updown(rig.topology, topo::SubgraphMask{},
                                    /*epoch=*/1);
  EXPECT_TRUE(table->fully_connected());
  EXPECT_EQ(table->unreachable_pairs(), 0);
  EXPECT_EQ(table->virtual_channels(), 1);
}

TEST(RouteRepair, RebuiltRoutesAvoidDeadHardware) {
  SquareRig rig;
  const auto& g = rig.topology.switches();
  const auto table =
      rebuild_updown(rig.topology, mask_for(g, {1}), /*epoch=*/2);
  EXPECT_TRUE(table->fully_connected());
  for (topo::HostId s = 0; s < 4; ++s) {
    for (topo::HostId d = 0; d < 4; ++d) {
      for (topo::LinkId e : table->path(s, d).links) EXPECT_NE(e, 1);
    }
  }
}

}  // namespace
}  // namespace nimcast::routing
