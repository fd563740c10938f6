// Tests of the streaming-broadcast rotation planner (core::plan_rotation):
// member-0 fixity, fan-out and span invariants, the predicted NI
// bottleneck the planner minimizes, channel decorrelation bounds on both
// fabric families, determinism, and graceful degradation when the fabric
// offers fewer distinct trees than requested.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"

namespace nimcast::core {
namespace {

struct IrregularRig {
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  Chain cco;

  explicit IrregularRig(std::uint64_t seed = 1997)
      : topology([seed] {
          sim::Rng rng{seed};
          return topo::make_irregular(topo::IrregularConfig{}, rng);
        }()),
        router{topology.switches()},
        routes{topology, router},
        cco{cco_ordering(topology, router)} {}
};

struct FatTreeRig {
  topo::FatTreeConfig cfg;  // default: 64 hosts, 8x8 leaves over 4 spines
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  Chain cco;

  FatTreeRig()
      : topology{topo::make_fat_tree(cfg)},
        router{topology.switches(), topo::fat_tree_levels(cfg)},
        routes{topology, router},
        cco{cco_ordering(topology, router)} {}
};

RotationConfig config_for(std::int32_t rotation, std::int32_t k) {
  RotationConfig rc;
  rc.rotation_trees = rotation;
  rc.fanout_bound = k;
  return rc;
}

std::vector<std::pair<topo::HostId, topo::HostId>> edges_of(
    const HostTree& tree) {
  std::vector<std::pair<topo::HostId, topo::HostId>> edges;
  for (topo::HostId h : tree.nodes) {
    for (topo::HostId c : tree.children(h)) edges.emplace_back(h, c);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Max over hosts of the cumulative per-window NI work — the quantity
/// ni_work_bound reports (t_rcv = 2 per receive, t_snd = 3 per child).
std::int32_t recompute_bound(const RotationPlan& plan) {
  std::map<topo::HostId, std::int32_t> work;
  for (const RotationMember& m : plan.members) {
    for (topo::HostId h : m.tree.nodes) {
      work[h] +=
          (h == m.tree.root ? 0 : 2) +
          3 * static_cast<std::int32_t>(m.tree.children(h).size());
    }
  }
  std::int32_t best = 0;
  for (const auto& [h, w] : work) best = std::max(best, w);
  return best;
}

TEST(RotationPlanner, MemberZeroIsAlwaysTheFixedTree) {
  const IrregularRig rig;
  const std::int32_t k = optimal_k(64, 4).k;
  const HostTree fixed = HostTree::bind(make_kbinomial(64, k), rig.cco);
  for (const std::int32_t rotation : {1, 2, 4}) {
    const RotationPlan plan = plan_rotation(
        rig.topology, rig.routes, rig.router, rig.cco, config_for(rotation, k));
    ASSERT_GE(plan.size(), 1);
    EXPECT_EQ(edges_of(plan.members[0].tree), edges_of(fixed));
    EXPECT_EQ(plan.members[0].salt, 0u);
    EXPECT_EQ(plan.members[0].overlap_fraction, 0.0);
  }
  const RotationPlan one = plan_rotation(rig.topology, rig.routes, rig.router,
                                         rig.cco, config_for(1, k));
  EXPECT_EQ(one.size(), 1);
  // The fixed tree's hottest NI does one receive plus k sends per packet.
  EXPECT_EQ(one.ni_work_bound, 2 + 3 * k);
}

TEST(RotationPlanner, MembersSpanParticipantsWithinFanoutBound) {
  const FatTreeRig rig;
  const std::int32_t k = optimal_k(64, 4).k;
  const RotationPlan plan = plan_rotation(rig.topology, rig.routes, rig.router,
                                          rig.cco, config_for(4, k));
  ASSERT_EQ(plan.size(), 4);
  Chain sorted_participants = rig.cco;
  std::sort(sorted_participants.begin(), sorted_participants.end());
  for (const RotationMember& m : plan.members) {
    EXPECT_EQ(m.tree.root, rig.cco.front());
    Chain nodes = m.tree.nodes;
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(nodes, sorted_participants);
    std::map<topo::HostId, int> child_count;
    for (topo::HostId h : m.tree.nodes) {
      EXPECT_LE(m.tree.children(h).size(), static_cast<std::size_t>(k));
      for (topo::HostId c : m.tree.children(h)) ++child_count[c];
    }
    // Every non-root host has exactly one parent; the root has none.
    for (topo::HostId h : m.tree.nodes) {
      EXPECT_EQ(child_count[h], h == m.tree.root ? 0 : 1);
    }
  }
}

// Members r >= 1 are virtual-root trees: the source sends to one relay,
// which roots a k-binomial over the rest of the member's chain. Their
// children equal the old map-form construction (bind the sub-tree, then
// give the source the relay as its only child).
TEST(RotationPlanner, VirtualRootMembersMatchMapReference) {
  const IrregularRig rig;
  const std::int32_t k = optimal_k(64, 4).k;
  const RotationPlan plan = plan_rotation(rig.topology, rig.routes, rig.router,
                                          rig.cco, config_for(4, k));
  ASSERT_GE(plan.size(), 2);
  for (std::size_t r = 1; r < plan.members.size(); ++r) {
    const HostTree& tree = plan.members[r].tree;
    const Chain dests(tree.nodes.begin() + 1, tree.nodes.end());
    const RankTree sub =
        make_kbinomial(static_cast<std::int32_t>(dests.size()), k);
    std::map<topo::HostId, std::vector<topo::HostId>> ref;
    ref[tree.root] = {dests.front()};
    for (std::size_t i = 0; i < dests.size(); ++i) {
      auto& kids = ref[dests[i]];
      for (std::int32_t c : sub.children[i]) {
        kids.push_back(dests[static_cast<std::size_t>(c)]);
      }
    }
    ASSERT_EQ(tree.root, rig.cco.front());
    for (topo::HostId h : tree.nodes) {
      const auto kids = tree.children(h);
      EXPECT_EQ(std::vector<topo::HostId>(kids.begin(), kids.end()),
                ref.at(h))
          << "member " << r << " host " << h;
    }
  }
}

TEST(RotationPlanner, RotationLowersThePredictedNiBottleneck) {
  const std::int32_t k = optimal_k(64, 4).k;
  const IrregularRig irr;
  const FatTreeRig fat;
  const auto check = [k](const topo::Topology& topology,
                         const routing::RouteTable& routes,
                         const routing::UpDownRouter& router,
                         const Chain& cco) {
    const RotationPlan one =
        plan_rotation(topology, routes, router, cco, config_for(1, k));
    for (const std::int32_t rotation : {2, 4}) {
      const RotationPlan plan =
          plan_rotation(topology, routes, router, cco,
                        config_for(rotation, k));
      ASSERT_EQ(plan.size(), rotation);
      EXPECT_EQ(plan.ni_work_bound, recompute_bound(plan));
      // Per-packet predicted period strictly beats the fixed tree's.
      EXPECT_LT(static_cast<double>(plan.ni_work_bound) /
                    static_cast<double>(plan.size()),
                static_cast<double>(one.ni_work_bound));
    }
  };
  check(irr.topology, irr.routes, irr.router, irr.cco);
  check(fat.topology, fat.routes, fat.router, fat.cco);
}

TEST(RotationPlanner, OverlapFractionsAreBoundedAndDecorrelated) {
  const std::int32_t k = optimal_k(64, 4).k;
  const IrregularRig irr;
  const FatTreeRig fat;
  for (const auto* rig_cco : {&irr.cco, &fat.cco}) {
    const bool is_fat = rig_cco == &fat.cco;
    const auto& topology = is_fat ? fat.topology : irr.topology;
    const auto& routes = is_fat ? fat.routes : irr.routes;
    const auto& router = is_fat ? fat.router : irr.router;
    const RotationPlan plan =
        plan_rotation(topology, routes, router, *rig_cco, config_for(4, k));
    for (const RotationMember& m : plan.members) {
      EXPECT_GE(m.overlap_fraction, 0.0);
      EXPECT_LE(m.overlap_fraction, 1.0);
      EXPECT_FALSE(m.footprint.empty());
      EXPECT_TRUE(
          std::is_sorted(m.footprint.begin(), m.footprint.end()));
    }
    EXPECT_LE(plan.overlap_mean(), plan.overlap_max());
    // No admitted member may fully duplicate the claimed channel set.
    EXPECT_LT(plan.overlap_max(), 1.0);
  }
  // A fat tree has disjoint up*/down* alternatives through distinct
  // spines, so the first rotation member decorrelates almost entirely.
  const RotationPlan fat2 = plan_rotation(fat.topology, fat.routes, fat.router,
                                          fat.cco, config_for(2, k));
  ASSERT_EQ(fat2.size(), 2);
  EXPECT_LE(fat2.overlap_max(), 0.5);
}

TEST(RotationPlanner, PlanningIsDeterministic) {
  const IrregularRig rig;
  const std::int32_t k = optimal_k(64, 4).k;
  const RotationPlan a = plan_rotation(rig.topology, rig.routes, rig.router,
                                       rig.cco, config_for(8, k));
  const RotationPlan b = plan_rotation(rig.topology, rig.routes, rig.router,
                                       rig.cco, config_for(8, k));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.ni_work_bound, b.ni_work_bound);
  for (std::int32_t r = 0; r < a.size(); ++r) {
    const auto rz = static_cast<std::size_t>(r);
    EXPECT_EQ(edges_of(a.members[rz].tree), edges_of(b.members[rz].tree));
    EXPECT_EQ(a.members[rz].footprint, b.members[rz].footprint);
    EXPECT_EQ(a.members[rz].chain_offset, b.members[rz].chain_offset);
    EXPECT_EQ(a.members[rz].salt, b.members[rz].salt);
    EXPECT_EQ(a.members[rz].overlap_fraction, b.members[rz].overlap_fraction);
  }
}

TEST(RotationPlanner, DegradesToMaximalFeasibleSetOnTinyFabric) {
  // Two hosts on one switch: every candidate tree is source -> dest with
  // an empty switch-channel footprint, so all candidates duplicate the
  // fixed tree and the plan degenerates to size 1 instead of cloning
  // members.
  topo::Topology topology{topo::Graph{1, {}},
                          std::vector<topo::SwitchId>(2, 0), "tiny"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  const Chain participants{0, 1};
  const RotationPlan plan = plan_rotation(topology, routes, router,
                                          participants, config_for(4, 2));
  EXPECT_EQ(plan.requested, 4);
  EXPECT_EQ(plan.size(), 1);
  // Hottest host is the source (one send, no receive): work 3*1.
  EXPECT_EQ(plan.ni_work_bound, 3);
}

TEST(RotationPlanner, RejectsDegenerateParticipantSets) {
  const IrregularRig rig;
  EXPECT_THROW(
      (void)plan_rotation(rig.topology, rig.routes, rig.router, Chain{0},
                          config_for(2, 2)),
      std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::core
