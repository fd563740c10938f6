// Tests of the incremental post-fault rotation patcher
// (core::replan_rotation): untouched members survive verbatim, members
// whose footprint or tree intersects the dead set are rebuilt over their
// surviving chain, dead-rooted members are dropped, and the patched plan
// keeps the planner's NI-work accounting and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"

namespace nimcast::core {
namespace {

struct Rig {
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  Chain cco;

  explicit Rig(std::uint64_t seed = 1997)
      : topology([seed] {
          sim::Rng rng{seed};
          return topo::make_irregular(topo::IrregularConfig{}, rng);
        }()),
        router{topology.switches()},
        routes{topology, router},
        cco{cco_ordering(topology, router)} {}

  [[nodiscard]] RotationPlan plan(std::int32_t n, std::int32_t rotation,
                                  std::int32_t k = 2) const {
    const Chain members{cco.begin(), cco.begin() + n};
    RotationConfig rc;
    rc.rotation_trees = rotation;
    rc.fanout_bound = k;
    return plan_rotation(topology, routes, router, members, rc);
  }
};

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

TEST(ReplanRotation, EmptyDeadSetKeepsEveryMemberVerbatim) {
  const Rig rig;
  const RotationPlan plan = rig.plan(16, 4);
  ASSERT_GE(plan.size(), 2);
  const ReplanResult patched =
      replan_rotation(rig.topology, rig.routes, plan, {}, {});
  EXPECT_EQ(patched.rebuilt, 0);
  EXPECT_EQ(patched.dropped, 0);
  ASSERT_EQ(patched.plan.size(), plan.size());
  for (std::int32_t r = 0; r < plan.size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(patched.plan.members[i].tree.nodes, plan.members[i].tree.nodes);
    EXPECT_EQ(patched.plan.members[i].salt, plan.members[i].salt);
  }
  EXPECT_EQ(patched.plan.ni_work_bound, recompute_bound(patched.plan));
}

TEST(ReplanRotation, DeadHostRebuildsOnlyTheMembersContainingIt) {
  const Rig rig;
  const RotationPlan plan = rig.plan(16, 4);
  ASSERT_GE(plan.size(), 2);
  // Kill a non-root participant: every member's tree contains every
  // participant, so all members must be rebuilt without the victim —
  // but the patch keeps the rotation width instead of collapsing to one
  // surviving tree.
  const topo::HostId victim = plan.members[0].tree.nodes.back();
  ASSERT_NE(victim, plan.members[0].tree.root);
  const ReplanResult patched =
      replan_rotation(rig.topology, rig.routes, plan, {}, {victim});
  EXPECT_EQ(patched.rebuilt + patched.dropped, plan.size());
  EXPECT_GE(patched.plan.size(), plan.size() - 1);
  for (const RotationMember& m : patched.plan.members) {
    EXPECT_EQ(std::count(m.tree.nodes.begin(), m.tree.nodes.end(), victim),
              0)
        << "victim survived in a patched member";
    // Rebuilt members ride the primary table: salted alternatives are
    // stale after a fault.
    EXPECT_EQ(m.salt, 0u);
    EXPECT_EQ(m.table, nullptr);
  }
  EXPECT_EQ(patched.plan.ni_work_bound, recompute_bound(patched.plan));
}

TEST(ReplanRotation, DeadChannelRebuildsTheIntersectedMember) {
  const Rig rig;
  const RotationPlan plan = rig.plan(16, 4);
  ASSERT_GE(plan.size(), 2);
  // Condemn one channel of the last member's footprint only.
  const RotationMember& target = plan.members.back();
  ASSERT_FALSE(target.footprint.empty());
  std::vector<std::int32_t> dead{target.footprint.front()};
  const ReplanResult patched =
      replan_rotation(rig.topology, rig.routes, plan, dead, {});
  EXPECT_GE(patched.rebuilt + patched.dropped, 1);
  // Every surviving member's footprint dodges the dead channel.
  for (const RotationMember& m : patched.plan.members) {
    EXPECT_FALSE(std::binary_search(m.footprint.begin(), m.footprint.end(),
                                    dead.front()))
        << "patched member still crosses the dead channel";
  }
}

TEST(ReplanRotation, DeadRootDropsVirtualRootMembersCleanly) {
  const Rig rig;
  const RotationPlan plan = rig.plan(16, 4);
  ASSERT_GE(plan.size(), 2);
  // Killing member r's relay (virtual root) must drop or re-root that
  // member, never return a tree rooted at a dead host.
  const topo::HostId relay = plan.members[1].tree.root;
  const ReplanResult patched =
      replan_rotation(rig.topology, rig.routes, plan, {}, {relay});
  for (const RotationMember& m : patched.plan.members) {
    EXPECT_NE(m.tree.root, relay);
    EXPECT_EQ(std::count(m.tree.nodes.begin(), m.tree.nodes.end(), relay), 0);
  }
}

TEST(ReplanRotation, IsDeterministic) {
  const Rig rig;
  const RotationPlan plan = rig.plan(16, 4);
  const topo::HostId victim = plan.members[0].tree.nodes.back();
  const ReplanResult a =
      replan_rotation(rig.topology, rig.routes, plan, {}, {victim});
  const ReplanResult b =
      replan_rotation(rig.topology, rig.routes, plan, {}, {victim});
  ASSERT_EQ(a.plan.size(), b.plan.size());
  EXPECT_EQ(a.rebuilt, b.rebuilt);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.plan.ni_work_bound, b.plan.ni_work_bound);
  for (std::int32_t r = 0; r < a.plan.size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(a.plan.members[i].tree.nodes, b.plan.members[i].tree.nodes);
    EXPECT_EQ(a.plan.members[i].footprint, b.plan.members[i].footprint);
  }
}

}  // namespace
}  // namespace nimcast::core
