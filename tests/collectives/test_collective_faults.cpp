// Degraded-mode collectives: every CollectiveKind must survive fabric
// faults with a queryable per-host verdict instead of an exception,
// tree repair re-parenting the survivors in contention-free order, and
// a survivor set that matches the route table's reachability exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "collectives/collective_engine.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "network/fault_plan.hpp"
#include "routing/repair.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"

namespace nimcast::collectives {
namespace {

constexpr CollectiveKind kAllKinds[] = {
    CollectiveKind::kBroadcast, CollectiveKind::kScatter,
    CollectiveKind::kGather, CollectiveKind::kReduce,
    CollectiveKind::kAllReduce};

struct Rig {
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  core::Chain cco;

  explicit Rig(std::uint64_t seed = 3)
      : topology{[&] {
          sim::Rng rng{seed};
          return topo::make_irregular(topo::IrregularConfig{}, rng);
        }()},
        router{topology.switches()},
        routes{topology, router},
        cco{core::cco_ordering(topology, router)} {}

  [[nodiscard]] core::HostTree tree(std::int32_t n, std::int32_t m) const {
    const core::Chain members{cco.begin(), cco.begin() + n};
    return core::HostTree::bind(
        core::make_kbinomial(n, core::optimal_k(n, m).k), members);
  }
};

CollectiveEngine::Config faulty_config(net::FaultPlan faults) {
  CollectiveEngine::Config cfg;
  cfg.network.faults = std::move(faults);
  return cfg;
}

/// Two switches joined by one bridge link; hosts 0,1 on switch 0 and
/// hosts 2,3 on switch 1 — the minimal partitionable fabric.
struct BridgeRig {
  topo::Topology topology{topo::Graph{2, {{0, 1}}}, {0, 0, 1, 1}, "bridge"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};

  /// Root 0 with children {1, 2} and 1 -> {3}: the down path to host 3
  /// hops through host 1's NI before crossing the bridge.
  [[nodiscard]] static core::HostTree chain_tree() {
    const core::HostTree t{{0, 1, 2, 3}, {{1, 2}, {3}, {}, {}}};
    return t;
  }
};

TEST(CollectiveFaults, RootSwitchDeathMidScatterFailsWithoutThrowing) {
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  net::FaultPlan plan;
  // t_s = 12.5us: the root dies before its first packet reaches the wire.
  plan.switch_down(sim::Time::us(1.0), rig.topology.switch_of(tree.root));
  const CollectiveEngine engine{rig.topology, rig.routes,
                                faulty_config(plan)};
  CollectiveResult r;
  ASSERT_NO_THROW(r = engine.run(CollectiveKind::kScatter, tree, 4));
  EXPECT_EQ(r.outcome, mcast::Outcome::kFailed);
  EXPECT_EQ(r.delivered_count(), 0);
  EXPECT_EQ(r.repairs, 0);  // a dead root cannot re-initiate
  EXPECT_FALSE(r.root_alive);
  EXPECT_TRUE(r.survivors().empty());
}

TEST(CollectiveFaults, LeafSwitchDeathMidGatherYieldsExactSurvivorSet) {
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  const topo::HostId victim = tree.nodes.back();
  const topo::SwitchId dead = rig.topology.switch_of(victim);
  ASSERT_NE(dead, rig.topology.switch_of(tree.root));
  net::FaultPlan plan;
  plan.switch_down(sim::Time::us(1.0), dead);
  const CollectiveEngine engine{rig.topology, rig.routes,
                                faulty_config(plan)};
  CollectiveResult r;
  ASSERT_NO_THROW(r = engine.run(CollectiveKind::kGather, tree, 4));
  EXPECT_EQ(r.outcome, mcast::Outcome::kPartial);
  EXPECT_GT(r.delivered_count(), 0);
  EXPECT_LT(r.delivery_ratio(), 1.0);

  // The survivor set is exactly the rebuilt route table's reachability
  // verdict on the post-fault fabric — no more, no less.
  topo::SubgraphMask mask;
  mask.dead_switch.assign(
      static_cast<std::size_t>(rig.topology.num_switches()), false);
  mask.dead_switch[static_cast<std::size_t>(dead)] = true;
  const auto rebuilt = routing::rebuild_updown(rig.topology, mask, 1);
  ASSERT_EQ(r.participants.size(), 15u);
  for (const auto& st : r.participants) {
    EXPECT_EQ(st.reachable, rebuilt->reachable(tree.root, st.host))
        << "host " << st.host;
    // The fault lands before anyone's t_s, so delivery and reachability
    // coincide exactly here.
    EXPECT_EQ(st.delivered, st.reachable) << "host " << st.host;
  }
  const auto surv = r.survivors();
  EXPECT_TRUE(std::find(surv.begin(), surv.end(), victim) == surv.end());
}

TEST(CollectiveFaults, AllReduceDownPhaseFaultKeepsContributorsComplete) {
  // Cut the bridge just after the root finishes combining: the reduction
  // is complete (every contribution folded) but the result cannot reach
  // the hosts across the bridge — kPartial with full contributor
  // accounting, and no repair possible across a dead partition.
  const BridgeRig rig;
  const auto tree = BridgeRig::chain_tree();
  const std::int32_t m = 4;

  const CollectiveEngine clean{rig.topology, rig.routes,
                               CollectiveEngine::Config{}};
  const auto fault_free = clean.run(CollectiveKind::kAllReduce, tree, m);
  sim::Time root_completed;
  for (const auto& [h, t] : fault_free.completions) {
    if (h == tree.root) root_completed = t;
  }
  ASSERT_GT(root_completed, sim::Time::zero());
  // The root's NI finished the up phase t_r before the recorded host
  // completion; the last down-phase packets leave the NI t_snd later.
  const netif::SystemParams params;
  const sim::Time cut = root_completed - params.t_r + sim::Time::us(0.1);

  net::FaultPlan plan;
  plan.link_down(cut, 0);
  const CollectiveEngine engine{rig.topology, rig.routes,
                                faulty_config(plan)};
  CollectiveResult r;
  ASSERT_NO_THROW(r = engine.run(CollectiveKind::kAllReduce, tree, m));
  EXPECT_EQ(r.outcome, mcast::Outcome::kPartial);
  // Up phase completed before the cut: all four contributions folded.
  ASSERT_EQ(r.contributors.size(), 4u);
  EXPECT_EQ(r.repairs, 0);  // nothing reachable left to repair toward
  for (const auto& st : r.participants) {
    const bool same_side = rig.topology.switch_of(st.host) ==
                           rig.topology.switch_of(tree.root);
    EXPECT_EQ(st.delivered, same_side) << "host " << st.host;
    EXPECT_EQ(st.reachable, same_side) << "host " << st.host;
  }
}

TEST(CollectiveFaults, RevivedLinkLetsRepairRoundComplete) {
  // Bridge dies before the operation starts and recovers long after the
  // initial attempt drains; the kLinkUp rebuild (fresh route epoch) makes
  // the far side reachable again, and the repair round re-parents the
  // missing hosts and completes the broadcast.
  const BridgeRig rig;
  const core::HostTree star{{0, 1, 2, 3}, {{1, 2, 3}, {}, {}, {}}};

  net::FaultPlan plan;
  plan.link_down(sim::Time::us(1.0), 0).link_up(sim::Time::us(300.0), 0);
  const CollectiveEngine engine{rig.topology, rig.routes,
                                faulty_config(plan)};
  CollectiveResult r;
  ASSERT_NO_THROW(r = engine.run(CollectiveKind::kBroadcast, star, 3));
  EXPECT_EQ(r.outcome, mcast::Outcome::kComplete);
  EXPECT_GE(r.repairs, 1);
  EXPECT_EQ(r.faults_applied, 2);
  EXPECT_EQ(r.route_epoch, 2);  // one rebuild per fault event
  for (const auto& st : r.participants) {
    EXPECT_TRUE(st.delivered) << "host " << st.host;
    EXPECT_TRUE(st.reachable) << "host " << st.host;
  }
}

TEST(CollectiveFaults, FailFastThrowsWhereDegradeReportsPartial) {
  // A switch death that excises a participant does not throw: the
  // collective degrades and reports partial delivery.
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  const topo::SwitchId dead = rig.topology.switch_of(tree.nodes.back());
  ASSERT_NE(dead, rig.topology.switch_of(tree.root));
  net::FaultPlan plan;
  plan.switch_down(sim::Time::us(1.0), dead);

  const CollectiveEngine degrade{rig.topology, rig.routes,
                                 faulty_config(plan)};
  CollectiveResult r;
  ASSERT_NO_THROW(r = degrade.run(CollectiveKind::kBroadcast, tree, 4));
  EXPECT_EQ(r.outcome, mcast::Outcome::kPartial);
}

TEST(CollectiveFaults, AllKindsSurviveTenPercentLinkFaultPlan) {
  // The acceptance sweep: a 10% random link-fault plan on the 64-host
  // testbed; every kind must run to a verdict without throwing, every
  // still-reachable participant must have its obligation met, and the
  // survivor set must equal the rebuilt route table's reachability.
  const Rig rig;
  const auto tree = rig.tree(64, 4);
  net::FaultPlan::RandomConfig fcfg;
  fcfg.link_fail_prob = 0.1;
  fcfg.window_end = sim::Time::us(150.0);
  for (const std::uint64_t seed : {5u, 29u, 71u}) {
    sim::Rng rng{seed};
    const auto plan =
        net::FaultPlan::random(rig.topology.switches(), fcfg, rng);
    // Replay the plan to the settled end-state mask.
    topo::SubgraphMask mask;
    mask.dead_link.assign(
        static_cast<std::size_t>(rig.topology.switches().num_edges()), false);
    mask.dead_switch.assign(
        static_cast<std::size_t>(rig.topology.num_switches()), false);
    for (const auto& ev : plan.events()) {
      const auto id = static_cast<std::size_t>(ev.id);
      if (ev.kind == net::FaultKind::kLinkDown) mask.dead_link[id] = true;
      if (ev.kind == net::FaultKind::kLinkUp) mask.dead_link[id] = false;
      if (ev.kind == net::FaultKind::kSwitchDown) mask.dead_switch[id] = true;
    }
    const auto rebuilt = routing::rebuild_updown(rig.topology, mask, 1);

    for (const auto kind : kAllKinds) {
      const CollectiveEngine engine{rig.topology, rig.routes,
                                    faulty_config(plan)};
      CollectiveResult r;
      ASSERT_NO_THROW(r = engine.run(kind, tree, 4))
          << to_string(kind) << " seed " << seed;
      ASSERT_EQ(r.participants.size(), 63u);
      bool any_unreachable = false;
      for (const auto& st : r.participants) {
        EXPECT_EQ(st.reachable, rebuilt->reachable(tree.root, st.host))
            << to_string(kind) << " seed " << seed << " host " << st.host;
        if (st.reachable) {
          EXPECT_TRUE(st.delivered)
              << to_string(kind) << " seed " << seed << " host " << st.host
              << " reachable but unserved";
        } else {
          any_unreachable = true;
        }
      }
      // A degraded verdict must trace to a genuine partition.
      if (r.outcome != mcast::Outcome::kComplete) {
        EXPECT_TRUE(any_unreachable) << to_string(kind) << " seed " << seed;
      }
      EXPECT_EQ(r.survivors().size(),
                static_cast<std::size_t>(
                    std::count_if(r.participants.begin(),
                                  r.participants.end(),
                                  [](const auto& st) { return st.reachable; })));
    }
  }
}

TEST(CollectiveFaults, FaultyCollectivesAreDeterministic) {
  const Rig rig;
  const auto tree = rig.tree(32, 4);
  net::FaultPlan::RandomConfig fcfg;
  fcfg.link_fail_prob = 0.15;
  fcfg.switch_fail_prob = 0.04;
  const auto run_once = [&](CollectiveKind kind) {
    sim::Rng rng{1234};
    const auto plan =
        net::FaultPlan::random(rig.topology.switches(), fcfg, rng);
    const CollectiveEngine engine{rig.topology, rig.routes,
                                  faulty_config(plan)};
    return engine.run(kind, tree, 4);
  };
  for (const auto kind : kAllKinds) {
    const auto a = run_once(kind);
    const auto b = run_once(kind);
    EXPECT_EQ(a.latency, b.latency) << to_string(kind);
    EXPECT_EQ(a.outcome, b.outcome) << to_string(kind);
    EXPECT_EQ(a.repairs, b.repairs) << to_string(kind);
    EXPECT_EQ(a.route_epoch, b.route_epoch) << to_string(kind);
    ASSERT_EQ(a.completions.size(), b.completions.size()) << to_string(kind);
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
      EXPECT_EQ(a.completions[i], b.completions[i]) << to_string(kind);
    }
  }
}

TEST(CollectiveFaults, EmptyPlanKeepsStrictContractAndNoVerdicts) {
  // Fault-free runs never pay for the bookkeeping: no participants
  // vector, kComplete, ratio 1.0.
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  const CollectiveEngine engine{rig.topology, rig.routes,
                                CollectiveEngine::Config{}};
  const auto r = engine.run(CollectiveKind::kBroadcast, tree, 4);
  EXPECT_EQ(r.outcome, mcast::Outcome::kComplete);
  EXPECT_TRUE(r.participants.empty());
  EXPECT_EQ(r.delivery_ratio(), 1.0);
  EXPECT_EQ(r.repairs, 0);
  EXPECT_EQ(r.route_epoch, 0);
}

}  // namespace
}  // namespace nimcast::collectives
