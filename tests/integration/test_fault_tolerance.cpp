// End-to-end fault tolerance: multicasts over a fabric with scheduled
// link/switch failures must degrade gracefully — a queryable partial
// outcome, never an exception; every destination the surviving fabric
// can still reach must deliver (via retransmission and tree repair); and
// everything stays a pure function of seeds.

#include <gtest/gtest.h>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "network/fault_plan.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "support/multicast_mix.hpp"
#include "topology/irregular.hpp"

namespace nimcast {
namespace {

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

  /// Optimal k-binomial tree over the first n hosts of the
  /// contention-free ordering.
  [[nodiscard]] core::HostTree tree(std::int32_t n, std::int32_t m) const {
    const core::Chain members{cco.begin(), cco.begin() + n};
    return core::HostTree::bind(
        core::make_kbinomial(n, core::optimal_k(n, m).k), members);
  }
};

mcast::MulticastEngine::Config reliable_config(net::FaultPlan faults) {
  mcast::MulticastEngine::Config cfg;
  cfg.style = mcast::NiStyle::kReliableFpfs;
  cfg.network.faults = std::move(faults);
  return cfg;
}

TEST(FaultTolerance, SingleLinkFailureNeverThrowsAndReachableDeliver) {
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  const auto num_links = rig.topology.switches().num_edges();
  ASSERT_GE(num_links, 3);
  // Sweep the failing link and the failure instant across the operation
  // lifetime (early, mid-flight, after likely completion).
  for (const topo::LinkId link : {0, num_links / 2, num_links - 1}) {
    for (const double at_us : {1.0, 40.0, 500.0}) {
      net::FaultPlan plan;
      plan.link_down(sim::Time::us(at_us), link);
      const mcast::MulticastEngine engine{rig.topology, rig.routes,
                                          reliable_config(plan)};
      mcast::MulticastResult r;
      ASSERT_NO_THROW(r = engine.run(tree, 4))
          << "link " << link << " at " << at_us << "us";
      EXPECT_NE(r.outcome, mcast::Outcome::kFailed);
      ASSERT_EQ(r.destinations.size(), 15u);
      for (const auto& st : r.destinations) {
        if (st.reachable) {
          EXPECT_TRUE(st.delivered)
              << "host " << st.host << " reachable but undelivered (link "
              << link << " down at " << at_us << "us)";
        }
      }
    }
  }
}

TEST(FaultTolerance, DestinationSwitchDeathYieldsPartialOutcome) {
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  // Kill the switch of the last destination in the chain, early enough
  // that nothing has been delivered there yet.
  const topo::HostId victim = tree.nodes.back();
  const topo::SwitchId dead = rig.topology.switch_of(victim);
  ASSERT_NE(dead, rig.topology.switch_of(tree.root));
  net::FaultPlan plan;
  plan.switch_down(sim::Time::us(1.0), dead);
  const mcast::MulticastEngine engine{rig.topology, rig.routes,
                                      reliable_config(plan)};
  mcast::MulticastResult r;
  ASSERT_NO_THROW(r = engine.run(tree, 4));
  EXPECT_EQ(r.outcome, mcast::Outcome::kPartial);
  EXPECT_LT(r.delivery_ratio(), 1.0);
  EXPECT_GT(r.delivered_count(), 0);
  bool victim_seen = false;
  for (const auto& st : r.destinations) {
    if (rig.topology.switch_of(st.host) == dead) {
      EXPECT_FALSE(st.reachable);
      EXPECT_FALSE(st.delivered);
      if (st.host == victim) victim_seen = true;
    } else if (st.reachable) {
      EXPECT_TRUE(st.delivered);
    }
  }
  EXPECT_TRUE(victim_seen);
}

TEST(FaultTolerance, RootSwitchDeathFailsWithoutThrowing) {
  const Rig rig;
  const auto tree = rig.tree(8, 2);
  net::FaultPlan plan;
  plan.switch_down(sim::Time::us(1.0), rig.topology.switch_of(tree.root));
  const mcast::MulticastEngine engine{rig.topology, rig.routes,
                                      reliable_config(plan)};
  mcast::MulticastResult r;
  ASSERT_NO_THROW(r = engine.run(tree, 2));
  // t_snd = 3us: the root dies before its first packet reaches the wire.
  EXPECT_EQ(r.outcome, mcast::Outcome::kFailed);
  EXPECT_EQ(r.delivered_count(), 0);
  EXPECT_EQ(r.repairs, 0);  // a dead root cannot re-initiate
}

TEST(FaultTolerance, RepairNeverDeliversLessThanNoRepair) {
  // Dense random plans orphan whole subtrees; tree repair re-parents
  // them, so with repair enabled delivery can only improve.
  const Rig rig;
  const auto tree = rig.tree(32, 4);
  net::FaultPlan::RandomConfig fcfg;
  fcfg.link_fail_prob = 0.2;
  fcfg.switch_fail_prob = 0.05;
  fcfg.window_end = sim::Time::us(120.0);
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    sim::Rng rng{seed};
    const auto plan =
        net::FaultPlan::random(rig.topology.switches(), fcfg, rng);
    auto with = reliable_config(plan);
    auto without = reliable_config(plan);
    without.repair.max_attempts = 0;
    without.repair.reroute = false;
    mcast::MulticastResult r_with, r_without;
    const mcast::MulticastEngine e1{rig.topology, rig.routes, with};
    const mcast::MulticastEngine e2{rig.topology, rig.routes, without};
    ASSERT_NO_THROW(r_with = e1.run(tree, 4));
    ASSERT_NO_THROW(r_without = e2.run(tree, 4));
    EXPECT_GE(r_with.delivered_count(), r_without.delivered_count());
  }
}

TEST(FaultTolerance, FaultyRunsAreDeterministicGivenSeeds) {
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  net::FaultPlan::RandomConfig fcfg;
  fcfg.link_fail_prob = 0.15;
  fcfg.switch_fail_prob = 0.05;
  auto run_once = [&] {
    sim::Rng rng{99};
    const auto plan =
        net::FaultPlan::random(rig.topology.switches(), fcfg, rng);
    const mcast::MulticastEngine engine{rig.topology, rig.routes,
                                        reliable_config(plan)};
    return engine.run(tree, 4);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i], b.completions[i]);
  }
}

TEST(FaultTolerance, RecoveredLinkIsReusedAfterLinkUp) {
  // Two switches joined by exactly one bridge link; hosts 0,1 on switch
  // 0, hosts 2,3 on switch 1. The bridge dies at 1us and recovers at
  // 2000us. With tree repair disabled, an operation issued mid-outage
  // can only reach its own side of the cut (kPartial); an operation
  // issued after recovery must complete — possible only if the kLinkUp
  // fault hook rebuilt routes over the recovered bridge, since the
  // outage-epoch table has the cross-bridge pairs excised.
  const topo::Topology topology{topo::Graph{2, {{0, 1}}}, {0, 0, 1, 1},
                                "bridge"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};

  net::FaultPlan plan;
  plan.link_down(sim::Time::us(1.0), 0).link_up(sim::Time::us(2000.0), 0);
  traffic::TrafficConfig cfg = test::fifo_config();
  cfg.network.faults = std::move(plan);
  cfg.repair.max_attempts = 0;  // isolate the route-rebuild path
  const traffic::TrafficEngine engine{topology, routes, cfg};

  const core::Chain members{0, 1, 2};
  const auto tree =
      core::HostTree::bind(core::make_kbinomial(3, 1), members);
  const auto batch = engine.run(test::multicast_mix(
      {{tree, 2, sim::Time::us(5.0)}, {tree, 2, sim::Time::us(2500.0)}}));

  ASSERT_EQ(batch.ops.size(), 2u);
  EXPECT_EQ(batch.ops[0].outcome, mcast::Outcome::kPartial);
  // Host 1 shares the root's switch, so it delivered during the outage;
  // host 2 sits across the dead bridge.
  for (const auto& st : batch.ops[0].destinations) {
    EXPECT_EQ(st.delivered, st.host == 1) << "host " << st.host;
  }
  EXPECT_EQ(batch.ops[1].outcome, mcast::Outcome::kComplete);
  EXPECT_EQ(batch.faults_applied, 2);
}

TEST(FaultTolerance, EmptyFaultPlanIsBitIdenticalToNoFaultLayer) {
  const Rig rig;
  const auto tree = rig.tree(16, 4);
  for (const auto style :
       {mcast::NiStyle::kSmartFpfs, mcast::NiStyle::kReliableFpfs}) {
    mcast::MulticastEngine::Config plain_cfg;
    plain_cfg.style = style;
    mcast::MulticastEngine::Config empty_cfg = plain_cfg;
    empty_cfg.network.faults = net::FaultPlan{};  // explicitly empty
    const mcast::MulticastEngine plain{rig.topology, rig.routes, plain_cfg};
    const mcast::MulticastEngine empty{rig.topology, rig.routes, empty_cfg};
    const auto a = plain.run(tree, 4);
    const auto b = empty.run(tree, 4);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.ni_latency, b.ni_latency);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.outcome, mcast::Outcome::kComplete);
    EXPECT_EQ(b.outcome, mcast::Outcome::kComplete);
    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
      EXPECT_EQ(a.completions[i], b.completions[i]);
    }
  }
}

}  // namespace
}  // namespace nimcast
