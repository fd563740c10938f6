#include "collectives/collective_engine.hpp"

#include <gtest/gtest.h>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"

namespace nimcast::collectives {
namespace {

struct StarRig {
  topo::Topology topology{topo::Graph{1, {}},
                          std::vector<topo::SwitchId>(12, 0), "star"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  CollectiveEngine engine{topology, routes, CollectiveEngine::Config{}};

  CollectiveResult run(CollectiveKind kind, std::int32_t n, std::int32_t m,
                       std::int32_t k = 2) const {
    core::Chain order;
    for (std::int32_t i = 0; i < n; ++i) order.push_back(i);
    const auto tree =
        core::HostTree::bind(core::make_kbinomial(n, k), order);
    return engine.run(kind, tree, m);
  }
};

TEST(Collectives, BroadcastMatchesFpfsMulticastExactly) {
  // The collective broadcast is the FPFS multicast with a different
  // implementation; latencies must agree to the nanosecond.
  StarRig rig;
  mcast::MulticastEngine mc{
      rig.topology, rig.routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
  for (const std::int32_t n : {3, 6, 10}) {
    for (const std::int32_t m : {1, 4, 9}) {
      core::Chain order;
      for (std::int32_t i = 0; i < n; ++i) order.push_back(i);
      const auto tree =
          core::HostTree::bind(core::make_kbinomial(n, 2), order);
      EXPECT_EQ(rig.engine.run(CollectiveKind::kBroadcast, tree, m).latency,
                mc.run(tree, m).latency)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(Collectives, BroadcastDeliversToEveryNode) {
  StarRig rig;
  const auto r = rig.run(CollectiveKind::kBroadcast, 8, 3);
  EXPECT_EQ(r.completions.size(), 7u);
  EXPECT_EQ(r.packets_injected, 7 * 3);
}

TEST(Collectives, ScatterDeliversDistinctMessages) {
  StarRig rig;
  const auto r = rig.run(CollectiveKind::kScatter, 8, 3);
  EXPECT_EQ(r.completions.size(), 7u);
  // Packets traverse one tree edge per level: sum of depths * m.
  const auto tree = core::make_kbinomial(8, 2);
  const auto depths = tree.single_packet_steps();
  // depth here = tree level count, not send steps; recompute levels.
  std::int64_t level_sum = 0;
  for (std::int32_t r2 = 1; r2 < 8; ++r2) {
    std::int32_t lv = 0;
    for (std::int32_t v = r2; v != 0;
         v = tree.parent[static_cast<std::size_t>(v)]) {
      ++lv;
    }
    level_sum += lv;
  }
  EXPECT_EQ(r.packets_injected, level_sum * 3);
  (void)depths;
}

TEST(Collectives, ScatterOnDirectStarHasExactSerializedLatency) {
  // Root with n-1 direct children on one switch: the root NI pushes
  // (n-1)*m packets back to back; the last one lands after
  // t_s + (n-1)*m*t_snd + wire + t_rcv + t_r.
  StarRig rig;
  const std::int32_t n = 6;
  const std::int32_t m = 4;
  const auto r =
      rig.run(CollectiveKind::kScatter, n, m, /*k=*/core::ceil_log2(n));
  core::Chain order;
  for (std::int32_t i = 0; i < n; ++i) order.push_back(i);
  std::vector<std::vector<topo::HostId>> kids(order.size());
  kids[0].assign(order.begin() + 1, order.end());
  const core::HostTree star{order, kids};
  const auto direct = rig.engine.run(CollectiveKind::kScatter, star, m);
  const netif::SystemParams p;
  const sim::Time expected = p.t_s + p.t_snd * ((n - 1) * m) +
                             sim::Time::us(0.6) + p.t_rcv + p.t_r;
  EXPECT_EQ(direct.latency, expected);
  (void)r;
}

TEST(Collectives, GatherRootReceivesEverything) {
  StarRig rig;
  const auto r = rig.run(CollectiveKind::kGather, 9, 2);
  ASSERT_EQ(r.completions.size(), 1u);
  EXPECT_EQ(r.completions.front().first, 0);
}

TEST(Collectives, GatherLatencyGrowsWithMessageLength) {
  StarRig rig;
  sim::Time prev;
  for (const std::int32_t m : {1, 2, 4, 8}) {
    const auto r = rig.run(CollectiveKind::kGather, 10, m);
    EXPECT_GT(r.latency, prev);
    prev = r.latency;
  }
}

TEST(Collectives, ReduceCompletesAtRootOnly) {
  StarRig rig;
  const auto r = rig.run(CollectiveKind::kReduce, 10, 4);
  ASSERT_EQ(r.completions.size(), 1u);
  EXPECT_EQ(r.completions.front().first, 0);
  // Exactly one packet per tree edge per index.
  EXPECT_EQ(r.packets_injected, 9 * 4);
}

TEST(Collectives, InNetworkReduceBeatsGatherAtScale) {
  // The point of in-network combining: the root folds only its own
  // children's streams instead of ingesting every node's full message.
  sim::Rng rng{3};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const CollectiveEngine engine{topology, routes,
                                CollectiveEngine::Config{}};
  const auto chain = core::cco_ordering(topology, router);
  const auto tree = core::HostTree::bind(core::make_kbinomial(64, 3), chain);
  const auto gather = engine.run(CollectiveKind::kGather, tree, 4);
  const auto reduce = engine.run(CollectiveKind::kReduce, tree, 4);
  EXPECT_LT(reduce.latency, gather.latency);
  EXPECT_LT(reduce.packets_injected, gather.packets_injected);
}

TEST(Collectives, AllReduceBoundedByPhasesAndBeatsSequential) {
  StarRig rig;
  const std::int32_t n = 10;
  const std::int32_t m = 6;
  const auto reduce = rig.run(CollectiveKind::kReduce, n, m);
  const auto bcast = rig.run(CollectiveKind::kBroadcast, n, m);
  const auto allreduce = rig.run(CollectiveKind::kAllReduce, n, m);
  EXPECT_GT(allreduce.latency, reduce.latency);
  // Pipelining the down phase behind the up phase beats running the two
  // collectives back to back (minus the double-counted host overheads).
  EXPECT_LT(allreduce.latency, reduce.latency + bcast.latency);
  EXPECT_EQ(allreduce.completions.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(allreduce.packets_injected, 2 * (n - 1) * m);
}

TEST(Collectives, EveryKindRunsOnIrregularNetwork) {
  sim::Rng rng{17};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const CollectiveEngine engine{topology, routes,
                                CollectiveEngine::Config{}};
  const auto chain = core::cco_ordering(topology, router);
  const auto tree = core::HostTree::bind(core::make_kbinomial(32, 2),
                                         core::Chain{chain.begin(),
                                                     chain.begin() + 32});
  for (const auto kind :
       {CollectiveKind::kBroadcast, CollectiveKind::kScatter,
        CollectiveKind::kGather, CollectiveKind::kReduce,
        CollectiveKind::kAllReduce}) {
    const auto r = engine.run(kind, tree, 3);
    EXPECT_GT(r.latency, sim::Time::zero()) << to_string(kind);
  }
}

TEST(Collectives, CombiningCostShiftsReduceLatency) {
  StarRig rig;
  CollectiveEngine::Config slow;
  slow.params.t_comb = sim::Time::us(10.0);
  const CollectiveEngine slow_engine{rig.topology, rig.routes, slow};
  core::Chain order;
  for (std::int32_t i = 0; i < 10; ++i) order.push_back(i);
  const auto tree = core::HostTree::bind(core::make_kbinomial(10, 2), order);
  const auto fast = rig.engine.run(CollectiveKind::kReduce, tree, 4);
  const auto expensive = slow_engine.run(CollectiveKind::kReduce, tree, 4);
  EXPECT_GT(expensive.latency, fast.latency);
}

TEST(Collectives, RejectsBadArguments) {
  StarRig rig;
  const core::HostTree t{{0}, {{}}};
  EXPECT_THROW((void)rig.engine.run(CollectiveKind::kReduce, t, 1),
               std::invalid_argument);
  EXPECT_THROW((void)rig.run(CollectiveKind::kGather, 4, 0),
               std::invalid_argument);
  // The collective firmware has no retransmit: a lossy network is
  // refused up front instead of failing after the whole simulation.
  CollectiveEngine::Config lossy;
  lossy.network.loss_rate = 0.5;
  const CollectiveEngine lossy_engine{rig.topology, rig.routes, lossy};
  const auto tree = core::HostTree::bind(core::make_kbinomial(4, 2),
                                         core::Chain{0, 1, 2, 3});
  EXPECT_THROW((void)lossy_engine.run(CollectiveKind::kReduce, tree, 2),
               std::invalid_argument);
}

TEST(Collectives, KindNames) {
  EXPECT_STREQ(to_string(CollectiveKind::kBroadcast), "broadcast");
  EXPECT_STREQ(to_string(CollectiveKind::kScatter), "scatter");
  EXPECT_STREQ(to_string(CollectiveKind::kGather), "gather");
  EXPECT_STREQ(to_string(CollectiveKind::kReduce), "reduce");
  EXPECT_STREQ(to_string(CollectiveKind::kAllReduce), "allreduce");
}

}  // namespace
}  // namespace nimcast::collectives
