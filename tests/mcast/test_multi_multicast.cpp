// Concurrent (multiple) multicast: several operations share NIs, hosts
// and wires in one simulation — the workload of the authors' companion
// "multiple multicast" line of work, run as a FIFO traffic mix, and a
// stress test of the message-id demultiplexing in the NI firmware model.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "support/multicast_mix.hpp"
#include "topology/irregular.hpp"

namespace nimcast::mcast {
namespace {

using test::Multicast;
using test::multicast_mix;

struct StarRig {
  topo::Topology topology{topo::Graph{1, {}},
                          std::vector<topo::SwitchId>(8, 0), "star"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  MulticastEngine engine{
      topology, routes,
      MulticastEngine::Config{netif::SystemParams{}, net::NetworkConfig{},
                              NiStyle::kSmartFpfs}};
  traffic::TrafficEngine batch{topology, routes, test::fifo_config()};
};

core::HostTree tree_over(std::vector<topo::HostId> hosts) {
  const auto shape =
      core::make_binomial(static_cast<std::int32_t>(hosts.size()));
  return core::HostTree::bind(shape, hosts);
}

TEST(MultiMulticast, SingleOpMatchesRunExactly) {
  StarRig rig;
  const auto tree = tree_over({0, 1, 2, 3});
  const auto single = rig.engine.run(tree, 4);
  const auto batch = rig.batch.run(multicast_mix({{tree, 4}}));
  const traffic::OpRecord& op = batch.ops[0];
  EXPECT_EQ(single.latency, op.fct());
  EXPECT_EQ(single.ni_latency, op.ni_completed - op.arrival);
  EXPECT_EQ(single.completions, op.completions);
  EXPECT_EQ(batch.makespan, single.latency);
}

TEST(MultiMulticast, DisjointOperationsDoNotInteract) {
  StarRig rig;
  const auto a = tree_over({0, 1, 2});
  const auto b = tree_over({4, 5, 6});
  const auto solo_a = rig.engine.run(a, 3);
  const auto solo_b = rig.engine.run(b, 3);
  const auto batch = rig.batch.run(multicast_mix({{a, 3}, {b, 3}}));
  EXPECT_EQ(batch.ops[0].fct(), solo_a.latency);
  EXPECT_EQ(batch.ops[1].fct(), solo_b.latency);
}

TEST(MultiMulticast, SharedSourceSerializesOnHostAndNi) {
  StarRig rig;
  const auto a = tree_over({0, 1, 2});
  const auto b = tree_over({0, 3, 4});
  const auto solo = rig.engine.run(a, 2);
  const auto batch = rig.batch.run(multicast_mix({{a, 2}, {b, 2}}));
  // First op unaffected; second queues behind the first's t_s on host 0.
  EXPECT_EQ(batch.ops[0].fct(), solo.latency);
  EXPECT_GT(batch.ops[1].fct(), solo.latency);
}

TEST(MultiMulticast, SharedDestinationDemultiplexesByMessage) {
  StarRig rig;
  // Both ops target hosts 1 and 2 from different sources.
  const auto a = tree_over({0, 1, 2});
  const auto b = tree_over({3, 2, 1});
  const auto batch = rig.batch.run(multicast_mix({{a, 5}, {b, 5}}));
  for (const auto& op : batch.ops) {
    EXPECT_EQ(op.completions.size(), 2u);
    EXPECT_EQ(op.packets_delivered, 10);
  }
}

TEST(MultiMulticast, StaggeredStartMeasuredFromOwnStart) {
  StarRig rig;
  const auto a = tree_over({0, 1, 2});
  const Multicast delayed{tree_over({4, 5, 6}), 3, sim::Time::us(500.0)};
  const auto batch = rig.batch.run(multicast_mix({{a, 3}, delayed}));
  const auto solo = rig.engine.run(delayed.tree, 3);
  EXPECT_EQ(batch.ops[1].fct(), solo.latency);
  EXPECT_EQ(batch.makespan, sim::Time::us(500.0) + solo.latency);
}

TEST(MultiMulticast, ManyConcurrentOpsOnIrregularNetworkAllComplete) {
  sim::Rng rng{11};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const traffic::TrafficEngine engine{topology, routes, test::fifo_config()};
  std::vector<Multicast> ops;
  for (int op = 0; op < 8; ++op) {
    const auto draw = rng.sample_without_replacement(64, 9);
    std::vector<topo::HostId> hosts;
    for (auto h : draw) hosts.push_back(static_cast<topo::HostId>(h));
    ops.push_back(Multicast{tree_over(hosts), 4});
  }
  const auto batch = engine.run(multicast_mix(ops));
  ASSERT_EQ(batch.ops.size(), 8u);
  for (const auto& op : batch.ops) {
    EXPECT_EQ(op.completions.size(), 8u);
    EXPECT_GT(op.fct(), sim::Time::zero());
  }
  EXPECT_GE(batch.total_channel_block_time, sim::Time::zero());
}

TEST(MultiMulticast, ContentionSlowsOverlappingOperations) {
  // Two ops over the SAME participants launched together must each take
  // at least as long as alone.
  StarRig rig;
  const auto tree = tree_over({0, 1, 2, 3, 4});
  const auto solo = rig.engine.run(tree, 4);
  const auto other = tree_over({4, 3, 2, 1, 0});
  const auto batch = rig.batch.run(multicast_mix({{tree, 4}, {other, 4}}));
  EXPECT_GE(batch.ops[0].fct(), solo.latency);
  EXPECT_GE(batch.ops[1].fct(), solo.latency);
  EXPECT_GT(batch.ops[0].fct() + batch.ops[1].fct(), solo.latency * 2);
}

// A one-host tree has no destination: it completes at once, with no
// verdicts.
TEST(MultiMulticast, SingleHostTreeCompletesAtOnce) {
  StarRig rig;
  const auto single = rig.engine.run(tree_over({5}), 2);
  EXPECT_EQ(single.latency, sim::Time::zero());
  EXPECT_TRUE(single.destinations.empty());
  EXPECT_EQ(single.outcome, Outcome::kComplete);
}

TEST(MultiMulticast, RejectsEmptyBatchAndBadSpecs) {
  StarRig rig;
  EXPECT_THROW((void)rig.batch.run(multicast_mix({})), std::invalid_argument);
  EXPECT_THROW((void)rig.batch.run(multicast_mix({{tree_over({0, 1}), 0}})),
               std::invalid_argument);
}

// Config::shards survives only for the benchmark in perfbench/; any value
// but 1 asks for the removed sharded engine and must fail loudly instead
// of silently running serial.
TEST(MultiMulticast, EngineRejectsShardCountsOtherThanOne) {
  StarRig rig;
  for (const std::int32_t shards : {2, 4, 0, -1}) {
    MulticastEngine::Config cfg;
    cfg.shards = shards;
    try {
      const MulticastEngine engine{rig.topology, rig.routes, cfg};
      ADD_FAILURE() << "accepted shards=" << shards;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("sharded engine was removed"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(MulticastEngine(rig.topology, rig.routes,
                                  MulticastEngine::Config{}));
}

}  // namespace
}  // namespace nimcast::mcast
