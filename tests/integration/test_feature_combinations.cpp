// Cross-feature integration: combinations of the newer substrates
// (reliability, multipath, virtual channels, fat-trees, multi-engine
// NIs) running through the standard engines together.

#include <gtest/gtest.h>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/dimension_ordered.hpp"
#include "routing/multipath_up_down.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "support/multicast_mix.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"

namespace nimcast {
namespace {

core::HostTree tree_on(const core::Chain& chain, std::int32_t n,
                       std::int32_t k) {
  std::vector<topo::HostId> dests{chain.begin() + 1, chain.begin() + n};
  const auto members = core::arrange_participants(chain, chain[0], dests);
  return core::HostTree::bind(core::make_kbinomial(n, k), members);
}

TEST(FeatureCombos, ReliableMulticastOnIrregularNetworkUnderLoss) {
  sim::Rng rng{5};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  net::NetworkConfig lossy;
  lossy.loss_rate = 0.15;
  const mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{}, lossy,
                                     mcast::NiStyle::kReliableFpfs}};
  const auto result = engine.run(tree_on(chain, 20, 2), 6);
  EXPECT_EQ(result.completions.size(), 19u);
}

TEST(FeatureCombos, ConcurrentReliableMulticasts) {
  sim::Rng rng{6};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  traffic::TrafficConfig lossy =
      test::fifo_config(mcast::NiStyle::kReliableFpfs);
  lossy.network.loss_rate = 0.1;
  const traffic::TrafficEngine engine{topology, routes, lossy};
  // Two overlapping operations over distinct participant sets.
  core::Chain rev{chain.rbegin(), chain.rend()};
  const auto batch = engine.run(test::multicast_mix(
      {{tree_on(chain, 10, 2), 4}, {tree_on(rev, 10, 2), 4}}));
  EXPECT_EQ(batch.ops[0].completions.size(), 9u);
  EXPECT_EQ(batch.ops[1].completions.size(), 9u);
}

TEST(FeatureCombos, MultipathRoutesDriveTheEngine) {
  const topo::FatTreeConfig cfg;
  const auto topology = topo::make_fat_tree(cfg);
  const routing::MultipathUpDownRouter router{topology.switches(),
                                              topo::fat_tree_levels(cfg)};
  const routing::RouteTable routes{topology, router};
  const routing::UpDownRouter plain{topology.switches(),
                                    topo::fat_tree_levels(cfg)};
  const auto chain = core::cco_ordering(topology, plain);
  const mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
  const auto result = engine.run(tree_on(chain, 32, 3), 8);
  EXPECT_EQ(result.completions.size(), 31u);
}

TEST(FeatureCombos, MultiEngineNiSpeedsUpMulticast) {
  sim::Rng rng{7};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  const auto tree = tree_on(chain, 32, 3);

  netif::SystemParams single;
  netif::SystemParams quad;
  quad.ni_engines = 4;
  const mcast::MulticastEngine e1{
      topology, routes,
      mcast::MulticastEngine::Config{single, net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
  const mcast::MulticastEngine e4{
      topology, routes,
      mcast::MulticastEngine::Config{quad, net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
  const auto r1 = e1.run(tree, 16);
  const auto r4 = e4.run(tree, 16);
  EXPECT_LT(r4.latency, r1.latency);
  EXPECT_EQ(r4.completions.size(), 31u);
}

TEST(FeatureCombos, PipelinedReleaseWithVirtualChannelsOnTorus) {
  const topo::KAryNCubeConfig cfg{4, 2, true};
  const auto torus = topo::make_kary_ncube(cfg);
  const routing::DimensionOrderedRouter router{torus.switches(), cfg};
  const routing::RouteTable routes{torus, router};
  net::NetworkConfig netcfg;
  netcfg.release_model = net::ReleaseModel::kPipelined;
  const mcast::MulticastEngine engine{
      torus, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{}, netcfg,
                                     mcast::NiStyle::kSmartFpfs}};
  const auto chain = core::dimension_chain(torus);
  const auto result = engine.run(tree_on(chain, 16, 2), 8);
  EXPECT_EQ(result.completions.size(), 15u);
}

TEST(FeatureCombos, ReliableOverLossyTorusWithVcs) {
  const topo::KAryNCubeConfig cfg{4, 2, true};
  const auto torus = topo::make_kary_ncube(cfg);
  const routing::DimensionOrderedRouter router{torus.switches(), cfg};
  const routing::RouteTable routes{torus, router};
  net::NetworkConfig lossy;
  lossy.loss_rate = 0.2;
  const mcast::MulticastEngine engine{
      torus, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{}, lossy,
                                     mcast::NiStyle::kReliableFpfs}};
  const auto chain = core::dimension_chain(torus);
  const auto result = engine.run(tree_on(chain, 12, 2), 4);
  EXPECT_EQ(result.completions.size(), 11u);
}

}  // namespace
}  // namespace nimcast
