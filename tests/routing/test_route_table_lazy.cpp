// RouteTable against an eager all-pairs reference built in this file
// straight from Router::try_route on each host pair's attached switches:
// every query — path shape, reachability, hop counts, disjointness, the
// unreachable-pair count — must agree on every seed topology family,
// including tables rebuilt over a faulted subgraph. This is the contract
// that lets the table route lazily, one route per switch pair, without
// perturbing a single measurement.

#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "routing/dimension_ordered.hpp"
#include "routing/repair.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "support/subgraph_mask.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"
#include "topology/kary_ncube.hpp"

namespace nimcast::routing {
namespace {

/// What the table must answer for every host pair, asked of the router
/// once per pair.
struct Reference {
  std::int32_t hosts = 0;
  std::int32_t vcs = 1;
  std::vector<std::optional<SwitchRoute>> routes;  ///< hosts², row-major
  std::int64_t unreachable_pairs = 0;

  Reference(const topo::Topology& topology, const Router& router)
      : hosts{topology.num_hosts()}, vcs{router.virtual_channels()} {
    for (topo::HostId s = 0; s < hosts; ++s) {
      for (topo::HostId d = 0; d < hosts; ++d) {
        routes.push_back(
            router.try_route(topology.switch_of(s), topology.switch_of(d)));
        if (!routes.back()) ++unreachable_pairs;
      }
    }
  }

  [[nodiscard]] const std::optional<SwitchRoute>& at(topo::HostId s,
                                                     topo::HostId d) const {
    const auto row = static_cast<std::size_t>(s);
    return routes[row * static_cast<std::size_t>(hosts) +
                  static_cast<std::size_t>(d)];
  }

  [[nodiscard]] bool disjoint(const topo::Graph& g, topo::HostId a,
                              topo::HostId b, topo::HostId c,
                              topo::HostId d) const {
    const auto ch1 = route_channels(g, *at(a, b), vcs);
    const auto ch2 = route_channels(g, *at(c, d), vcs);
    return std::none_of(ch1.begin(), ch1.end(), [&](std::int32_t x) {
      return std::find(ch2.begin(), ch2.end(), x) != ch2.end();
    });
  }
};

/// Exhaustive all-pairs comparison plus a strided disjointness sample.
void expect_matches(const topo::Topology& topology, const Reference& want,
                    const RouteTable& table) {
  ASSERT_EQ(table.num_hosts(), want.hosts);
  EXPECT_EQ(table.virtual_channels(), want.vcs);
  EXPECT_EQ(table.unreachable_pairs(), want.unreachable_pairs);
  EXPECT_EQ(table.fully_connected(), want.unreachable_pairs == 0);
  const std::int32_t hosts = want.hosts;
  for (topo::HostId s = 0; s < hosts; ++s) {
    for (topo::HostId d = 0; d < hosts; ++d) {
      const auto& route = want.at(s, d);
      ASSERT_EQ(table.reachable(s, d), route.has_value())
          << "pair " << s << "->" << d;
      if (!route) continue;
      const SwitchRoute& got = table.path(s, d);
      ASSERT_EQ(got.switches, route->switches) << "pair " << s << "->" << d;
      ASSERT_EQ(got.links, route->links) << "pair " << s << "->" << d;
      ASSERT_EQ(got.vcs, route->vcs) << "pair " << s << "->" << d;
      ASSERT_EQ(table.hops(s, d), route->hops());
    }
  }
  const auto& g = topology.switches();
  for (topo::HostId x = 0; x < hosts; x += 13) {
    for (topo::HostId y = 1; y < hosts; y += 11) {
      for (topo::HostId u = 2; u < hosts; u += 7) {
        for (topo::HostId v = 3; v < hosts; v += 5) {
          if (x == y || u == v) continue;
          if (!want.at(x, y) || !want.at(u, v)) continue;
          EXPECT_EQ(table.disjoint(g, x, y, u, v),
                    want.disjoint(g, x, y, u, v));
        }
      }
    }
  }
}

topo::Topology irregular(std::uint64_t seed) {
  sim::Rng rng{seed};
  return topo::make_irregular(topo::IrregularConfig{}, rng);
}

TEST(RouteTableLazy, MatchesEagerOnIrregularSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const topo::Topology topology = irregular(seed);
    const UpDownRouter router{topology.switches()};
    const RouteTable table{topology, router};
    expect_matches(topology, Reference{topology, router}, table);
  }
}

TEST(RouteTableLazy, MatchesEagerOnFatTree) {
  const topo::FatTreeConfig cfg;
  const topo::Topology topology = topo::make_fat_tree(cfg);
  const UpDownRouter router{topology.switches(), topo::fat_tree_levels(cfg)};
  const RouteTable table{topology, router};
  expect_matches(topology, Reference{topology, router}, table);
}

TEST(RouteTableLazy, MatchesEagerOnMeshTorusHypercube) {
  const topo::KAryNCubeConfig mesh{4, 2, false};
  const topo::KAryNCubeConfig torus{4, 2, true};
  const topo::KAryNCubeConfig hypercube{2, 6, false};
  for (const auto& cfg : {mesh, torus, hypercube}) {
    const topo::Topology topology = topo::make_kary_ncube(cfg);
    const DimensionOrderedRouter router{topology.switches(), cfg};
    const RouteTable table{topology, router};
    // Dateline tori route on two VCs; the table must carry the per-hop
    // VC assignments through unchanged.
    EXPECT_EQ(table.virtual_channels(), cfg.wraparound ? 2 : 1);
    expect_matches(topology, Reference{topology, router}, table);
  }
}

using topo::test_support::mask_for;

TEST(RouteTableLazy, MatchesEagerOnFaultedIrregular) {
  const topo::Topology topology = irregular(1);
  const auto& g = topology.switches();
  const UpDownRouter router{g, mask_for(g, {0, 5}, {3})};
  const RouteTable table{topology, router, /*epoch=*/2};
  const Reference want{topology, router};
  // A dead switch orphans its hosts, so both sides must agree there are
  // unreachable pairs, not just on which ones.
  EXPECT_GT(want.unreachable_pairs, 0);
  EXPECT_FALSE(table.fully_connected());
  EXPECT_EQ(table.epoch(), 2);
  expect_matches(topology, want, table);
}

TEST(RouteTableLazy, MatchesEagerOnPartitionedFabric) {
  // Square of switches; killing links 0 and 3 isolates switch 0 — the
  // partitioned case where component ids do real work.
  const topo::Topology topology{
      topo::Graph{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}}, {0, 1, 2, 3},
      "square"};
  const auto& g = topology.switches();
  const UpDownRouter router{g, mask_for(g, {0, 3})};
  const RouteTable table{topology, router, /*epoch=*/1};
  EXPECT_EQ(table.unreachable_pairs(), 6);
  expect_matches(topology, Reference{topology, router}, table);
  // Isolated-but-alive hosts still reach themselves (singleton component).
  EXPECT_TRUE(table.reachable(0, 0));
}

TEST(RouteTableLazy, RepairRebuildMatchesEagerMaskedBuild) {
  // The fault-hook path: rebuild_updown builds a table over the
  // surviving subgraph; it must answer what a router over the identical
  // mask does.
  const topo::Topology topology = irregular(2);
  const auto& g = topology.switches();
  const auto mask = mask_for(g, {1, 4});
  const auto rebuilt = rebuild_updown(topology, mask, /*epoch=*/3);
  EXPECT_EQ(rebuilt->epoch(), 3);
  const UpDownRouter masked{g, mask};
  expect_matches(topology, Reference{topology, masked}, *rebuilt);
}

TEST(RouteTableLazy, MaterializationIsLazyAndSharedPerSwitchPair) {
  const topo::Topology topology = irregular(3);
  const UpDownRouter router{topology.switches()};
  const RouteTable table{topology, router};
  EXPECT_EQ(table.routes_materialized(), 0u);
  (void)table.path(0, 1);
  const std::size_t after_first = table.routes_materialized();
  EXPECT_EQ(after_first, 1u);
  // Same switch pair (round-robin attachment: hosts 0/16 and 1/17 share
  // switches) must not add slots.
  (void)table.path(16, 17);
  EXPECT_EQ(table.routes_materialized(), after_first);
  // Touching every pair costs one route per switch pair, and more bytes.
  const RouteTable full{topology, router};
  for (topo::HostId s = 0; s < topology.num_hosts(); ++s) {
    for (topo::HostId d = 0; d < topology.num_hosts(); ++d) {
      (void)full.path(s, d);
    }
  }
  const auto switches = static_cast<std::size_t>(topology.num_switches());
  EXPECT_EQ(full.routes_materialized(), switches * switches);
  EXPECT_LT(table.memory_bytes(), full.memory_bytes());
}

TEST(RouteTableLazy, OwningConstructorKeepsRouterAlive) {
  const topo::Topology topology = irregular(2);
  std::unique_ptr<RouteTable> table;
  {
    auto router = std::make_shared<const UpDownRouter>(topology.switches());
    table = std::make_unique<RouteTable>(topology, router);
  }  // local shared_ptr gone; the table's copy must keep routing
  const UpDownRouter fresh{topology.switches()};
  expect_matches(topology, Reference{topology, fresh}, *table);
}

TEST(RouteTableLazy, ConcurrentFirstTouchMatchesSerial) {
  // Testbed tables are shared by worker threads, so first touches of one
  // switch pair race. Every thread walks all host pairs in its own
  // shuffled order; each pair must come out as one shared route equal to
  // the serially filled table's, materialized exactly once.
  topo::IrregularConfig cfg;
  cfg.num_hosts = 256;
  cfg.num_switches = 64;
  sim::Rng topo_rng{9};
  const topo::Topology topology = topo::make_irregular(cfg, topo_rng);
  const UpDownRouter router{topology.switches()};
  const RouteTable serial{topology, router};
  const RouteTable shared{topology, router};
  const auto hosts = static_cast<std::size_t>(topology.num_hosts());
  const std::size_t pairs = hosts * hosts;
  constexpr int kThreads = 8;
  std::vector<std::vector<const SwitchRoute*>> seen(
      kThreads, std::vector<const SwitchRoute*>(pairs, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(pairs);
      for (std::size_t i = 0; i < pairs; ++i) order[i] = i;
      sim::Rng rng{static_cast<std::uint64_t>(t) + 1};
      rng.shuffle(order);
      for (const std::size_t k : order) {
        const auto s = static_cast<topo::HostId>(k / hosts);
        const auto d = static_cast<topo::HostId>(k % hosts);
        seen[static_cast<std::size_t>(t)][k] = &shared.path(s, d);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto switches = static_cast<std::size_t>(topology.num_switches());
  EXPECT_EQ(shared.routes_materialized(), switches * switches);
  for (std::size_t k = 0; k < pairs; ++k) {
    const auto s = static_cast<topo::HostId>(k / hosts);
    const auto d = static_cast<topo::HostId>(k % hosts);
    const SwitchRoute& want = serial.path(s, d);
    for (int t = 0; t < kThreads; ++t) {
      const SwitchRoute* got = seen[static_cast<std::size_t>(t)][k];
      ASSERT_EQ(got, seen[0][k]) << "pair " << s << "->" << d;
      ASSERT_EQ(got->switches, want.switches) << "pair " << s << "->" << d;
      ASSERT_EQ(got->links, want.links) << "pair " << s << "->" << d;
      ASSERT_EQ(got->vcs, want.vcs) << "pair " << s << "->" << d;
    }
  }
  expect_matches(topology, Reference{topology, router}, shared);
}

}  // namespace
}  // namespace nimcast::routing
