// Bit-identity of the compressed (lazy) RouteTable against the eager
// all-pairs build: every query — path shape, reachability, hop counts,
// disjointness — must agree on every seed topology family, including
// tables rebuilt over a faulted subgraph. This is the contract that lets
// the testbed harness and the fault-repair path use compressed storage
// without perturbing a single measurement.

#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include <memory>
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

/// Exhaustive all-pairs comparison plus a strided disjointness sample.
void expect_equivalent(const topo::Topology& topology, const RouteTable& a,
                       const RouteTable& b) {
  ASSERT_EQ(a.num_hosts(), b.num_hosts());
  EXPECT_EQ(a.virtual_channels(), b.virtual_channels());
  EXPECT_EQ(a.unreachable_pairs(), b.unreachable_pairs());
  EXPECT_EQ(a.fully_connected(), b.fully_connected());
  const std::int32_t hosts = a.num_hosts();
  for (topo::HostId s = 0; s < hosts; ++s) {
    for (topo::HostId d = 0; d < hosts; ++d) {
      ASSERT_EQ(a.reachable(s, d), b.reachable(s, d))
          << "pair " << s << "->" << d;
      if (!a.reachable(s, d)) continue;
      const SwitchRoute& pa = a.path(s, d);
      const SwitchRoute& pb = b.path(s, d);
      ASSERT_EQ(pa.switches, pb.switches) << "pair " << s << "->" << d;
      ASSERT_EQ(pa.links, pb.links) << "pair " << s << "->" << d;
      ASSERT_EQ(pa.vcs, pb.vcs) << "pair " << s << "->" << d;
      ASSERT_EQ(a.hops(s, d), b.hops(s, d));
    }
  }
  const auto& g = topology.switches();
  for (topo::HostId x = 0; x < hosts; x += 13) {
    for (topo::HostId y = 1; y < hosts; y += 11) {
      for (topo::HostId u = 2; u < hosts; u += 7) {
        for (topo::HostId v = 3; v < hosts; v += 5) {
          if (x == y || u == v) continue;
          if (!a.reachable(x, y) || !a.reachable(u, v)) continue;
          EXPECT_EQ(a.disjoint(g, x, y, u, v), b.disjoint(g, x, y, u, v));
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
    const RouteTable eager{topology, router};
    const RouteTable lazy{topology, router, /*epoch=*/0,
                          RouteStorage::kCompressed};
    EXPECT_EQ(eager.storage(), RouteStorage::kEager);
    EXPECT_EQ(lazy.storage(), RouteStorage::kCompressed);
    expect_equivalent(topology, eager, lazy);
  }
}

TEST(RouteTableLazy, MatchesEagerOnFatTree) {
  const topo::FatTreeConfig cfg;
  const topo::Topology topology = topo::make_fat_tree(cfg);
  const UpDownRouter router{topology.switches(), topo::fat_tree_levels(cfg)};
  const RouteTable eager{topology, router};
  const RouteTable lazy{topology, router, /*epoch=*/0,
                        RouteStorage::kCompressed};
  expect_equivalent(topology, eager, lazy);
}

TEST(RouteTableLazy, MatchesEagerOnMeshTorusHypercube) {
  const topo::KAryNCubeConfig mesh{4, 2, false};
  const topo::KAryNCubeConfig torus{4, 2, true};
  const topo::KAryNCubeConfig hypercube{2, 6, false};
  for (const auto& cfg : {mesh, torus, hypercube}) {
    const topo::Topology topology = topo::make_kary_ncube(cfg);
    const DimensionOrderedRouter router{topology.switches(), cfg};
    const RouteTable eager{topology, router};
    const RouteTable lazy{topology, router, /*epoch=*/0,
                          RouteStorage::kCompressed};
    // Dateline tori route on two VCs; the compressed path must carry the
    // per-hop VC assignments through unchanged.
    EXPECT_EQ(lazy.virtual_channels(), cfg.wraparound ? 2 : 1);
    expect_equivalent(topology, eager, lazy);
  }
}

using topo::test_support::mask_for;

TEST(RouteTableLazy, MatchesEagerOnFaultedIrregular) {
  const topo::Topology topology = irregular(1);
  const auto& g = topology.switches();
  const UpDownRouter router{g, mask_for(g, {0, 5}, {3})};
  const RouteTable eager{topology, router, /*epoch=*/2};
  const RouteTable lazy{topology, router, /*epoch=*/2,
                        RouteStorage::kCompressed};
  // A dead switch orphans its hosts, so both sides must agree there are
  // unreachable pairs, not just on which ones.
  EXPECT_FALSE(eager.fully_connected());
  expect_equivalent(topology, eager, lazy);
}

TEST(RouteTableLazy, MatchesEagerOnPartitionedFabric) {
  // Square of switches; killing links 0 and 3 isolates switch 0 — the
  // partitioned case where component ids do real work.
  const topo::Topology topology{
      topo::Graph{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}}, {0, 1, 2, 3},
      "square"};
  const auto& g = topology.switches();
  const UpDownRouter router{g, mask_for(g, {0, 3})};
  const RouteTable eager{topology, router, /*epoch=*/1};
  const RouteTable lazy{topology, router, /*epoch=*/1,
                        RouteStorage::kCompressed};
  EXPECT_EQ(eager.unreachable_pairs(), 6);
  expect_equivalent(topology, eager, lazy);
  // Isolated-but-alive hosts still reach themselves (singleton component).
  EXPECT_TRUE(lazy.reachable(0, 0));
}

TEST(RouteTableLazy, RepairRebuildMatchesEagerMaskedBuild) {
  // The fault-hook path: rebuild_updown produces a compressed table over
  // the surviving subgraph; it must agree with an eager table built from
  // an identical masked router.
  const topo::Topology topology = irregular(2);
  const auto& g = topology.switches();
  const auto mask = mask_for(g, {1, 4});
  const auto rebuilt = rebuild_updown(topology, mask, /*epoch=*/3);
  EXPECT_EQ(rebuilt->storage(), RouteStorage::kCompressed);
  EXPECT_EQ(rebuilt->epoch(), 3);
  const UpDownRouter masked{g, mask};
  const RouteTable eager{topology, masked, /*epoch=*/3};
  expect_equivalent(topology, eager, *rebuilt);
}

TEST(RouteTableLazy, MaterializationIsLazyAndSharedPerSwitchPair) {
  const topo::Topology topology = irregular(3);
  const UpDownRouter router{topology.switches()};
  const RouteTable lazy{topology, router, /*epoch=*/0,
                        RouteStorage::kCompressed};
  EXPECT_EQ(lazy.routes_materialized(), 0u);
  (void)lazy.path(0, 1);
  const std::size_t after_first = lazy.routes_materialized();
  EXPECT_GE(after_first, 1u);
  // Same switch pair (round-robin attachment: hosts 0/16 and 1/17 share
  // switches) must not add slots.
  (void)lazy.path(16, 17);
  EXPECT_EQ(lazy.routes_materialized(), after_first);
  const RouteTable eager{topology, router};
  EXPECT_LT(lazy.memory_bytes(), eager.memory_bytes());
}

TEST(RouteTableLazy, InvalidateCacheRematerializesIdentically) {
  const topo::Topology topology = irregular(1);
  const UpDownRouter router{topology.switches()};
  const RouteTable eager{topology, router};
  RouteTable lazy{topology, router, /*epoch=*/0, RouteStorage::kCompressed};
  const auto before = lazy.path(0, 63);
  lazy.invalidate_cache();
  EXPECT_EQ(lazy.routes_materialized(), 0u);
  EXPECT_EQ(lazy.path(0, 63).switches, before.switches);
  expect_equivalent(topology, eager, lazy);
}

TEST(RouteTableLazy, OwningConstructorKeepsRouterAlive) {
  const topo::Topology topology = irregular(2);
  std::unique_ptr<RouteTable> lazy;
  {
    auto router =
        std::make_shared<const UpDownRouter>(topology.switches());
    lazy = std::make_unique<RouteTable>(topology, router);
  }  // local shared_ptr gone; the table's copy must keep routing
  const UpDownRouter fresh{topology.switches()};
  const RouteTable eager{topology, fresh};
  expect_equivalent(topology, eager, *lazy);
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
  const RouteTable serial{topology, router, /*epoch=*/0,
                          RouteStorage::kCompressed};
  const RouteTable shared{topology, router, /*epoch=*/0,
                          RouteStorage::kCompressed};
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
  expect_equivalent(topology, serial, shared);
}

}  // namespace
}  // namespace nimcast::routing
