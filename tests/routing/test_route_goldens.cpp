// Route goldens: an FNV-1a digest over every switch pair's route
// (switches, links, VCs) and reachability verdict, for up*/down* routing
// on irregular fabrics, fat trees and masked (faulted) subgraphs. Each
// fabric is digested straight from try_route() and through a RouteTable,
// against values recorded before the BFS and the table were rewritten
// for speed. Any change to the BFS's neighbour order or tie-breaks, or
// to how a table stores and shares routes, shows up here rather than as
// a drifted simulation result.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "routing/dimension_ordered.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "support/subgraph_mask.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"
#include "topology/kary_ncube.hpp"

namespace nimcast::routing {
namespace {

using topo::test_support::mask_for;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const SwitchRoute& r) {
    add(r.switches.size());
    for (const auto s : r.switches) add(static_cast<std::uint64_t>(s));
    add(r.links.size());
    for (const auto e : r.links) add(static_cast<std::uint64_t>(e));
    add(r.vcs.size());
    for (const auto v : r.vcs) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Every ordered switch pair, straight from the router.
std::uint64_t router_digest(const topo::Graph& g, const Router& router) {
  Fnv f;
  for (topo::SwitchId s = 0; s < g.num_vertices(); ++s) {
    for (topo::SwitchId d = 0; d < g.num_vertices(); ++d) {
      const auto r = router.try_route(s, d);
      f.add(r.has_value() ? 1u : 0u);
      if (r) f.add(*r);
    }
  }
  return f.value();
}

/// Every ordered pair of host-attached switches, through a table: each
/// switch is represented by its first host. Switches without hosts
/// (fat-tree spines) carry no host route and are skipped.
std::uint64_t table_digest(const topo::Topology& topology,
                           const RouteTable& table) {
  std::vector<topo::HostId> rep;
  for (topo::SwitchId s = 0; s < topology.num_switches(); ++s) {
    const auto hosts = topology.hosts_of(s);
    if (!hosts.empty()) rep.push_back(hosts.front());
  }
  Fnv f;
  f.add(static_cast<std::uint64_t>(table.unreachable_pairs()));
  for (const auto a : rep) {
    for (const auto b : rep) {
      const bool ok = table.reachable(a, b);
      f.add(ok ? 1u : 0u);
      if (ok) f.add(table.path(a, b));
    }
  }
  return f.value();
}

struct Golden {
  std::uint64_t router;
  std::uint64_t table;
};

/// Checks the router digest and a route table's digest.
void expect_golden(const topo::Topology& topology, const Router& router,
                   const Golden& want) {
  const auto got = router_digest(topology.switches(), router);
  EXPECT_EQ(got, want.router) << std::hex << "router 0x" << got;
  const auto table = table_digest(topology, RouteTable{topology, router});
  EXPECT_EQ(table, want.table) << std::hex << "table 0x" << table;
}

topo::Topology irregular(std::int32_t hosts, std::uint64_t seed) {
  topo::IrregularConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_switches = hosts / 4;
  sim::Rng rng{seed};
  return topo::make_irregular(cfg, rng);
}

struct IrregularCase {
  std::int32_t hosts;
  std::uint64_t seed;
  Golden want;
};

TEST(RouteGoldens, IrregularFabrics) {
  // 16, 64 and 256 switches (64, 256 and 1024 hosts).
  const IrregularCase cases[] = {
      {64, 1, {0xa21c13ab716c7d66, 0x1e9c5f5f1c0d4406}},
      {64, 7, {0xef151f627d7f00a2, 0x0d4c1d089aadd742}},
      {64, 1997, {0xc87403f582e1f6be, 0xb522f8ee969ffd5e}},
      {256, 2, {0xa409623e14796e49, 0x642e3de948e11669}},
      {256, 31, {0x4214b0c4ad92a7fd, 0x583ead36c8b4901d}},
      {1024, 3, {0x3a019471114c97e4, 0x1c164787ad8b3604}},
      {1024, 5, {0xed5137b23ff63cc0, 0x3289e64227423220}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.hosts);
    SCOPED_TRACE(c.seed);
    const auto topology = irregular(c.hosts, c.seed);
    const UpDownRouter router{topology.switches()};
    expect_golden(topology, router, c.want);
  }
}

TEST(RouteGoldens, FatTrees) {
  // 32, 64 and 1024 hosts.
  const topo::FatTreeConfig configs[] = {
      {4, 2, 8, 1},
      {8, 4, 8, 1},
      {32, 16, 32, 1},
  };
  const Golden want[] = {
      {0x30ac2341fbbbb5c4, 0xc5ca1a91753d1f05},
      {0x340526db6803b9a5, 0xf23578ddc31e1d45},
      {0x6562be16cc498ae5, 0x719abe41257da205},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const auto topology = topo::make_fat_tree(configs[i]);
    const UpDownRouter router{topology.switches(),
                              topo::fat_tree_levels(configs[i])};
    expect_golden(topology, router, want[i]);
  }
}

TEST(RouteGoldens, MaskedRouters) {
  const auto topology = irregular(256, 4);
  const auto& g = topology.switches();
  // Dead links only; a dead switch on top; and every link of switch 0
  // down, which partitions the fabric.
  topo::SubgraphMask partition = mask_for(g, {});
  for (const topo::LinkId e : g.incident(0)) {
    partition.dead_link[static_cast<std::size_t>(e)] = true;
  }
  const topo::SubgraphMask masks[] = {
      mask_for(g, {0, 5, 9, 17}),
      mask_for(g, {2, 11}, {3}),
      partition,
  };
  const Golden want[] = {
      {0x287bc7f912be9758, 0xc930c446c6cbaeb8},
      {0x034610b090d5fb86, 0xd6b96b86d9c1901b},
      {0xc9cbeace69a71de8, 0xddb85ef04c7bd8a5},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const UpDownRouter router{g, masks[i]};
    expect_golden(topology, router, want[i]);
  }
}

/// Footprint of a table after every host pair has been asked for.
std::size_t materialized_bytes(const topo::Topology& topology,
                               const Router& router) {
  const RouteTable table{topology, router};
  for (topo::HostId s = 0; s < topology.num_hosts(); ++s) {
    for (topo::HostId d = 0; d < topology.num_hosts(); ++d) {
      (void)table.path(s, d);
    }
  }
  return table.memory_bytes();
}

TEST(RouteGoldens, MaterializedTableFootprint) {
  // One route per switch pair, kept as the router built it (capacity
  // included), so the fully materialized footprint must not change. The
  // dateline torus builds its routes by push_back, so its vectors carry
  // spare capacity.
  const auto topology = irregular(64, 1);
  const UpDownRouter updown{topology.switches()};
  EXPECT_EQ(materialized_bytes(topology, updown), 24752u);
  const topo::KAryNCubeConfig torus{4, 2, true};
  const auto cube = topo::make_kary_ncube(torus);
  const DimensionOrderedRouter dor{cube.switches(), torus};
  EXPECT_EQ(materialized_bytes(cube, dor), 26176u);
}

}  // namespace
}  // namespace nimcast::routing
