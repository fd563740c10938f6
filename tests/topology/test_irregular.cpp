#include "topology/irregular.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace nimcast::topo {
namespace {

TEST(Irregular, PaperDefaultConfigIsFeasible) {
  sim::Rng rng{1};
  const Topology t = make_irregular(IrregularConfig{}, rng);
  EXPECT_EQ(t.num_switches(), 16);
  EXPECT_EQ(t.num_hosts(), 64);
  EXPECT_TRUE(t.switches().connected());
}

TEST(Irregular, PortBudgetRespected) {
  sim::Rng rng{2};
  const IrregularConfig cfg;
  const Topology t = make_irregular(cfg, rng);
  for (SwitchId s = 0; s < t.num_switches(); ++s) {
    EXPECT_LE(t.ports_used(s), cfg.ports_per_switch);
  }
}

TEST(Irregular, HostsSpreadRoundRobin) {
  sim::Rng rng{3};
  const Topology t = make_irregular(IrregularConfig{}, rng);
  for (SwitchId s = 0; s < 16; ++s) {
    EXPECT_EQ(t.hosts_of(s).size(), 4u);
  }
  EXPECT_EQ(t.switch_of(0), 0);
  EXPECT_EQ(t.switch_of(16), 0);
  EXPECT_EQ(t.switch_of(17), 1);
}

TEST(Irregular, NoParallelLinksByDefault) {
  sim::Rng rng{4};
  const Topology t = make_irregular(IrregularConfig{}, rng);
  const auto& g = t.switches();
  std::set<std::pair<SwitchId, SwitchId>> seen;
  for (LinkId e = 0; e < g.num_edges(); ++e) {
    auto a = g.edge(e).a;
    auto b = g.edge(e).b;
    if (a > b) std::swap(a, b);
    EXPECT_TRUE(seen.emplace(a, b).second) << "parallel link " << a << "-" << b;
  }
}

TEST(Irregular, DifferentSeedsGiveDifferentWirings) {
  sim::Rng r1{10};
  sim::Rng r2{11};
  const Topology a = make_irregular(IrregularConfig{}, r1);
  const Topology b = make_irregular(IrregularConfig{}, r2);
  bool differ = a.switches().num_edges() != b.switches().num_edges();
  if (!differ) {
    for (LinkId e = 0; e < a.switches().num_edges(); ++e) {
      if (a.switches().edge(e).a != b.switches().edge(e).a ||
          a.switches().edge(e).b != b.switches().edge(e).b) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(Irregular, SameSeedReproducesWiring) {
  sim::Rng r1{10};
  sim::Rng r2{10};
  const Topology a = make_irregular(IrregularConfig{}, r1);
  const Topology b = make_irregular(IrregularConfig{}, r2);
  ASSERT_EQ(a.switches().num_edges(), b.switches().num_edges());
  for (LinkId e = 0; e < a.switches().num_edges(); ++e) {
    EXPECT_EQ(a.switches().edge(e).a, b.switches().edge(e).a);
    EXPECT_EQ(a.switches().edge(e).b, b.switches().edge(e).b);
  }
}

TEST(Irregular, RejectsTooManyHostsPerSwitch) {
  IrregularConfig cfg;
  cfg.num_switches = 2;
  cfg.num_hosts = 20;  // 10 hosts per switch > 8 ports
  cfg.ports_per_switch = 8;
  sim::Rng rng{5};
  EXPECT_THROW((void)make_irregular(cfg, rng), std::invalid_argument);
}

TEST(Irregular, RejectsWhenMinSwitchLinksUnmet) {
  IrregularConfig cfg;
  cfg.num_switches = 4;
  cfg.num_hosts = 28;  // 7 hosts per switch leaves 1 spare < min 2
  cfg.ports_per_switch = 8;
  sim::Rng rng{6};
  EXPECT_THROW((void)make_irregular(cfg, rng), std::invalid_argument);
}

TEST(Irregular, SmallConfigNeedsTrunking) {
  // Two switches that must carry >= 2 inter-switch links each can only be
  // wired with parallel links (a trunk), which the generator never draws;
  // the simple-graph draw must report infeasibility rather than loop
  // forever.
  IrregularConfig cfg;
  cfg.num_switches = 2;
  cfg.num_hosts = 4;
  cfg.ports_per_switch = 4;
  sim::Rng rng{7};
  EXPECT_THROW((void)make_irregular(cfg, rng), std::runtime_error);
}

TEST(Irregular, ManySeedsAlwaysConnectedAndWithinPorts) {
  const IrregularConfig cfg;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    sim::Rng rng{seed};
    const Topology t = make_irregular(cfg, rng);
    EXPECT_TRUE(t.switches().connected()) << "seed " << seed;
    for (SwitchId s = 0; s < t.num_switches(); ++s) {
      EXPECT_LE(t.ports_used(s), cfg.ports_per_switch) << "seed " << seed;
    }
  }
}

/// FNV-1a over a wiring's edge list (in link-id order) followed by the
/// generator's next draw, so the golden pins both the fabric and how many
/// draws its rejection sampling consumed.
std::uint64_t wiring_digest(const Topology& t, sim::Rng& rng) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto& g = t.switches();
  add(static_cast<std::uint64_t>(g.num_edges()));
  for (LinkId e = 0; e < g.num_edges(); ++e) {
    add(static_cast<std::uint64_t>(g.edge(e).a));
    add(static_cast<std::uint64_t>(g.edge(e).b));
  }
  add(rng.next_u64());
  return h;
}

TEST(Irregular, WiringGoldens) {
  // Paper port budget (8-port switches, 4 hosts each) at the 32-, 64- and
  // 1024-host sizes the chaos, paper and fabric rigs use.
  const std::int32_t sizes[] = {32, 64, 1024};
  const std::uint64_t seeds[] = {1, 5, 1997};
  const std::uint64_t want[3][3] = {
      {0x07fa0e160a4f7f0f, 0xd5c7258a2977c749, 0x897846d95031a17a},
      {0x868773014caf4a2a, 0xfcdf934c24342bc5, 0x78e773a460717512},
      {0x55be5983b2870b77, 0x341a890e337e6e2e, 0xee118ff625bc3714},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    IrregularConfig cfg;
    cfg.num_hosts = sizes[i];
    cfg.num_switches = sizes[i] / 4;
    for (std::size_t j = 0; j < 3; ++j) {
      sim::Rng rng{seeds[j]};
      const Topology t = make_irregular(cfg, rng);
      const auto got = wiring_digest(t, rng);
      EXPECT_EQ(got, want[i][j]) << sizes[i] << " hosts, seed " << seeds[j];
    }
  }
}

}  // namespace
}  // namespace nimcast::topo
