#include "core/dot_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/kbinomial.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"

namespace nimcast::core {
namespace {

TEST(DotExport, RankTreeHasEdgesAndStepLabels) {
  const auto dot = to_dot(make_binomial(4));  // 0 -> (2 -> (3), 1)
  EXPECT_NE(dot.find("digraph ranktree"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 2 [label=\"[1]\"]"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1 [label=\"[2]\"]"), std::string::npos);
  EXPECT_NE(dot.find("2 -> 3 [label=\"[2]\"]"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST(DotExport, HostTreeUsesHostIdsAndSendOrder) {
  const HostTree ht = HostTree::bind(make_binomial(4), {10, 20, 30, 40});
  const auto dot = to_dot(ht);
  EXPECT_NE(dot.find("h10 [shape=doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("h10 -> h30 [label=\"1\"]"), std::string::npos);
  EXPECT_NE(dot.find("h10 -> h20 [label=\"2\"]"), std::string::npos);
  EXPECT_NE(dot.find("h30 -> h40"), std::string::npos);
}

TEST(DotExport, TopologyHasSwitchesHostsAndLinks) {
  sim::Rng rng{1};
  topo::IrregularConfig cfg;
  cfg.num_switches = 4;
  cfg.num_hosts = 8;
  cfg.ports_per_switch = 5;  // 3 spare ports each: the simple graph K4
  const auto topology = topo::make_irregular(cfg, rng);
  const auto dot = to_dot(topology);
  EXPECT_NE(dot.find("graph system"), std::string::npos);
  EXPECT_NE(dot.find("s0 [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("h7"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);
  // Every switch-switch link appears as an undirected edge.
  for (topo::LinkId e = 0; e < topology.switches().num_edges(); ++e) {
    const auto& edge = topology.switches().edge(e);
    std::string expect = "s";
    expect += std::to_string(edge.a);
    expect += " -- s";
    expect += std::to_string(edge.b);
    expect += ";";
    EXPECT_NE(dot.find(expect), std::string::npos) << expect;
  }
}

TEST(DotExport, WriteDotRoundTrips) {
  const std::string path = "/tmp/nimcast_dot_test.dot";
  write_dot(to_dot(make_linear(3)), path);
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string all{std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>()};
  EXPECT_NE(all.find("0 -> 1"), std::string::npos);
  EXPECT_NE(all.find("1 -> 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DotExport, WriteDotBadPathThrows) {
  EXPECT_THROW(write_dot("digraph {}", "/nonexistent/x.dot"),
               std::runtime_error);
}

}  // namespace
}  // namespace nimcast::core
