// Discipline-order tests: drive whole multicasts through the engine on a
// single-switch topology and read the per-NI send sequences out of the
// trace. FCFS and FPFS are *defined* by these orders (paper Figs. 6, 7).

#include <gtest/gtest.h>

#include <cstdio>

#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/trace.hpp"

namespace nimcast::netif {
namespace {

struct SendRecord {
  std::int32_t pkt;
  topo::HostId dest;
  bool operator==(const SendRecord&) const = default;
};

struct Rig {
  topo::Topology topology{topo::Graph{1, {}}, {0, 0, 0, 0, 0, 0}, "star"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  sim::Trace trace;

  Rig() { trace.enable(); }

  mcast::MulticastResult run(const core::HostTree& tree, std::int32_t m,
                             mcast::NiStyle style) {
    mcast::MulticastEngine engine{
        topology, routes,
        mcast::MulticastEngine::Config{SystemParams{}, net::NetworkConfig{},
                                       style},
        &trace};
    return engine.run(tree, m);
  }

  /// Send order of one NI, parsed from its trace lines.
  std::vector<SendRecord> sends_of(topo::HostId host) const {
    std::vector<SendRecord> out;
    for (const auto& r : trace.filter(sim::TraceCategory::kNi)) {
      if (r.entity != host) continue;
      int pkt = -1;
      int dest = -1;
      if (std::sscanf(r.message.c_str(), "sent msg=%*d pkt=%d -> host %d",
                      &pkt, &dest) == 2) {
        out.push_back(SendRecord{pkt, dest});
      }
    }
    return out;
  }
};

/// source 0 -> intermediate 1 -> leaves {2, 3}.
core::HostTree chain_fanout_tree() {
  const core::HostTree t{{0, 1, 2, 3}, {{1}, {2, 3}, {}, {}}};
  return t;
}

/// source 0 -> children {1, 2} directly.
core::HostTree flat_tree() {
  const core::HostTree t{{0, 1, 2}, {{1, 2}, {}, {}}};
  return t;
}

TEST(Disciplines, FpfsSourceIsPacketMajor) {
  Rig rig;
  (void)rig.run(flat_tree(), 2, mcast::NiStyle::kSmartFpfs);
  EXPECT_EQ(rig.sends_of(0),
            (std::vector<SendRecord>{{0, 1}, {0, 2}, {1, 1}, {1, 2}}));
}

TEST(Disciplines, FcfsSourceIsChildMajor) {
  Rig rig;
  (void)rig.run(flat_tree(), 2, mcast::NiStyle::kSmartFcfs);
  EXPECT_EQ(rig.sends_of(0),
            (std::vector<SendRecord>{{0, 1}, {1, 1}, {0, 2}, {1, 2}}));
}

TEST(Disciplines, FpfsIntermediateForwardsEachPacketToAllChildren) {
  Rig rig;
  (void)rig.run(chain_fanout_tree(), 2, mcast::NiStyle::kSmartFpfs);
  EXPECT_EQ(rig.sends_of(1),
            (std::vector<SendRecord>{{0, 2}, {0, 3}, {1, 2}, {1, 3}}));
}

TEST(Disciplines, FcfsIntermediateStreamsFirstChildThenBatchesRest) {
  Rig rig;
  (void)rig.run(chain_fanout_tree(), 3, mcast::NiStyle::kSmartFcfs);
  EXPECT_EQ(rig.sends_of(1),
            (std::vector<SendRecord>{
                {0, 2}, {1, 2}, {2, 2}, {0, 3}, {1, 3}, {2, 3}}));
}

TEST(Disciplines, LeavesForwardNothing) {
  Rig rig;
  (void)rig.run(chain_fanout_tree(), 2, mcast::NiStyle::kSmartFpfs);
  EXPECT_TRUE(rig.sends_of(2).empty());
  EXPECT_TRUE(rig.sends_of(3).empty());
}

TEST(Disciplines, EveryDestinationCompletesOnce) {
  for (auto style : {mcast::NiStyle::kSmartFpfs, mcast::NiStyle::kSmartFcfs,
                     mcast::NiStyle::kConventional}) {
    Rig rig;
    const auto result = rig.run(chain_fanout_tree(), 4, style);
    EXPECT_EQ(result.completions.size(), 3u) << mcast::to_string(style);
    EXPECT_EQ(result.packets_delivered, 4 * 3) << mcast::to_string(style);
  }
}

TEST(Disciplines, HostCompletionLagsNiCompletionByTr) {
  Rig rig;
  const auto result = rig.run(flat_tree(), 2, mcast::NiStyle::kSmartFpfs);
  EXPECT_EQ(result.latency, result.ni_latency + SystemParams{}.t_r);
}

TEST(Disciplines, SingleDestinationDegenerateTree) {
  Rig rig;
  const core::HostTree t{{0, 1}, {{1}, {}}};
  const auto result = rig.run(t, 1, mcast::NiStyle::kSmartFpfs);
  // t_s + t_snd + network(0 hops) + t_rcv + t_r
  const SystemParams p;
  const auto expected = p.t_s + p.t_snd + sim::Time::us(0.6) + p.t_rcv + p.t_r;
  EXPECT_EQ(result.latency, expected);
}

TEST(Disciplines, FcfsBuffersWholeMessageAtIntermediate) {
  Rig rig;
  const auto result = rig.run(chain_fanout_tree(), 4,
                              mcast::NiStyle::kSmartFcfs);
  // Intermediate host 1 must hold all 4 packets at once (they can only
  // leave after the last copy to the last child).
  double peak1 = -1;
  for (const auto& b : result.buffers) {
    if (b.host == 1) peak1 = b.peak_packets;
  }
  EXPECT_EQ(peak1, 4.0);
}

TEST(Disciplines, FpfsBuffersLessThanFcfsAtIntermediate) {
  Rig fp;
  Rig fc;
  const auto rf = fp.run(chain_fanout_tree(), 6, mcast::NiStyle::kSmartFpfs);
  const auto rc = fc.run(chain_fanout_tree(), 6, mcast::NiStyle::kSmartFcfs);
  double fpfs_int = -1;
  double fcfs_int = -1;
  for (const auto& b : rf.buffers) {
    if (b.host == 1) fpfs_int = b.packet_us_integral;
  }
  for (const auto& b : rc.buffers) {
    if (b.host == 1) fcfs_int = b.packet_us_integral;
  }
  EXPECT_LT(fpfs_int, fcfs_int);
}

TEST(Disciplines, ConventionalSlowerThanSmartOnForwardingTree) {
  Rig conv;
  Rig smart;
  const auto rc = conv.run(chain_fanout_tree(), 4,
                           mcast::NiStyle::kConventional);
  const auto rs = smart.run(chain_fanout_tree(), 4,
                            mcast::NiStyle::kSmartFpfs);
  // The conventional path pays t_r + t_s at the intermediate host again.
  EXPECT_GT(rc.latency, rs.latency + SystemParams{}.t_r);
}

TEST(Disciplines, SmartStylesTieOnSingleChildChain) {
  // With one child per node the two disciplines degenerate to the same
  // schedule.
  const core::HostTree t{{0, 1, 2}, {{1}, {2}, {}}};
  Rig a;
  Rig b;
  const auto ra = a.run(t, 5, mcast::NiStyle::kSmartFpfs);
  const auto rb = b.run(t, 5, mcast::NiStyle::kSmartFcfs);
  EXPECT_EQ(ra.latency, rb.latency);
}

}  // namespace
}  // namespace nimcast::netif
