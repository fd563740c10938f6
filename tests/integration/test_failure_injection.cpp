// Failure-injection tests: drive the system into states that must be
// *detected*, not silently mis-simulated — routing deadlock, missing
// forwarding state, malformed trees.

#include <gtest/gtest.h>

#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "netif/smart_ni.hpp"
#include "network/wormhole_network.hpp"
#include "routing/up_down.hpp"
#include "support/callback_sink.hpp"

namespace nimcast {
namespace {

/// Cyclic router on a triangle: every message takes the long way round
/// clockwise, building the classic circular channel dependency.
class ClockwiseRouter final : public routing::Router {
 public:
  explicit ClockwiseRouter(const topo::Graph& g) : g_{g} {}
  [[nodiscard]] routing::SwitchRoute route(
      topo::SwitchId src, topo::SwitchId dst) const override {
    routing::SwitchRoute r;
    r.switches.push_back(src);
    topo::SwitchId cur = src;
    while (cur != dst) {
      const topo::SwitchId next = (cur + 1) % 3;
      for (topo::LinkId e = 0; e < g_.num_edges(); ++e) {
        if ((g_.edge(e).a == cur && g_.edge(e).b == next) ||
            (g_.edge(e).b == cur && g_.edge(e).a == next)) {
          r.links.push_back(e);
          break;
        }
      }
      r.switches.push_back(next);
      cur = next;
    }
    return r;
  }
  [[nodiscard]] const char* name() const override { return "clockwise"; }

 private:
  const topo::Graph& g_;
};

TEST(FailureInjection, CircularWaitDeadlocksAndIsObservable) {
  // Three simultaneous two-hop worms chasing each other around a
  // triangle: each holds its first channel and waits forever for the
  // next. The simulator drains; the network reports worms in flight.
  topo::Topology topology{topo::Graph{3, {{0, 1}, {1, 2}, {2, 0}}},
                          {0, 1, 2},
                          "triangle"};
  const ClockwiseRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  // Sanity: the checker already predicts this.
  EXPECT_FALSE(routing::deadlock_free(topology.switches(), router));

  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology, routes,
                               net::NetworkConfig{}};
  int delivered = 0;
  net::test_support::CallbackSink sink{
      [&](const net::Packet&) { ++delivered; }};
  net::test_support::bind_all_hosts(network, 3, &sink);
  for (topo::HostId h = 0; h < 3; ++h) {
    net::Packet p;
    p.message = 1;
    p.sender = h;
    p.dest = (h + 2) % 3;  // two clockwise hops away
    network.send(p);
  }
  simctx.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.in_flight(), 3);
}

TEST(FailureInjection, UpDownNeverDeadlocksOnTheSameWorkload) {
  topo::Topology topology{topo::Graph{3, {{0, 1}, {1, 2}, {2, 0}}},
                          {0, 1, 2},
                          "triangle"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology, routes,
                               net::NetworkConfig{}};
  int delivered = 0;
  net::test_support::CallbackSink sink{
      [&](const net::Packet&) { ++delivered; }};
  net::test_support::bind_all_hosts(network, 3, &sink);
  for (topo::HostId h = 0; h < 3; ++h) {
    net::Packet p;
    p.message = 1;
    p.sender = h;
    p.dest = (h + 2) % 3;
    network.send(p);
  }
  simctx.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(network.in_flight(), 0);
}

struct EngineRig {
  topo::Topology topology{topo::Graph{1, {}}, {0, 0, 0, 0}, "star"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
};

TEST(FailureInjection, EngineRejectsForeignHosts) {
  EngineRig rig;
  const core::HostTree t{{0, 99}, {{99}, {}}};
  EXPECT_THROW((void)rig.engine.run(t, 1), std::invalid_argument);
}

TEST(FailureInjection, EngineRejectsZeroPackets) {
  EngineRig rig;
  const core::HostTree t{{0, 1}, {{1}, {}}};
  EXPECT_THROW((void)rig.engine.run(t, 0), std::invalid_argument);
}

TEST(FailureInjection, NiRejectsSelfChildAndBadEntries) {
  sim::Simulator simctx;
  topo::Topology topology{topo::Graph{1, {}}, {0, 0}, "pair"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  net::WormholeNetwork network{simctx, topology, routes,
                               net::NetworkConfig{}};
  netif::FpfsNi ni{simctx, network, netif::SystemParams{}, 0};
  netif::ForwardingEntry self_child;
  self_child.children = {0};
  EXPECT_THROW(ni.install(1, self_child), std::invalid_argument);
  netif::ForwardingEntry zero_packets;
  zero_packets.packet_count = 0;
  EXPECT_THROW(ni.install(1, zero_packets), std::invalid_argument);
}

TEST(FailureInjection, PacketForUnknownMessageThrowsAtReceiveTime) {
  sim::Simulator simctx;
  topo::Topology topology{topo::Graph{1, {}}, {0, 0}, "pair"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  net::WormholeNetwork network{simctx, topology, routes,
                               net::NetworkConfig{}};
  netif::FpfsNi ni{simctx, network, netif::SystemParams{}, 1};
  net::Packet stray;
  stray.message = 77;
  stray.sender = 0;
  stray.dest = 1;
  ni.deliver(stray);
  EXPECT_THROW(simctx.run(), std::logic_error);
}

}  // namespace
}  // namespace nimcast
