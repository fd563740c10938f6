// Streaming broadcast on the full simulated system
// (MulticastEngine::run_streaming): equivalence of the R = 1 plan with
// the pre-streaming run() path, delivery accounting under rotation,
// saturation throughput, and repair under scheduled faults.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"

namespace nimcast::mcast {
namespace {

struct Rig {
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  core::Chain cco;
  std::int32_t k;

  explicit Rig(std::uint64_t seed = 1997)
      : topology([seed] {
          sim::Rng rng{seed};
          return topo::make_irregular(topo::IrregularConfig{}, rng);
        }()),
        router{topology.switches()},
        routes{topology, router},
        cco{core::cco_ordering(topology, router)},
        k{core::optimal_k(64, 4).k} {}

  [[nodiscard]] core::RotationPlan plan(std::int32_t rotation) const {
    core::RotationConfig rc;
    rc.rotation_trees = rotation;
    rc.fanout_bound = k;
    return core::plan_rotation(topology, routes, router, cco, rc);
  }

  [[nodiscard]] MulticastEngine engine(
      net::FaultPlan faults = net::FaultPlan{}) const {
    MulticastEngine::Config cfg;
    cfg.style = NiStyle::kSmartFpfs;
    cfg.network.faults = std::move(faults);
    return MulticastEngine{topology, routes, cfg};
  }
};

TEST(Streaming, SizeOnePlanMatchesRunExactly) {
  const Rig rig;
  const auto plan = rig.plan(1);
  const auto engine = rig.engine();
  for (const std::int32_t packets : {1, 6}) {
    const StreamingResult sr = engine.run_streaming(plan, packets);
    const MulticastResult mr = engine.run(plan.members[0].tree, packets);
    EXPECT_EQ(sr.makespan, mr.latency) << packets << " packets";
    EXPECT_EQ(sr.ni_makespan, mr.ni_latency);
    EXPECT_EQ(sr.packets_delivered, mr.packets_delivered);
    EXPECT_EQ(sr.rotation_used, 1);
    EXPECT_EQ(sr.outcome, Outcome::kComplete);
  }
}

TEST(Streaming, SinglePacketStreamUsesOnlyTheFixedTree) {
  // R = min(plan size, stream packets): one packet always travels down
  // member 0, so the result is byte-identical to the fixed tree's.
  const Rig rig;
  const auto engine = rig.engine();
  const StreamingResult sr = engine.run_streaming(rig.plan(4), 1);
  const MulticastResult mr = engine.run(rig.plan(1).members[0].tree, 1);
  EXPECT_EQ(sr.rotation_used, 1);
  EXPECT_EQ(sr.makespan, mr.latency);
  EXPECT_EQ(sr.ni_makespan, mr.ni_latency);
}

TEST(Streaming, RotationDeliversTheFullStreamEverywhere) {
  const Rig rig;
  const auto engine = rig.engine();
  const StreamingResult sr = engine.run_streaming(rig.plan(4), 32);
  EXPECT_EQ(sr.outcome, Outcome::kComplete);
  EXPECT_EQ(sr.rotation_used, 4);
  EXPECT_EQ(sr.stream_packets, 32);
  EXPECT_EQ(sr.packets_delivered, std::int64_t{63} * 32);
  ASSERT_EQ(sr.destinations.size(), 63u);
  for (const DestinationStatus& d : sr.destinations) {
    EXPECT_TRUE(d.delivered);
  }
  EXPECT_GE(sr.makespan, sr.ni_makespan);
  EXPECT_GT(sr.p99_gap, sim::Time::zero());
  EXPECT_GT(sr.flits_per_us, 0.0);
}

TEST(Streaming, RotationBeatsTheFixedTreeAtSaturation) {
  // The planner's load-balanced binding caps every host's cumulative NI
  // work near the k-limited floor, so a long stream sustains well above
  // the fixed tree's t_rcv + k*t_snd per-packet period.
  const Rig rig;
  const auto engine = rig.engine();
  const StreamingResult fixed = engine.run_streaming(rig.plan(1), 256);
  const StreamingResult rotated = engine.run_streaming(rig.plan(4), 256);
  EXPECT_GE(rotated.flits_per_us, 1.2 * fixed.flits_per_us);
}

TEST(Streaming, RepairRecoversReachableDestinationsAfterLinkFault) {
  const Rig rig;
  const auto plan = rig.plan(4);
  const auto num_links = rig.topology.switches().num_edges();
  ASSERT_GE(num_links, 3);
  for (const topo::LinkId link : {0, num_links / 2, num_links - 1}) {
    net::FaultPlan faults;
    faults.link_down(sim::Time::us(40.0), link);
    const auto engine = rig.engine(std::move(faults));
    StreamingResult sr;
    ASSERT_NO_THROW(sr = engine.run_streaming(plan, 16)) << "link " << link;
    EXPECT_NE(sr.outcome, Outcome::kFailed);
    ASSERT_EQ(sr.destinations.size(), 63u);
    for (const DestinationStatus& d : sr.destinations) {
      EXPECT_TRUE(d.delivered || !d.reachable)
          << "host " << d.host << " link " << link;
    }
  }
}

TEST(Streaming, RejectsInvalidRequests) {
  const Rig rig;
  const auto engine = rig.engine();
  EXPECT_THROW((void)engine.run_streaming(rig.plan(1), 0),
               std::invalid_argument);
  MulticastEngine::Config conventional;
  conventional.style = NiStyle::kConventional;
  const MulticastEngine wrong_style{rig.topology, rig.routes, conventional};
  EXPECT_THROW((void)wrong_style.run_streaming(rig.plan(1), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::mcast
