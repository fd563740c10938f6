// Congestion-aware adaptive per-packet member selection
// (Config::selection = kAdaptive): idle-fabric byte-identity with the
// static g mod R rotation, per-member accounting, contended-fabric wins
// over the static split, and composition with fault repair.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

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

  [[nodiscard]] MulticastEngine::Config config(Selection selection) const {
    MulticastEngine::Config cfg;
    cfg.style = NiStyle::kSmartFpfs;
    cfg.selection = selection;
    return cfg;
  }

  [[nodiscard]] MulticastEngine engine(MulticastEngine::Config cfg) const {
    return MulticastEngine{topology, routes, std::move(cfg)};
  }
};

/// The first hop below `member`'s virtual root — the host every packet
/// down this member funnels through, so a unicast flow originating here
/// backs up exactly this member's forwarding path.
topo::HostId relay_of(const core::RotationMember& member) {
  return member.tree.children(member.tree.root).front();
}

/// Deepest first-child descent from `member`'s relay: a destination
/// whose route shares the member's subtree wires.
topo::HostId deep_leaf_of(const core::RotationMember& member) {
  topo::HostId h = relay_of(member);
  while (!member.tree.children(h).empty()) {
    h = member.tree.children(h).front();
  }
  return h;
}

/// Background flows that bury the coprocessors and wires of members 1
/// and 2 (the relays send `packets` extra unicasts each), leaving the
/// other members clean — the pattern the adaptive selector should
/// detect and steer around.
std::vector<MulticastEngine::Config::BackgroundFlow> hot_members_1_and_2(
    const core::RotationPlan& plan, std::int32_t packets = 400) {
  std::vector<MulticastEngine::Config::BackgroundFlow> flows;
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}}) {
    MulticastEngine::Config::BackgroundFlow flow;
    flow.src = relay_of(plan.members[m]);
    flow.dst = deep_leaf_of(plan.members[m]);
    flow.packets = packets;
    flow.start = sim::Time::zero();
    flows.push_back(flow);
  }
  return flows;
}

TEST(AdaptiveStreaming, IdleFabricIsByteIdenticalToStatic) {
  // With nothing else on the fabric every telemetry snapshot scores the
  // members equal, the (g + i) mod R probe order breaks the tie toward
  // the static member, and the packet schedule — hence every timing
  // metric — reproduces g mod R exactly. Checked across seeds; only the
  // snapshot bookkeeping may differ.
  for (const std::uint64_t seed : {1997u, 2024u}) {
    const Rig rig{seed};
    const auto plan = rig.plan(4);
    const StreamingResult st =
        rig.engine(rig.config(Selection::kStatic)).run_streaming(plan, 32);
    const StreamingResult ad =
        rig.engine(rig.config(Selection::kAdaptive)).run_streaming(plan, 32);
    EXPECT_EQ(ad.makespan, st.makespan) << "seed " << seed;
    EXPECT_EQ(ad.ni_makespan, st.ni_makespan);
    EXPECT_EQ(ad.p99_gap, st.p99_gap);
    EXPECT_EQ(ad.flits_per_us, st.flits_per_us);
    EXPECT_EQ(ad.packets_delivered, st.packets_delivered);
    EXPECT_EQ(ad.total_channel_block_time, st.total_channel_block_time);
    EXPECT_EQ(ad.member_packets, st.member_packets);
    EXPECT_EQ(ad.selection, Selection::kAdaptive);
    EXPECT_EQ(st.selection, Selection::kStatic);
    EXPECT_GT(ad.telemetry_snapshots, 0);
  }
}

TEST(AdaptiveStreaming, StaticRunSchedulesNoTelemetry) {
  // Static selection must cost nothing: no snapshot events, no digest.
  const Rig rig;
  const StreamingResult st =
      rig.engine(rig.config(Selection::kStatic)).run_streaming(rig.plan(4), 32);
  EXPECT_EQ(st.telemetry_snapshots, 0);
  EXPECT_EQ(st.telemetry_digest, 0u);
  ASSERT_EQ(st.member_packets.size(), 4u);
  // The static split is the g mod R ceil split.
  EXPECT_EQ(st.member_packets, (std::vector<std::int64_t>{8, 8, 8, 8}));
  ASSERT_EQ(st.member_ni_work_us.size(), 4u);
  for (const double w : st.member_ni_work_us) EXPECT_GT(w, 0.0);
}

TEST(AdaptiveStreaming, SteersAroundContendedMembersAndWinsThroughput) {
  // Background unicasts bury members 1 and 2; the adaptive selector
  // must shift stream packets onto the clean members and come out with
  // strictly higher delivered throughput than the blind rotation.
  const Rig rig;
  const auto plan = rig.plan(4);
  const auto flows = hot_members_1_and_2(plan);

  auto scfg = rig.config(Selection::kStatic);
  scfg.background = flows;
  const StreamingResult st = rig.engine(scfg).run_streaming(plan, 64);

  auto acfg = rig.config(Selection::kAdaptive);
  acfg.background = flows;
  const StreamingResult ad = rig.engine(acfg).run_streaming(plan, 64);

  EXPECT_EQ(st.outcome, Outcome::kComplete);
  EXPECT_EQ(ad.outcome, Outcome::kComplete);
  EXPECT_GT(ad.flits_per_us, st.flits_per_us);

  // The static split stays ceil-even while adaptive drains the hot
  // members' share into the clean ones.
  ASSERT_EQ(ad.member_packets.size(), 4u);
  const std::int64_t total = std::accumulate(
      ad.member_packets.begin(), ad.member_packets.end(), std::int64_t{0});
  EXPECT_EQ(total, 64);
  EXPECT_LT(ad.member_packets[1] + ad.member_packets[2],
            st.member_packets[1] + st.member_packets[2]);
}

TEST(AdaptiveStreaming, ComposesWithLinkFaultRepair) {
  // A mid-stream link fault under adaptive selection: repair and
  // incremental re-planning still recover every reachable destination,
  // and the selector's dead-member penalty keeps it off broken trees.
  const Rig rig;
  const auto plan = rig.plan(4);
  const auto num_links = rig.topology.switches().num_edges();
  net::FaultPlan faults;
  faults.link_down(sim::Time::us(40.0), num_links / 2);
  auto cfg = rig.config(Selection::kAdaptive);
  cfg.network.faults = std::move(faults);
  StreamingResult sr;
  ASSERT_NO_THROW(sr = rig.engine(cfg).run_streaming(plan, 16));
  EXPECT_NE(sr.outcome, Outcome::kFailed);
  ASSERT_EQ(sr.destinations.size(), 63u);
  for (const DestinationStatus& d : sr.destinations) {
    EXPECT_TRUE(d.delivered || !d.reachable) << "host " << d.host;
  }
}

TEST(AdaptiveStreaming, RejectsMalformedBackgroundFlows) {
  const Rig rig;
  const auto plan = rig.plan(2);
  const auto run_with = [&](MulticastEngine::Config::BackgroundFlow flow) {
    auto cfg = rig.config(Selection::kStatic);
    cfg.background.push_back(flow);
    return rig.engine(cfg).run_streaming(plan, 4);
  };
  MulticastEngine::Config::BackgroundFlow flow;
  flow.src = 0;
  flow.dst = 1;
  flow.packets = 0;  // must send at least one packet
  EXPECT_THROW((void)run_with(flow), std::invalid_argument);
  flow.packets = 1;
  flow.dst = 0;  // self-send
  EXPECT_THROW((void)run_with(flow), std::invalid_argument);
  flow.dst = rig.topology.num_hosts();  // out of range
  EXPECT_THROW((void)run_with(flow), std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::mcast
