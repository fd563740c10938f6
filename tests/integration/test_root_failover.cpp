// Root fail-over: when the initiator host dies mid-operation the
// engines elect a deterministic replacement (a reachable destination
// already holding the payload), hand it the remaining send schedule and
// report a queryable kComplete/kPartial with root_handoffs accounting —
// instead of the seed behavior (kFailed, everything lost with the root).
//
// Exact completion instants depend on contention, so the mid-operation
// tests sweep the kill time across the operation lifetime and assert the
// invariants at every point plus the existence of a successful handoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "collectives/collective_engine.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "harness/parallel.hpp"
#include "mcast/multicast_engine.hpp"
#include "network/fault_plan.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"

namespace nimcast {
namespace {

/// 64 hosts over 16 random switches (IrregularConfig defaults).
struct IrregularRig {
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  core::Chain cco;

  explicit IrregularRig(std::uint64_t seed = 3)
      : topology{[&] {
          sim::Rng rng{seed};
          return topo::make_irregular(topo::IrregularConfig{}, rng);
        }()},
        router{topology.switches()},
        routes{topology, router},
        cco{core::cco_ordering(topology, router)} {}
};

/// 64 hosts over 8 edge + 4 spine switches (FatTreeConfig defaults).
struct FatTreeRig {
  topo::FatTreeConfig cfg{};
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  core::Chain cco;

  FatTreeRig()
      : topology{topo::make_fat_tree(cfg)},
        router{topology.switches(), topo::fat_tree_levels(cfg)},
        routes{topology, router},
        cco{core::cco_ordering(topology, router)} {}
};

core::HostTree tree_over(const core::Chain& cco, std::int32_t n,
                         std::int32_t m) {
  const core::Chain members{cco.begin(), cco.begin() + n};
  return core::HostTree::bind(
      core::make_kbinomial(n, core::optimal_k(n, m).k), members);
}

/// Reachable participants must have delivered unless the whole operation
/// failed (payload died with the root before anyone held it).
void expect_reachable_delivered(
    const std::vector<mcast::DestinationStatus>& statuses,
    mcast::Outcome outcome, const char* what) {
  if (outcome == mcast::Outcome::kFailed) return;
  for (const auto& st : statuses) {
    if (st.reachable) {
      EXPECT_TRUE(st.delivered)
          << what << ": host " << st.host << " reachable but undelivered";
    }
  }
}

TEST(RootFailover, RootHostDeathMidMulticastHandsOffToAPayloadHolder) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 16, 4);
  bool handed_off = false;
  // The handoff window is [first, last) full-payload arrival at a
  // destination NI — roughly 30..38us here — so the sweep is fine-
  // grained around it (plus one early point that must fail cleanly).
  for (const double kill_us : {20.0, 30.0, 32.0, 34.0, 36.0, 38.0}) {
    net::FaultPlan plan;
    plan.host_down(sim::Time::us(kill_us), tree.root);
    mcast::MulticastEngine::Config cfg;
    cfg.network.faults = plan;
    const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
    mcast::MulticastResult r;
    ASSERT_NO_THROW(r = engine.run(tree, 4)) << "kill at " << kill_us;
    EXPECT_LE(r.root_handoffs, 1);
    expect_reachable_delivered(r.destinations, r.outcome, "handoff sweep");
    if (r.root_handoffs == 1) {
      // Only the root died, so every destination stays reachable from
      // the elected initiator and the handoff must finish the job.
      EXPECT_EQ(r.outcome, mcast::Outcome::kComplete) << "kill " << kill_us;
      EXPECT_NE(r.effective_root, tree.root);
      EXPECT_NE(std::find(tree.nodes.begin(), tree.nodes.end(),
                          r.effective_root),
                tree.nodes.end());
      handed_off = true;

      // The same kill without the policy reproduces the seed behavior.
      auto off = cfg;
      off.repair.root_handoff = false;
      const mcast::MulticastEngine strict{rig.topology, rig.routes, off};
      const auto r_off = strict.run(tree, 4);
      EXPECT_EQ(r_off.root_handoffs, 0);
      EXPECT_NE(r_off.outcome, mcast::Outcome::kComplete);
    }
  }
  EXPECT_TRUE(handed_off) << "no sweep point exercised the handoff";
}

// Acceptance: on both 64-host rigs, a root kill over a 10% link-fault
// background still reaches kComplete — or a kPartial that only excludes
// the unreachable — via the handoff.
template <typename Rig>
void handoff_under_link_background() {
  const Rig rig;
  const auto tree = tree_over(rig.cco, 24, 4);
  net::FaultPlan::RandomConfig fcfg;
  fcfg.link_fail_prob = 0.10;
  fcfg.window_end = sim::Time::us(60.0);
  bool handed_off = false;
  for (const double kill_us : {32.0, 34.0, 36.0, 38.0, 40.0}) {
    sim::Rng rng{2026};
    auto plan = net::FaultPlan::random(rig.topology.switches(), fcfg, rng);
    plan.host_down(sim::Time::us(kill_us), tree.root);
    mcast::MulticastEngine::Config cfg;
    cfg.network.faults = plan;
    const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
    mcast::MulticastResult r;
    ASSERT_NO_THROW(r = engine.run(tree, 4)) << "kill at " << kill_us;
    expect_reachable_delivered(r.destinations, r.outcome, "link background");
    if (r.root_handoffs == 1 && r.outcome != mcast::Outcome::kFailed) {
      handed_off = true;
    }
  }
  EXPECT_TRUE(handed_off)
      << "no sweep point completed through the handoff on this rig";
}

TEST(RootFailover, HandoffUnderLinkFaultBackgroundIrregular64) {
  handoff_under_link_background<IrregularRig>();
}

TEST(RootFailover, HandoffUnderLinkFaultBackgroundFatTree64) {
  handoff_under_link_background<FatTreeRig>();
}

TEST(RootFailover, RootDeathBeforeAnySendFailsCleanly) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 16, 4);
  net::FaultPlan plan;
  // t_s + t_snd > 0.5us: the root dies before its first packet reaches
  // the wire, so no destination can hold the payload.
  plan.host_down(sim::Time::us(0.5), tree.root);
  mcast::MulticastEngine::Config cfg;
  cfg.network.faults = plan;
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::MulticastResult r;
  ASSERT_NO_THROW(r = engine.run(tree, 4));
  EXPECT_EQ(r.outcome, mcast::Outcome::kFailed);
  EXPECT_EQ(r.root_handoffs, 0);
  EXPECT_EQ(r.delivered_count(), 0);
}

TEST(RootFailover, RootDeathWithAllParticipantsDeadFailsCleanly) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 6, 2);
  net::FaultPlan plan;
  for (topo::HostId h : tree.nodes) plan.host_down(sim::Time::us(1.0), h);
  mcast::MulticastEngine::Config cfg;
  cfg.network.faults = plan;
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::MulticastResult r;
  ASSERT_NO_THROW(r = engine.run(tree, 2));
  EXPECT_EQ(r.outcome, mcast::Outcome::kFailed);
  EXPECT_EQ(r.root_handoffs, 0);
  EXPECT_EQ(r.delivered_count(), 0);
  for (const auto& st : r.destinations) {
    EXPECT_FALSE(st.reachable) << "host " << st.host;
    EXPECT_FALSE(st.delivered) << "host " << st.host;
  }
}

TEST(RootFailover, HandoffIsDeterministicAcrossRerunsAndThreads) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 16, 4);
  net::FaultPlan plan;
  // 36us sits inside the handoff window (see the sweep test above), so
  // the elected initiator — not just the failure path — must be
  // identical across reruns, including reruns on worker threads.
  plan.host_down(sim::Time::us(36.0), tree.root);
  mcast::MulticastEngine::Config cfg;
  cfg.network.faults = plan;
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  const auto serial = engine.run(tree, 4);
  ASSERT_EQ(serial.root_handoffs, 1);
  const auto expect_same = [&](const mcast::MulticastResult& r,
                               const std::string& label) {
    EXPECT_EQ(serial.outcome, r.outcome) << label;
    EXPECT_EQ(serial.latency, r.latency) << label;
    EXPECT_EQ(serial.root_handoffs, r.root_handoffs) << label;
    EXPECT_EQ(serial.effective_root, r.effective_root) << label;
    EXPECT_EQ(serial.completions, r.completions) << label;
  };
  expect_same(engine.run(tree, 4), "rerun");
  // The same const engine driven concurrently from a worker pool, as
  // the parallel testbed drives its replications.
  std::vector<mcast::MulticastResult> runs(4);
  harness::parallel_for_each(
      runs.size(), [&](std::size_t i) { runs[i] = engine.run(tree, 4); }, 2);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    expect_same(runs[i], "pooled run " + std::to_string(i));
  }
}

// ACK corner: the reliable NI holds buffer slots for packets received
// but not yet acknowledged. A host death while those slots are live must
// drain cleanly — senders give up against the reachability verdict, no
// slot leaks, no deadlock — and the handoff still works over the
// ACK/retransmit protocol.
TEST(RootFailover, ReliableRootDeathDrainsCleanAndHandsOff) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 16, 4);
  bool handed_off = false;
  for (const double kill_us : {34.0, 36.0, 38.0, 40.0, 42.0, 44.0}) {
    net::FaultPlan plan;
    plan.host_down(sim::Time::us(kill_us), tree.root);
    mcast::MulticastEngine::Config cfg;
    cfg.style = mcast::NiStyle::kReliableFpfs;
    cfg.network.faults = plan;
    const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
    mcast::MulticastResult r;
    ASSERT_NO_THROW(r = engine.run(tree, 4)) << "kill at " << kill_us;
    expect_reachable_delivered(r.destinations, r.outcome, "reliable kill");
    if (r.root_handoffs == 1 && r.outcome != mcast::Outcome::kFailed) {
      handed_off = true;
    }
  }
  EXPECT_TRUE(handed_off);
}

TEST(RootFailover, ReliableInteriorHostDeathWithUnackedBuffersIsPartial) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 16, 4);
  // The root's first child relays to its own subtree, so at 10us it sits
  // mid-protocol: received packets buffered, ACKs and forwards pending.
  const topo::HostId victim = tree.nodes[1];
  ASSERT_FALSE(tree.children(victim).empty());
  net::FaultPlan plan;
  plan.host_down(sim::Time::us(10.0), victim);
  mcast::MulticastEngine::Config cfg;
  cfg.style = mcast::NiStyle::kReliableFpfs;
  cfg.network.faults = plan;
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::MulticastResult r;
  ASSERT_NO_THROW(r = engine.run(tree, 4));
  EXPECT_EQ(r.outcome, mcast::Outcome::kPartial);
  EXPECT_EQ(r.root_handoffs, 0);
  for (const auto& st : r.destinations) {
    if (st.host == victim) {
      EXPECT_FALSE(st.reachable);
      EXPECT_FALSE(st.delivered);
    } else if (st.reachable) {
      EXPECT_TRUE(st.delivered) << "host " << st.host;
    }
  }
}

// ---------------------------------------------------------------------
// Collectives: the handoff election is kind-aware — broadcast needs a
// completed payload holder, gather/reduce restart from any survivor,
// scatter can never hand off (the personalized payloads died with the
// root).
// ---------------------------------------------------------------------

collectives::CollectiveResult run_collective_with_kill(
    const IrregularRig& rig, collectives::CollectiveKind kind,
    const core::HostTree& tree, double kill_us) {
  net::FaultPlan plan;
  plan.host_down(sim::Time::us(kill_us), tree.root);
  collectives::CollectiveEngine::Config cfg;
  cfg.network.faults = plan;
  const collectives::CollectiveEngine engine{rig.topology, rig.routes, cfg};
  return engine.run(kind, tree, 3);
}

TEST(RootFailover, CollectiveRootDeathHandsOffPerKind) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 12, 3);
  using collectives::CollectiveKind;
  for (const auto kind :
       {CollectiveKind::kBroadcast, CollectiveKind::kGather,
        CollectiveKind::kReduce, CollectiveKind::kAllReduce}) {
    bool handed_off = false;
    for (const double kill_us : {5.0, 30.0, 70.0, 120.0, 200.0}) {
      collectives::CollectiveResult r;
      ASSERT_NO_THROW(r = run_collective_with_kill(rig, kind, tree, kill_us))
          << collectives::to_string(kind) << " kill at " << kill_us;
      EXPECT_LE(r.root_handoffs, 1);
      if (r.root_handoffs == 1) {
        EXPECT_NE(r.effective_root, tree.root);
        expect_reachable_delivered(r.participants, r.outcome,
                                   collectives::to_string(kind));
        if (r.outcome != mcast::Outcome::kFailed) handed_off = true;
      }
    }
    EXPECT_TRUE(handed_off)
        << collectives::to_string(kind) << ": no sweep point handed off";
  }
}

TEST(RootFailover, ScatterRootDeathNeverHandsOff) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 12, 3);
  for (const double kill_us : {5.0, 30.0, 70.0}) {
    collectives::CollectiveResult r;
    ASSERT_NO_THROW(r = run_collective_with_kill(
                        rig, collectives::CollectiveKind::kScatter, tree,
                        kill_us));
    EXPECT_EQ(r.root_handoffs, 0) << "kill at " << kill_us;
    EXPECT_EQ(r.effective_root, tree.root);
  }
  // An early kill loses every personalized payload outright.
  const auto r = run_collective_with_kill(
      rig, collectives::CollectiveKind::kScatter, tree, 1.0);
  EXPECT_EQ(r.outcome, mcast::Outcome::kFailed);
}

TEST(RootFailover, ReduceLeafDeathRefoldsOnlyMissingContributors) {
  const IrregularRig rig;
  const auto tree = tree_over(rig.cco, 12, 3);
  const topo::HostId victim = tree.nodes.back();
  ASSERT_TRUE(tree.children(victim).empty()) << "victim must be a leaf";
  net::FaultPlan plan;
  plan.host_down(sim::Time::us(1.0), victim);
  collectives::CollectiveEngine::Config cfg;
  cfg.network.faults = plan;
  const collectives::CollectiveEngine engine{rig.topology, rig.routes, cfg};
  collectives::CollectiveResult r;
  ASSERT_NO_THROW(
      r = engine.run(collectives::CollectiveKind::kReduce, tree, 3));
  EXPECT_EQ(r.outcome, mcast::Outcome::kPartial);
  EXPECT_EQ(r.root_handoffs, 0);
  // The victim's contribution is lost; every live participant's (root
  // included) must be folded into the root's result exactly once.
  const std::set<topo::HostId> contributors{r.contributors.begin(),
                                            r.contributors.end()};
  EXPECT_EQ(contributors.size(), r.contributors.size()) << "duplicate fold";
  EXPECT_EQ(contributors.count(victim), 0u);
  for (topo::HostId h : tree.nodes) {
    if (h != victim) {
      EXPECT_EQ(contributors.count(h), 1u) << "host " << h << " not folded";
    }
  }
}

// ---------------------------------------------------------------------
// Streaming: the source is the single injector, so its death triggers
// per-packet handoff — each missing stream index is re-injected by the
// lowest-ranked survivor that holds it.
// ---------------------------------------------------------------------

core::RotationPlan rotation_plan(const IrregularRig& rig, std::int32_t n,
                                 std::int32_t rotation) {
  const core::Chain members{rig.cco.begin(), rig.cco.begin() + n};
  core::RotationConfig rc;
  rc.rotation_trees = rotation;
  rc.fanout_bound = 2;
  return core::plan_rotation(rig.topology, rig.routes, rig.router, members,
                             rc);
}

TEST(RootFailover, StreamingRootDeathHandsOffPerPacket) {
  const IrregularRig rig;
  const auto plan = rotation_plan(rig, 16, 3);
  const topo::HostId source = plan.members.front().tree.root;
  bool handed_off = false;
  // A kill landing exactly between injection waves leaves every
  // destination holding the same prefix — nothing to hand off. The sweep
  // therefore includes mid-wave instants where a truncated wave leaves
  // some destinations holding indices others miss.
  for (const double kill_us : {30.0, 42.0, 54.0, 66.0, 90.0}) {
    net::FaultPlan faults;
    faults.host_down(sim::Time::us(kill_us), source);
    mcast::MulticastEngine::Config cfg;
    cfg.network.faults = faults;
    const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
    mcast::StreamingResult r;
    ASSERT_NO_THROW(r = engine.run_streaming(plan, 24))
        << "kill at " << kill_us;
    if (r.root_handoffs > 0) {
      EXPECT_NE(r.effective_root, source);
      EXPECT_GT(r.packets_delivered, 0);
      handed_off = true;
    }
  }
  EXPECT_TRUE(handed_off) << "no sweep point exercised per-packet handoff";
}

// Acceptance: a mid-stream fault that kills a forwarding member must
// not collapse the rotation. The victim heads the fixed tree's largest
// subtree, so R=1 orphans that whole subtree for the rest of the stream
// — while the rotation gives the same host a leaf role in most members
// (only the classes where it forwards are hurt) and the incremental
// replan keeps the repair phase R-way. Measured ratio on this rig is
// ~1.7x; the acceptance floor is 1.2x.
TEST(RootFailover, StreamingMemberKillSustainsRotationThroughput) {
  const IrregularRig rig;
  const auto plan4 = rotation_plan(rig, 16, 4);
  ASSERT_GE(plan4.size(), 3);
  const auto plan1 = rotation_plan(rig, 16, 1);
  const core::HostTree& fixed_tree = plan1.members.front().tree;
  const topo::HostId victim = fixed_tree.children(fixed_tree.root)[0];
  ASSERT_FALSE(fixed_tree.children(victim).empty());

  auto run_plan = [&](const core::RotationPlan& plan) {
    net::FaultPlan faults;
    faults.host_down(sim::Time::us(40.0), victim);
    mcast::MulticastEngine::Config cfg;
    cfg.network.faults = faults;
    const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
    return engine.run_streaming(plan, 48);
  };
  const auto rotated = run_plan(plan4);
  const auto fixed = run_plan(plan1);
  EXPECT_NE(rotated.outcome, mcast::Outcome::kFailed);
  EXPECT_GE(rotated.replans, 1) << "member kill should trigger a replan";
  EXPECT_GE(rotated.flits_per_us, 1.2 * fixed.flits_per_us)
      << "rotation " << rotated.flits_per_us << " vs fixed "
      << fixed.flits_per_us;
}

}  // namespace
}  // namespace nimcast
