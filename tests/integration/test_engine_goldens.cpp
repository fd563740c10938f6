// Dispatch-order goldens for every engine entry point: the FNV digest of
// every dispatched event's firing key (sim::Simulator::DispatchDigest,
// the same shape as Goldens.PaperRigDispatchOrder) plus the event count,
// for one small scenario per path — streaming (static with a background
// flow, adaptive, link-fault replan, root hand-off), the FIFO
// multiple-multicast batch (reliable FPFS under loss, a root death with
// repair and hand-off), collectives (reduce/allreduce salvage under
// faults, fault-free scatter, gather hand-off; recorded since collectives
// became one-op traffic mixes, whose one extra event is the arrival) and
// one paced traffic mix.
// The digest folds absolute FIFO order keys, so it moves if an engine
// changes the sequence of its schedule / reserve_order calls even when
// no latency does. CollectiveResultValues is a value golden instead: it
// folds every field a collective caller reads.
//
// (The values were produced by this implementation; they pin behaviour,
// not external truth.)

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "collectives/collective_engine.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "mcast/multicast_engine.hpp"
#include "network/fault_plan.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "support/multicast_mix.hpp"
#include "topology/irregular.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace nimcast {
namespace {

sim::Simulator::DispatchDigest digest_of(const std::function<void()>& run) {
  sim::Simulator::DispatchDigest digest;
  sim::Simulator::set_dispatch_digest(&digest);
  run();
  sim::Simulator::set_dispatch_digest(nullptr);
  return digest;
}

/// Irregular fabric (IrregularConfig defaults scaled to `hosts`) with
/// up*/down* routes and its CCO chain.
struct Rig {
  topo::Topology topology;
  routing::UpDownRouter router;
  routing::RouteTable routes;
  core::Chain cco;

  explicit Rig(std::uint64_t seed, std::int32_t hosts = 64)
      : topology{[&] {
          topo::IrregularConfig cfg;
          cfg.num_hosts = hosts;
          cfg.num_switches = hosts / 4;
          sim::Rng rng{seed};
          return topo::make_irregular(cfg, rng);
        }()},
        router{topology.switches()},
        routes{topology, router},
        cco{core::cco_ordering(topology, router)} {}

  [[nodiscard]] core::HostTree tree(std::int32_t n, std::int32_t m,
                                    std::int32_t offset = 0) const {
    const core::Chain members{cco.begin() + offset,
                              cco.begin() + offset + n};
    return core::HostTree::bind(
        core::make_kbinomial(n, core::optimal_k(n, m).k), members);
  }

  [[nodiscard]] core::RotationPlan plan(std::int32_t rotation) const {
    core::RotationConfig rc;
    rc.rotation_trees = rotation;
    rc.fanout_bound = core::optimal_k(topology.num_hosts(), 4).k;
    return core::plan_rotation(topology, routes, router, cco, rc);
  }
};

/// A unicast flow from `member`'s first relay down its first-child
/// descent: it backs up exactly that member's forwarding path.
mcast::MulticastEngine::Config::BackgroundFlow flow_through(
    const core::RotationMember& member, std::int32_t packets) {
  mcast::MulticastEngine::Config::BackgroundFlow flow;
  flow.src = member.tree.children(member.tree.root).front();
  topo::HostId leaf = flow.src;
  while (!member.tree.children(leaf).empty()) {
    leaf = member.tree.children(leaf).front();
  }
  flow.dst = leaf;
  flow.packets = packets;
  return flow;
}

TEST(EngineGoldens, StreamingStaticWithBackgroundFlowDispatchOrder) {
  const Rig rig{1997};
  const auto plan = rig.plan(3);
  mcast::MulticastEngine::Config cfg;
  cfg.background.push_back(flow_through(plan.members[1], 40));
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::StreamingResult r;
  const auto d = digest_of([&] { r = engine.run_streaming(plan, 24); });
  EXPECT_EQ(r.rotation_used, 3);
  EXPECT_EQ(d.events, UINT64_C(8387));
  EXPECT_EQ(d.fnv, UINT64_C(0xe6f8182a8c70ef73));
}

TEST(EngineGoldens, StreamingAdaptiveDispatchOrder) {
  const Rig rig{1997};
  const auto plan = rig.plan(4);
  mcast::MulticastEngine::Config cfg;
  cfg.selection = mcast::Selection::kAdaptive;
  cfg.background.push_back(flow_through(plan.members[1], 120));
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::StreamingResult r;
  const auto d = digest_of([&] { r = engine.run_streaming(plan, 32); });
  EXPECT_EQ(r.selection, mcast::Selection::kAdaptive);
  EXPECT_GT(r.telemetry_snapshots, 0);
  EXPECT_EQ(d.events, UINT64_C(11578));
  EXPECT_EQ(d.fnv, UINT64_C(0x8547bc33dca8019a));
}

TEST(EngineGoldens, StreamingLinkFaultReplanDispatchOrder) {
  const Rig rig{1997};
  const auto plan = rig.plan(4);
  mcast::MulticastEngine::Config cfg;
  cfg.selection = mcast::Selection::kAdaptive;
  cfg.network.faults.link_down(sim::Time::us(40.0),
                               rig.topology.switches().num_edges() / 2);
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::StreamingResult r;
  const auto d = digest_of([&] { r = engine.run_streaming(plan, 16); });
  EXPECT_NE(r.outcome, mcast::Outcome::kFailed);
  EXPECT_EQ(d.events, UINT64_C(5929));
  EXPECT_EQ(d.fnv, UINT64_C(0x3d52b07ff841d9d9));
}

TEST(EngineGoldens, StreamingRootHandoffDispatchOrder) {
  const Rig rig{1997};
  const auto plan = rig.plan(2);
  mcast::MulticastEngine::Config cfg;
  cfg.network.faults.host_down(sim::Time::us(54.0),
                               plan.members[0].tree.root);
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  mcast::StreamingResult r;
  const auto d = digest_of([&] { r = engine.run_streaming(plan, 16); });
  EXPECT_GT(r.root_handoffs, 0);
  EXPECT_EQ(d.events, UINT64_C(3032));
  EXPECT_EQ(d.fnv, UINT64_C(0x8972a940503bdf13));
}

// The verdict of the rig above. At 54 µs some stream packets have not
// left the root, so no destination can ever hold all 16 and the run is
// kFailed; the per-packet handoff still resends the indices survivors
// hold, as one handoff message.
TEST(EngineGoldens, StreamingRootDeathMidStreamFailsAfterHandoff) {
  const Rig rig{1997};
  const auto plan = rig.plan(2);
  mcast::MulticastEngine::Config cfg;
  cfg.network.faults.host_down(sim::Time::us(54.0),
                               plan.members[0].tree.root);
  const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
  const mcast::StreamingResult r = engine.run_streaming(plan, 16);
  EXPECT_EQ(r.outcome, mcast::Outcome::kFailed);
  EXPECT_EQ(r.root_handoffs, 1);
  EXPECT_EQ(r.packets_delivered, 567);
}

/// FNV digest of every StreamingResult field, in declaration order.
std::uint64_t result_digest(const mcast::StreamingResult& r) {
  std::uint64_t d = sim::kFnv1aBasis;
  const auto fold = [&d](auto word) {
    d = sim::fnv1a(d, static_cast<std::uint64_t>(word));
  };
  fold(r.makespan.count_ns());
  fold(r.ni_makespan.count_ns());
  fold(std::bit_cast<std::uint64_t>(r.flits_per_us));
  fold(r.p99_gap.count_ns());
  fold(r.stream_packets);
  fold(r.rotation_requested);
  fold(r.rotation_used);
  fold(std::bit_cast<std::uint64_t>(r.overlap_mean));
  fold(std::bit_cast<std::uint64_t>(r.overlap_max));
  fold(r.outcome);
  for (const auto& p : r.destinations) {
    fold(p.host);
    fold(p.delivered);
    fold(p.reachable);
    fold(p.completed_at.count_ns());
  }
  fold(r.repairs);
  fold(r.replans);
  fold(r.root_handoffs);
  fold(r.packets_resent);
  fold(r.effective_root);
  fold(r.packets_delivered);
  fold(r.total_channel_block_time.count_ns());
  fold(r.events_dispatched);
  fold(r.selection);
  for (const std::int64_t n : r.member_packets) fold(n);
  for (const double us : r.member_ni_work_us) {
    fold(std::bit_cast<std::uint64_t>(us));
  }
  fold(r.telemetry_snapshots);
  fold(r.telemetry_digest);
  return d;
}

// Value golden for a 16-packet stream under static and adaptive
// selection on six conditions: an R = 4 plan clean, under a link fault
// and under 2% loss, and an R = 2 plan with the root killed at 36, 54
// and 80 µs (R = 2, so each kill leaves survivors holding indices the
// others miss and the per-packet hand-off runs). Like
// CollectiveResultValues it pins what a caller reads, so it holds across
// rewires of the streaming driver that add or move a coordination event.
TEST(EngineGoldens, StreamingResultValues) {
  const Rig rig{1997};
  const auto wide = rig.plan(4);
  const auto narrow = rig.plan(2);
  const topo::HostId root = wide.members[0].tree.root;
  std::vector<mcast::MulticastEngine::Config> configs(6);
  configs[1].network.faults.link_down(sim::Time::us(40.0),
                                      rig.topology.switches().num_edges() / 2);
  configs[2].network.loss_rate = 0.02;
  configs[3].network.faults.host_down(sim::Time::us(36.0), root);
  configs[4].network.faults.host_down(sim::Time::us(54.0), root);
  configs[5].network.faults.host_down(sim::Time::us(80.0), root);
  constexpr mcast::Selection kSelections[] = {mcast::Selection::kStatic,
                                              mcast::Selection::kAdaptive};
  constexpr std::uint64_t kExpected[6][2] = {
      {UINT64_C(0x9d6d7895f2f71a6d), UINT64_C(0x5a07a150d778b518)},
      {UINT64_C(0x26feeb38c987bc83), UINT64_C(0x98eea962da578103)},
      {UINT64_C(0xc575d677b4ddf333), UINT64_C(0x51d880270b49d57f)},
      {UINT64_C(0x0638b5a5d8abb9dc), UINT64_C(0x6f9673860b8f2ef2)},
      {UINT64_C(0x951f41d6fe4b6cab), UINT64_C(0xe33a5056a9fcf160)},
      {UINT64_C(0x79c9a92fdb6b5a8d), UINT64_C(0xaa2b5a34bd1c75dc)}};
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (std::size_t s = 0; s < 2; ++s) {
      mcast::MulticastEngine::Config cfg = configs[c];
      cfg.selection = kSelections[s];
      const mcast::MulticastEngine engine{rig.topology, rig.routes, cfg};
      const auto r = engine.run_streaming(c < 3 ? wide : narrow, 16);
      EXPECT_EQ(result_digest(r), kExpected[c][s])
          << "condition " << c << ", " << mcast::to_string(kSelections[s])
          << std::hex << " digest 0x" << result_digest(r);
    }
  }
}

// The "RunMany" pair pins the multiple-multicast batch, now a FIFO
// traffic mix of plain multicasts; the digests were recorded on the
// batch's former driver, MulticastEngine::run_many.
TEST(EngineGoldens, RunManyReliableUnderLossDispatchOrder) {
  const Rig rig{7};
  traffic::TrafficConfig cfg = test::fifo_config(mcast::NiStyle::kReliableFpfs);
  cfg.network.loss_rate = 0.2;
  const traffic::TrafficEngine engine{rig.topology, rig.routes, cfg};
  const auto mix = test::multicast_mix(
      {{rig.tree(16, 4), 4}, {rig.tree(12, 2, 20), 2, sim::Time::us(5.0)}});
  traffic::TrafficResult r;
  const auto d = digest_of([&] { r = engine.run(mix); });
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_EQ(d.events, UINT64_C(1059));
  EXPECT_EQ(d.fnv, UINT64_C(0x4913e2d876f71646));
}

TEST(EngineGoldens, RunManyRootDeathRepairAndHandoffDispatchOrder) {
  const Rig rig{7};
  const auto tree = rig.tree(24, 4);
  traffic::TrafficConfig cfg = test::fifo_config();
  cfg.network.faults.host_down(sim::Time::us(36.0), tree.root);
  const traffic::TrafficEngine engine{rig.topology, rig.routes, cfg};
  const auto mix = test::multicast_mix({{tree, 4}, {rig.tree(10, 4, 30), 4}});
  traffic::TrafficResult r;
  const auto d = digest_of([&] { r = engine.run(mix); });
  EXPECT_EQ(r.ops[0].root_handoffs, 1);
  EXPECT_GT(r.ops[0].repairs, 0);
  EXPECT_EQ(d.events, UINT64_C(803));
  EXPECT_EQ(d.fnv, UINT64_C(0x0dc18fe4a3f4c17a));
}

collectives::CollectiveEngine::Config random_fault_config(const Rig& rig) {
  net::FaultPlan::RandomConfig fcfg;
  fcfg.link_fail_prob = 0.15;
  fcfg.switch_fail_prob = 0.04;
  sim::Rng rng{1234};
  collectives::CollectiveEngine::Config cfg;
  cfg.network.faults =
      net::FaultPlan::random(rig.topology.switches(), fcfg, rng);
  return cfg;
}

TEST(EngineGoldens, CollectiveReduceSalvageDispatchOrder) {
  const Rig rig{3};
  const collectives::CollectiveEngine engine{rig.topology, rig.routes,
                                             random_fault_config(rig)};
  collectives::CollectiveResult r;
  const auto d = digest_of([&] {
    r = engine.run(collectives::CollectiveKind::kReduce, rig.tree(32, 4), 4);
  });
  EXPECT_GT(r.repairs, 0);
  EXPECT_EQ(d.events, UINT64_C(1214));
  EXPECT_EQ(d.fnv, UINT64_C(0x3a729308864cdd64));
}

TEST(EngineGoldens, CollectiveAllReduceSalvageDispatchOrder) {
  const Rig rig{3};
  const collectives::CollectiveEngine engine{rig.topology, rig.routes,
                                             random_fault_config(rig)};
  collectives::CollectiveResult r;
  const auto d = digest_of([&] {
    r = engine.run(collectives::CollectiveKind::kAllReduce, rig.tree(32, 4),
                   4);
  });
  EXPECT_GT(r.repairs, 0);
  EXPECT_EQ(d.events, UINT64_C(2287));
  EXPECT_EQ(d.fnv, UINT64_C(0x8e62ec1e508e5bab));
}

TEST(EngineGoldens, CollectiveScatterDispatchOrder) {
  const Rig rig{3};
  const collectives::CollectiveEngine engine{
      rig.topology, rig.routes, collectives::CollectiveEngine::Config{}};
  const auto d = digest_of([&] {
    (void)engine.run(collectives::CollectiveKind::kScatter, rig.tree(24, 2),
                     2);
  });
  EXPECT_EQ(d.events, UINT64_C(601));
  EXPECT_EQ(d.fnv, UINT64_C(0xf5266c4fa39338bf));
}

TEST(EngineGoldens, CollectiveGatherRootHandoffDispatchOrder) {
  const Rig rig{3};
  const auto tree = rig.tree(24, 2);
  collectives::CollectiveEngine::Config cfg;
  cfg.network.faults.host_down(sim::Time::us(20.0), tree.root);
  const collectives::CollectiveEngine engine{rig.topology, rig.routes, cfg};
  collectives::CollectiveResult r;
  const auto d = digest_of([&] {
    r = engine.run(collectives::CollectiveKind::kGather, tree, 2);
  });
  EXPECT_EQ(r.root_handoffs, 1);
  EXPECT_EQ(d.events, UINT64_C(996));
  EXPECT_EQ(d.fnv, UINT64_C(0x75ebae4adfeb61d1));
}

/// FNV digest of every CollectiveResult field, in declaration order.
std::uint64_t result_digest(const collectives::CollectiveResult& r) {
  std::uint64_t d = sim::kFnv1aBasis;
  const auto fold = [&d](auto word) {
    d = sim::fnv1a(d, static_cast<std::uint64_t>(word));
  };
  fold(r.latency.count_ns());
  for (const auto& [host, at] : r.completions) {
    fold(host);
    fold(at.count_ns());
  }
  fold(r.packets_injected);
  fold(r.total_channel_block_time.count_ns());
  fold(std::bit_cast<std::uint64_t>(r.peak_ni_buffer));
  fold(r.outcome);
  for (const auto& p : r.participants) {
    fold(p.host);
    fold(p.delivered);
    fold(p.reachable);
    fold(p.completed_at.count_ns());
  }
  for (topo::HostId h : r.contributors) fold(h);
  fold(r.repairs);
  fold(r.root_handoffs);
  fold(r.effective_root);
  fold(r.faults_applied);
  fold(r.route_epoch);
  fold(r.root_alive);
  return d;
}

// Value golden for every collective kind on one rig under three
// conditions: fault-free, a random link/switch fault plan, and the root
// killed at 20 µs. Unlike the dispatch goldens above it pins what a
// caller reads, not the event order, so it holds across engine rewires
// that add or move a coordination event.
TEST(EngineGoldens, CollectiveResultValues) {
  const Rig rig{3};
  const auto tree = rig.tree(32, 4);
  collectives::CollectiveEngine::Config root_down;
  root_down.network.faults.host_down(sim::Time::us(20.0), tree.root);
  const collectives::CollectiveEngine::Config configs[] = {
      collectives::CollectiveEngine::Config{}, random_fault_config(rig),
      root_down};
  constexpr collectives::CollectiveKind kKinds[] = {
      collectives::CollectiveKind::kBroadcast,
      collectives::CollectiveKind::kScatter,
      collectives::CollectiveKind::kGather,
      collectives::CollectiveKind::kReduce,
      collectives::CollectiveKind::kAllReduce};
  constexpr std::uint64_t kExpected[3][5] = {
      {UINT64_C(0x4defa9a5b3793123), UINT64_C(0xbf5d0af77a0aafba),
       UINT64_C(0xad64a2d884347cdd), UINT64_C(0xa39f06f016d45292),
       UINT64_C(0xd3a14fd6c0aa5cb3)},
      {UINT64_C(0xb1e2352b09d3d547), UINT64_C(0x2e7ec8315c230478),
       UINT64_C(0xd6ac17a9341d0e5d), UINT64_C(0x9ca7292b3448361f),
       UINT64_C(0x474d06de42c3c0f1)},
      {UINT64_C(0xdeaa54c80c1e9b80), UINT64_C(0x8ec5ba149e9635d2),
       UINT64_C(0x0c1d948a50f9e0da), UINT64_C(0xa4a01ff9c4ffa49b),
       UINT64_C(0x2aa592356b6a56ab)}};
  for (std::size_t c = 0; c < 3; ++c) {
    const collectives::CollectiveEngine engine{rig.topology, rig.routes,
                                               configs[c]};
    for (std::size_t k = 0; k < 5; ++k) {
      const auto r = engine.run(kKinds[k], tree, 4);
      EXPECT_EQ(result_digest(r), kExpected[c][k])
          << "condition " << c << ", "
          << collectives::to_string(kKinds[k]) << std::hex << " digest 0x"
          << result_digest(r);
    }
  }
}

TEST(EngineGoldens, PacedTrafficMixDispatchOrder) {
  const Rig rig{11, 32};
  traffic::TrafficConfig cfg;
  cfg.scheduler.policy = traffic::Policy::kPaced;
  traffic::WorkloadConfig wcfg;
  wcfg.num_ops = 24;
  wcfg.ops_per_ms = 40.0;
  wcfg.min_group = 3;
  wcfg.max_group = 12;
  wcfg.seed = 23;
  const auto mix = traffic::generate_workload(rig.topology.num_hosts(),
                                              rig.cco, wcfg);
  const traffic::TrafficEngine engine{rig.topology, rig.routes, cfg};
  traffic::TrafficResult r;
  const auto d = digest_of([&] { r = engine.run(mix); });
  EXPECT_GT(r.deferral_ticks, 0);
  EXPECT_EQ(d.events, UINT64_C(3415));
  EXPECT_EQ(d.fnv, UINT64_C(0xd8d91168bfff8d23));
}

}  // namespace
}  // namespace nimcast
