#include "traffic/traffic_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topology/irregular.hpp"
#include "traffic/workload.hpp"

namespace nimcast::traffic {
namespace {

struct Rig {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<routing::UpDownRouter> router;
  std::unique_ptr<routing::RouteTable> routes;
  core::Chain cco;
};

Rig make_rig(std::uint64_t seed, std::int32_t hosts = 32) {
  topo::IrregularConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_switches = hosts / 4;
  sim::Rng rng{seed};
  Rig rig;
  rig.topology =
      std::make_unique<topo::Topology>(topo::make_irregular(cfg, rng));
  rig.router =
      std::make_unique<routing::UpDownRouter>(rig.topology->switches());
  rig.routes =
      std::make_unique<routing::RouteTable>(*rig.topology, *rig.router);
  rig.cco = core::cco_ordering(*rig.topology, *rig.router);
  return rig;
}

TrafficConfig engine_config(Policy policy) {
  TrafficConfig cfg;
  cfg.scheduler.policy = policy;
  return cfg;
}

WorkloadConfig mix_config(double ops_per_ms, std::int32_t num_ops = 16) {
  WorkloadConfig cfg;
  cfg.num_ops = num_ops;
  cfg.ops_per_ms = ops_per_ms;
  cfg.min_group = 3;
  cfg.max_group = 10;
  cfg.seed = 23;
  return cfg;
}

void expect_same_result(const TrafficResult& a, const TrafficResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.deferral_ticks, b.deferral_ticks);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].admitted, b.ops[i].admitted) << "op " << i;
    EXPECT_EQ(a.ops[i].completed, b.ops[i].completed) << "op " << i;
    EXPECT_EQ(a.ops[i].deferral_ticks, b.ops[i].deferral_ticks) << "op " << i;
  }
}

TEST(TrafficEngine, RunsAMixedWorkloadToCompletion) {
  const Rig rig = make_rig(3);
  WorkloadConfig wcfg = mix_config(5.0, 20);
  wcfg.churn_probability = 1.0;
  const Workload wl = generate_workload(32, rig.cco, wcfg);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kPaced)};
  const TrafficResult r = engine.run(wl);
  ASSERT_EQ(r.ops.size(), wl.ops.size());
  EXPECT_GT(r.makespan, sim::Time::zero());
  EXPECT_GT(r.ops_per_sec, 0.0);
  EXPECT_GT(r.flits_per_us, 0.0);
  EXPECT_NE(r.digest, 0u);
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const OpRecord& rec = r.ops[i];
    EXPECT_GE(rec.admitted, rec.arrival) << "op " << i;
    EXPECT_GT(rec.completed, rec.admitted) << "op " << i;
    EXPECT_GT(rec.packets_delivered, 0) << "op " << i;
  }
}

TEST(TrafficEngine, ChurnDeliversPrefixPlusRebindSuffix) {
  const Rig rig = make_rig(7);
  WorkloadConfig wcfg = mix_config(2.0, 24);
  wcfg.stream_fraction = 0.7;
  wcfg.collective_fraction = 0.1;
  wcfg.churn_probability = 1.0;
  const Workload wl = generate_workload(32, rig.cco, wcfg);
  ASSERT_GT(wl.churns, 0);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kFifo)};
  const TrafficResult r = engine.run(wl);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < wl.ops.size(); ++i) {
    const TrafficOp& op = wl.ops[i];
    std::int64_t expect = 0;
    if (op.churn) {
      // The leaver receives only the prefix, the joiner only the suffix.
      expect = static_cast<std::int64_t>(op.tree.size() - 1) * op.split +
               static_cast<std::int64_t>(op.tree2.size() - 1) *
                   (op.packets - op.split);
    } else if (op.cls == OpClass::kCollective) {
      // Gather legs (one per member) plus the broadcast back down.
      expect = static_cast<std::int64_t>(op.tree.size() - 1) * op.packets * 2;
    } else {
      expect = static_cast<std::int64_t>(op.tree.size() - 1) * op.packets;
    }
    EXPECT_EQ(r.ops[i].packets_delivered, expect) << "op " << i;
    total += expect;
  }
  EXPECT_EQ(r.packets_delivered, total);
}

TEST(TrafficEngine, PacedIsByteIdenticalToFifoAtSingleGroupLoad) {
  const Rig rig = make_rig(11);
  // Offered load so low that each operation drains long before the next
  // arrives: pacing must be a strict no-op against the FIFO baseline.
  const Workload wl = generate_workload(32, rig.cco, mix_config(0.002, 8));
  const TrafficEngine fifo{*rig.topology, *rig.routes,
                           engine_config(Policy::kFifo)};
  const TrafficEngine paced{*rig.topology, *rig.routes,
                            engine_config(Policy::kPaced)};
  const TrafficResult rf = fifo.run(wl);
  const TrafficResult rp = paced.run(wl);
  EXPECT_EQ(rf.deferral_ticks, 0);
  EXPECT_EQ(rp.deferral_ticks, 0);
  EXPECT_EQ(rf.events_dispatched, rp.events_dispatched);
  expect_same_result(rf, rp);
  for (std::size_t i = 0; i < rp.ops.size(); ++i) {
    EXPECT_EQ(rp.ops[i].admitted, rp.ops[i].arrival) << "op " << i;
  }
}

TEST(TrafficEngine, PacedDefersOverlappingBurst) {
  const Rig rig = make_rig(13);
  // Four identical-footprint multicasts arriving back to back: with zero
  // overlap tolerance the paced scheduler must defer the tail of the
  // burst; FIFO launches everything immediately.
  const std::int32_t n = 8;
  const std::int32_t m = 4;
  std::vector<topo::HostId> dests;
  for (topo::HostId h = 1; h < n; ++h) dests.push_back(h);
  const core::Chain members = core::arrange_participants(rig.cco, 0, dests);
  const std::int32_t k = core::optimal_k(n, m).k;
  const core::HostTree tree =
      core::HostTree::bind(core::make_kbinomial(n, k), members);
  Workload wl;
  for (std::int32_t i = 0; i < 4; ++i) {
    TrafficOp op;
    op.cls = OpClass::kMulticast;
    op.arrival = sim::Time::ns(1 + i);
    op.tree = tree;
    op.packets = m;
    wl.ops.push_back(op);
    ++wl.multicasts;
  }
  TrafficConfig pcfg = engine_config(Policy::kPaced);
  pcfg.scheduler.overlap_tolerance_x1000 = 0;
  const TrafficEngine paced{*rig.topology, *rig.routes, pcfg};
  const TrafficEngine fifo{*rig.topology, *rig.routes,
                           engine_config(Policy::kFifo)};
  const TrafficResult rp = paced.run(wl);
  const TrafficResult rf = fifo.run(wl);
  EXPECT_EQ(rf.deferral_ticks, 0);
  EXPECT_GT(rp.deferral_ticks, 0);
  EXPECT_GT(rp.ticks, 0);
  // Both policies still deliver everything.
  EXPECT_EQ(rp.packets_delivered, rf.packets_delivered);
  // Deferred operations admit strictly after their arrival.
  bool any_later = false;
  for (const OpRecord& rec : rp.ops) {
    if (rec.admitted > rec.arrival) any_later = true;
  }
  EXPECT_TRUE(any_later);
}

TEST(TrafficEngine, AdmissionOrderDeterministicAcrossSeedsAndReruns) {
  const Rig rig = make_rig(19, 64);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kPaced)};
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    WorkloadConfig wcfg = mix_config(25.0, 16);
    wcfg.seed = seed;
    const Workload wl = generate_workload(64, rig.cco, wcfg);
    const TrafficResult first = engine.run(wl);
    const TrafficResult again = engine.run(wl);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_result(first, again);
  }
}

TEST(TrafficEngine, MixedWorkloadMatchesRecordedGoldens) {
  // Pins the coordinator's observable schedule: collectives (gather then
  // broadcast), churn streams (prefix then re-bound suffix) and paced
  // deferrals. The values were recorded with the
  // original sweep-every-instant coordinator; any change to when phase-1
  // launches, releases or admissions happen moves them.
  const Rig rig = make_rig(37, 64);
  WorkloadConfig wcfg = mix_config(40.0, 48);
  wcfg.stream_fraction = 0.4;
  wcfg.collective_fraction = 0.3;
  wcfg.churn_probability = 0.7;
  const Workload wl = generate_workload(64, rig.cco, wcfg);
  ASSERT_GT(wl.collectives, 0);
  ASSERT_GT(wl.churns, 0);
  struct Golden {
    Policy policy;
    std::uint64_t digest;
    std::int64_t makespan_ns;
    std::int64_t ticks;
    std::int64_t deferral_ticks;
  };
  const Golden goldens[] = {
      {Policy::kFifo, 14596438927934257922u, 1451520, 103, 0},
      {Policy::kPaced, 5532902317239142017u, 1583998, 135, 331},
  };
  for (const Golden& g : goldens) {
    const TrafficEngine engine{*rig.topology, *rig.routes,
                               engine_config(g.policy)};
    const TrafficResult r = engine.run(wl);
    SCOPED_TRACE(to_string(g.policy));
    EXPECT_EQ(r.digest, g.digest);
    EXPECT_EQ(r.makespan.count_ns(), g.makespan_ns);
    EXPECT_EQ(r.ticks, g.ticks);
    EXPECT_EQ(r.deferral_ticks, g.deferral_ticks);
  }
}

// The paper's "multiple multicast" batch (MulticastEngine::run_many) and a
// FIFO traffic mix of the same multicasts are one computation: trees
// launched at given times on one shared fabric, run to quiescence. On six
// paper fabrics, batches of 1-16 concurrent n = 16, m = 8 multicasts on
// the CCO chain, started together or 7 us apart, must agree on every
// per-op latency, the makespan, the block time, the event count and the
// dispatch order (sim::Simulator::DispatchDigest).
TEST(TrafficEngine, FifoMixEqualsRunMany) {
  constexpr std::int32_t kN = 16;
  constexpr std::int32_t kM = 8;
  const std::int32_t k = core::optimal_k(kN, kM).k;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng{seed};
    const core::Fabric fabric =
        core::Fabric::irregular(topo::IrregularConfig{}, rng);
    const mcast::MulticastEngine batch_engine{fabric.topology(),
                                              fabric.routes(), {}};
    const TrafficEngine fifo{fabric.topology(), fabric.routes(),
                             engine_config(Policy::kFifo)};
    for (const std::int32_t ops : {1, 2, 4, 8, 16}) {
      for (const bool staggered : {false, true}) {
        std::vector<mcast::MulticastSpec> specs;
        Workload wl;
        for (std::int32_t op = 0; op < ops; ++op) {
          const auto draw = rng.sample_without_replacement(
              static_cast<std::size_t>(fabric.num_hosts()), kN);
          std::vector<topo::HostId> dests;
          for (std::size_t i = 1; i < draw.size(); ++i) {
            dests.push_back(static_cast<topo::HostId>(draw[i]));
          }
          const core::Chain members = core::arrange_participants(
              fabric.chain(), static_cast<topo::HostId>(draw.front()), dests);
          TrafficOp top;
          top.arrival = staggered ? sim::Time::us(7.0 * op) : sim::Time::zero();
          top.tree = core::HostTree::bind(core::make_kbinomial(kN, k), members);
          top.packets = kM;
          specs.push_back(mcast::MulticastSpec{top.tree, kM, top.arrival});
          wl.ops.push_back(std::move(top));
        }
        sim::Simulator::DispatchDigest batch_digest;
        sim::Simulator::DispatchDigest fifo_digest;
        sim::Simulator::set_dispatch_digest(&batch_digest);
        const mcast::MultiMulticastResult mr = batch_engine.run_many(specs);
        sim::Simulator::set_dispatch_digest(&fifo_digest);
        const TrafficResult tr = fifo.run(wl);
        sim::Simulator::set_dispatch_digest(nullptr);
        SCOPED_TRACE("seed " + std::to_string(seed) + " ops " +
                     std::to_string(ops) + (staggered ? " staggered" : ""));
        ASSERT_EQ(tr.ops.size(), mr.operations.size());
        for (std::size_t op = 0; op < tr.ops.size(); ++op) {
          EXPECT_EQ(tr.ops[op].fct(), mr.operations[op].latency) << "op " << op;
        }
        EXPECT_EQ(tr.makespan, mr.makespan);
        EXPECT_EQ(tr.total_channel_block_time, mr.total_channel_block_time);
        EXPECT_EQ(tr.events_dispatched, mr.events_dispatched);
        EXPECT_EQ(fifo_digest.events, batch_digest.events);
        EXPECT_EQ(fifo_digest.fnv, batch_digest.fnv);
      }
    }
  }
}

// Faults and loss run single-phase mixes but reject compound ops up
// front: a collective's broadcast or a churn stream's suffix waits on a
// first phase that may never finish, so the tick chain would never stop.
TEST(TrafficEngine, RejectsCompoundOpsOnFaultyAndLossyFabrics) {
  const Rig rig = make_rig(29);
  WorkloadConfig wcfg = mix_config(2.0, 16);
  wcfg.stream_fraction = 0.4;
  wcfg.churn_probability = 1.0;
  const Workload mixed = generate_workload(32, rig.cco, wcfg);
  ASSERT_GT(mixed.collectives, 0);
  ASSERT_GT(mixed.churns, 0);
  Workload single;
  for (const TrafficOp& op : mixed.ops) {
    if (op.cls != OpClass::kCollective && !op.churn) single.ops.push_back(op);
  }
  ASSERT_FALSE(single.ops.empty());
  TrafficConfig faulty = engine_config(Policy::kPaced);
  faulty.network.faults.link_down(sim::Time::us(1.0), 0);
  TrafficConfig lossy = engine_config(Policy::kFifo);
  lossy.network.loss_rate = 0.1;
  lossy.style = mcast::NiStyle::kReliableFpfs;
  for (const TrafficConfig& cfg : {faulty, lossy}) {
    const TrafficEngine engine{*rig.topology, *rig.routes, cfg};
    EXPECT_THROW((void)engine.run(mixed), std::invalid_argument);
    const TrafficResult r = engine.run(single);
    EXPECT_EQ(r.ops.size(), single.ops.size());
  }
}

/// Makes every collective of `wl` a real `kind` collective, or, without a
/// kind, a real one of each kind in turn.
void make_collectives_real(Workload& wl,
                           std::optional<netif::CollectiveKind> kind = {}) {
  std::uint8_t next = 0;
  for (TrafficOp& op : wl.ops) {
    if (op.cls != OpClass::kCollective) continue;
    op.kind = kind ? *kind : static_cast<netif::CollectiveKind>(next++ % 5);
  }
}

// Real-kind collectives are single-phase, so a fault plan runs them, with
// repair and hand-off; their firmware has no retransmit, so loss rejects
// them up front.
TEST(TrafficEngine, RunsRealCollectivesUnderFaultsButNotUnderLoss) {
  const Rig rig = make_rig(29);
  WorkloadConfig wcfg = mix_config(2.0, 16);
  wcfg.collective_fraction = 0.5;
  wcfg.churn_probability = 0.0;
  Workload wl = generate_workload(32, rig.cco, wcfg);
  ASSERT_GE(wl.collectives, 5);
  make_collectives_real(wl);
  TrafficConfig faulty = engine_config(Policy::kPaced);
  faulty.network.faults.link_down(sim::Time::us(1.0), 0);
  std::int32_t killed = 0;
  for (const TrafficOp& op : wl.ops) {
    if (op.cls != OpClass::kCollective || killed == 3) continue;
    faulty.network.faults.host_down(op.arrival + sim::Time::us(20.0),
                                    op.tree.root);
    ++killed;
  }
  const TrafficEngine engine{*rig.topology, *rig.routes, faulty};
  const TrafficResult r = engine.run(wl);
  ASSERT_EQ(r.ops.size(), wl.ops.size());
  std::int32_t handoffs = 0;
  for (const OpRecord& rec : r.ops) handoffs += rec.root_handoffs;
  EXPECT_GT(handoffs, 0);
  expect_same_result(r, engine.run(wl));

  TrafficConfig lossy = engine_config(Policy::kFifo);
  lossy.network.loss_rate = 0.1;
  lossy.style = mcast::NiStyle::kReliableFpfs;
  const TrafficEngine lossy_engine{*rig.topology, *rig.routes, lossy};
  EXPECT_THROW((void)lossy_engine.run(wl), std::invalid_argument);
}

// Real all-reduces and multicasts on one fabric, their firmware sharing
// each host's NI: every all-reduce moves its packets up and back down
// every tree edge, 2 (group - 1) packets each, every op completes at
// every host, and a rerun is identical.
TEST(TrafficEngine, RealAllReducesShareHostNisWithMulticasts) {
  const Rig rig = make_rig(41);
  WorkloadConfig wcfg = mix_config(20.0, 24);
  wcfg.stream_fraction = 0.0;
  wcfg.collective_fraction = 0.5;
  Workload wl = generate_workload(32, rig.cco, wcfg);
  ASSERT_GT(wl.collectives, 0);
  ASSERT_GT(wl.multicasts, 0);
  make_collectives_real(wl, netif::CollectiveKind::kAllReduce);
  std::set<topo::HostId> in_collectives;
  std::set<topo::HostId> in_multicasts;
  for (const TrafficOp& op : wl.ops) {
    (op.kind ? in_collectives : in_multicasts)
        .insert(op.tree.nodes.begin(), op.tree.nodes.end());
  }
  EXPECT_TRUE(std::any_of(
      in_collectives.begin(), in_collectives.end(),
      [&](topo::HostId h) { return in_multicasts.contains(h); }));
  for (const Policy policy : {Policy::kFifo, Policy::kPaced}) {
    SCOPED_TRACE(to_string(policy));
    const TrafficEngine engine{*rig.topology, *rig.routes,
                               engine_config(policy)};
    const TrafficResult r = engine.run(wl);
    ASSERT_EQ(r.ops.size(), wl.ops.size());
    for (std::size_t i = 0; i < r.ops.size(); ++i) {
      const TrafficOp& op = wl.ops[i];
      const OpRecord& rec = r.ops[i];
      const auto edges = static_cast<std::int64_t>(op.tree.size() - 1);
      EXPECT_EQ(rec.outcome, mcast::Outcome::kComplete) << "op " << i;
      if (op.kind) {
        EXPECT_EQ(rec.packets_delivered, 2 * edges * op.packets) << "op " << i;
        EXPECT_EQ(rec.completions.size(), op.tree.nodes.size()) << "op " << i;
        EXPECT_EQ(rec.contributors, op.tree.nodes) << "op " << i;
      } else {
        EXPECT_EQ(rec.packets_delivered, edges * op.packets) << "op " << i;
      }
    }
    expect_same_result(r, engine.run(wl));
  }
}

TEST(TrafficEngine, RejectsMalformedWorkloads) {
  const Rig rig = make_rig(31);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kFifo)};
  EXPECT_THROW((void)engine.run(Workload{}), std::invalid_argument);
  const Workload wl = generate_workload(32, rig.cco, mix_config(2.0, 4));
  Workload bad = wl;
  bad.ops.front().packets = 0;
  EXPECT_THROW((void)engine.run(bad), std::invalid_argument);
  bad = wl;
  bad.ops.back().tree.nodes.back() = 32;
  EXPECT_THROW((void)engine.run(bad), std::invalid_argument);
}

// Arrivals need not be sorted: each op still launches at its own
// arrival, and the makespan counts from the earliest one.
TEST(TrafficEngine, AcceptsArrivalsInAnyOrder) {
  const Rig rig = make_rig(31);
  const TrafficEngine engine{*rig.topology, *rig.routes,
                             engine_config(Policy::kFifo)};
  Workload wl = generate_workload(32, rig.cco, mix_config(2.0, 4));
  std::swap(wl.ops.front().arrival, wl.ops.back().arrival);
  const TrafficResult r = engine.run(wl);
  sim::Time first = r.ops.front().arrival;
  sim::Time last;
  for (const OpRecord& rec : r.ops) {
    EXPECT_EQ(rec.admitted, rec.arrival);
    EXPECT_GT(rec.completed, rec.arrival);
    first = std::min(first, rec.arrival);
    last = std::max(last, rec.completed);
  }
  EXPECT_EQ(r.makespan, last - first);
}

}  // namespace
}  // namespace nimcast::traffic
