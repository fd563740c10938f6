#include "api/communicator.hpp"

#include <gtest/gtest.h>

namespace nimcast::api {
namespace {

TEST(Communicator, IrregularDefaultIsPaperSystem) {
  const auto comm = Communicator::irregular();
  EXPECT_EQ(comm.num_hosts(), 64);
  EXPECT_NE(comm.system_name().find("irregular"), std::string::npos);
}

TEST(Communicator, MeshFactory) {
  const auto comm =
      Communicator::mesh(topo::KAryNCubeConfig{4, 2, false});
  EXPECT_EQ(comm.num_hosts(), 16);
  EXPECT_NE(comm.system_name().find("mesh"), std::string::npos);
}

TEST(Communicator, TorusWorksWithVirtualChannels) {
  const auto torus = Communicator::mesh(topo::KAryNCubeConfig{4, 2, true});
  EXPECT_EQ(torus.num_hosts(), 16);
  const auto r = torus.broadcast(0, 256);
  EXPECT_GT(r.latency, sim::Time::zero());
  EXPECT_EQ(r.packets_on_wire, 15 * 4);
}

TEST(Communicator, PacketizationRoundsUp) {
  const auto comm = Communicator::irregular();
  EXPECT_EQ(comm.packetize(0), 1);
  EXPECT_EQ(comm.packetize(1), 1);
  EXPECT_EQ(comm.packetize(64), 1);
  EXPECT_EQ(comm.packetize(65), 2);
  EXPECT_EQ(comm.packetize(1024), 16);
}

TEST(Communicator, PlanFanoutMatchesTheorem3) {
  const auto comm = Communicator::irregular();
  EXPECT_EQ(comm.plan_fanout(64, 64), core::optimal_k(64, 1).k);
  EXPECT_EQ(comm.plan_fanout(64, 8 * 64), core::optimal_k(64, 8).k);
  EXPECT_EQ(comm.plan_fanout(16, 32 * 64), core::optimal_k(16, 32).k);
}

TEST(Communicator, MulticastReportIsConsistent) {
  const auto comm = Communicator::irregular();
  const std::vector<topo::HostId> dests{1, 5, 9, 13, 22, 40, 63};
  const auto r = comm.multicast(0, dests, 512);
  EXPECT_EQ(r.packets, 8);
  EXPECT_EQ(r.packets_on_wire,
            static_cast<std::int64_t>(dests.size()) * 8);
  EXPECT_GT(r.latency, sim::Time::zero());
  EXPECT_EQ(r.fanout_bound, core::optimal_k(8, 8).k);
}

TEST(Communicator, MulticastDeterministicAcrossCalls) {
  const auto comm = Communicator::irregular();
  const std::vector<topo::HostId> dests{3, 7, 11};
  const auto a = comm.multicast(0, dests, 256);
  const auto b = comm.multicast(0, dests, 256);
  EXPECT_EQ(a.latency, b.latency);
}

TEST(Communicator, LongerMessagesTakeLonger) {
  const auto comm = Communicator::irregular();
  const std::vector<topo::HostId> dests{1, 2, 3, 4, 5, 6, 7};
  sim::Time prev;
  for (const std::int64_t bytes : {64, 256, 1024, 4096}) {
    const auto r = comm.multicast(8, dests, bytes);
    EXPECT_GT(r.latency, prev);
    prev = r.latency;
  }
}

TEST(Communicator, BroadcastHitsEveryHost) {
  const auto comm = Communicator::irregular();
  const auto r = comm.broadcast(0, 128);
  EXPECT_EQ(r.packets_on_wire, 63 * 2);
}

TEST(Communicator, CollectivesRunAndScaleSanely) {
  const auto comm = Communicator::irregular();
  const auto scatter = comm.scatter(0, 128);
  const auto gather = comm.gather(0, 128);
  const auto reduce = comm.reduce(0, 128);
  const auto allreduce = comm.allreduce(0, 128);
  EXPECT_GT(scatter.latency, sim::Time::zero());
  EXPECT_GT(gather.latency, sim::Time::zero());
  // In-network combining keeps reduce cheaper than funnelling all data.
  EXPECT_LT(reduce.latency, gather.latency);
  EXPECT_GT(allreduce.latency, reduce.latency);
  // Reduce moves one message per edge; gather moves sum-of-depths.
  EXPECT_LT(reduce.packets_on_wire, gather.packets_on_wire);
}

TEST(Communicator, BraceListOverloadMatchesSpan) {
  const auto comm = Communicator::irregular();
  const std::vector<topo::HostId> v{3, 9, 17, 21};
  const auto a = comm.multicast(0, v, 4096);
  const auto b = comm.multicast(0, {3, 9, 17, 21}, 4096);  // README snippet
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.fanout_bound, b.fanout_bound);
}

TEST(Communicator, MulticastRejectsEmptyDestinations) {
  const auto comm = Communicator::irregular();
  EXPECT_THROW((void)comm.multicast(0, {}, 64), std::invalid_argument);
}

TEST(Communicator, SeedSelectsDifferentClusters) {
  Communicator::Options a;
  a.seed = 1;
  Communicator::Options b;
  b.seed = 2;
  const auto ca = Communicator::irregular({}, a);
  const auto cb = Communicator::irregular({}, b);
  const std::vector<topo::HostId> dests{9, 17, 33, 41};
  // Different wirings virtually never give identical latency.
  EXPECT_NE(ca.multicast(0, dests, 1024).latency,
            cb.multicast(0, dests, 1024).latency);
}

TEST(Communicator, MoveSemantics) {
  auto comm = Communicator::irregular();
  const auto moved = std::move(comm);
  EXPECT_EQ(moved.num_hosts(), 64);
}

TEST(Communicator, StreamBroadcastRotationBeatsFixedTree) {
  Communicator::Options fixed_opts;
  const auto fixed =
      Communicator::irregular(topo::IrregularConfig{}, fixed_opts);
  Communicator::Options rot_opts;
  rot_opts.rotation_trees = 4;
  const auto rotated =
      Communicator::irregular(topo::IrregularConfig{}, rot_opts);

  const std::int64_t bytes = 256 * 64;  // 256 packets: saturation
  const auto base = fixed.stream_broadcast(0, bytes);
  const auto r = rotated.stream_broadcast(0, bytes);
  EXPECT_EQ(base.rotation_used, 1);
  EXPECT_EQ(r.rotation_requested, 4);
  EXPECT_EQ(r.rotation_used, 4);
  EXPECT_EQ(r.packets, 256);
  EXPECT_EQ(r.outcome, mcast::Outcome::kComplete);
  EXPECT_EQ(r.delivered, 63);
  EXPECT_GT(r.overlap_mean, 0.0);
  EXPECT_GE(r.flits_per_us, 1.2 * base.flits_per_us);
  // Determinism across calls.
  const auto again = rotated.stream_broadcast(0, bytes);
  EXPECT_EQ(r.makespan, again.makespan);
  EXPECT_EQ(r.flits_per_us, again.flits_per_us);
}

TEST(Communicator, StreamBroadcastRotationNeedsUpDownRoutes) {
  Communicator::Options opts;
  opts.rotation_trees = 2;
  const auto comm = Communicator::mesh(topo::KAryNCubeConfig{4, 2, false},
                                       opts);
  EXPECT_THROW((void)comm.stream_broadcast(0, 1024), std::invalid_argument);
  // The fixed-tree configuration still streams on any fabric.
  Communicator::Options fixed_opts;
  const auto fixed = Communicator::mesh(topo::KAryNCubeConfig{4, 2, false},
                                        fixed_opts);
  const auto r = fixed.stream_broadcast(0, 1024);
  EXPECT_EQ(r.rotation_used, 1);
  EXPECT_EQ(r.delivered, 15);
}

// run_traffic runs Options::style, reliability and repair: a lossy
// fabric carries a single-phase mix on reliable NIs, and a mix with
// collectives is refused before anything runs.
TEST(Communicator, RunTrafficRejectsLossyMixWithCollectives) {
  Communicator::Options opts;
  opts.network.loss_rate = 0.1;
  opts.style = mcast::NiStyle::kReliableFpfs;
  opts.traffic_workload.num_ops = 8;
  opts.traffic_workload.collective_fraction = 0.5;
  EXPECT_THROW((void)Communicator::irregular({}, opts).run_traffic(),
               std::invalid_argument);
  opts.traffic_workload.collective_fraction = 0.0;
  opts.traffic_workload.churn_probability = 0.0;
  const auto r = Communicator::irregular({}, opts).run_traffic();
  EXPECT_EQ(r.ops, 8);
  EXPECT_EQ(r.collectives, 0);
  EXPECT_GT(r.packets_delivered, 0);
}

}  // namespace
}  // namespace nimcast::api
