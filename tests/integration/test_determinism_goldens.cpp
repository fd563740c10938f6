// Golden determinism tests: exact latencies for fixed seeds.
//
// Purpose: any change in event ordering, RNG consumption, tie-breaking
// or model arithmetic shifts these values, and such changes must be
// *deliberate*. If you change the model on purpose, update the goldens
// and say so in the commit; if you didn't, you have introduced
// nondeterminism or an accidental semantic change.
//
// (The values were produced by this implementation; they pin behaviour,
// not external truth.)

#include <gtest/gtest.h>

#include "api/communicator.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "harness/testbed.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topology/irregular.hpp"

namespace nimcast {
namespace {

TEST(Goldens, RngStream) {
  sim::Rng rng{1997};
  EXPECT_EQ(rng.next_u64(), UINT64_C(0x62dec0605b915f34));
}

TEST(Goldens, SingleMulticastOnSeededCluster) {
  sim::Rng rng{1997};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  const auto members = core::arrange_participants(
      chain, chain[0],
      {chain[5], chain[9], chain[20], chain[33], chain[47], chain[60],
       chain[63]});
  const auto tree = core::HostTree::bind(core::make_kbinomial(8, 2), members);
  const mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{},
                                     mcast::NiStyle::kSmartFpfs}};
  const auto result = engine.run(tree, 8);
  EXPECT_EQ(result.latency.count_ns(), 101'300);
  EXPECT_EQ(result.total_channel_block_time.count_ns(), 0);
}

TEST(Goldens, TestbedPoint) {
  harness::TestbedSpec cfg;
  cfg.num_topologies = 2;
  cfg.sets_per_topology = 5;
  cfg.seed = 77;
  const harness::Testbed bed{cfg};
  const auto p = bed.measure(16, 8, harness::TreeSpec::optimal(),
                             mcast::NiStyle::kSmartFpfs);
  EXPECT_NEAR(p.latency_us.mean(), 107.14, 1e-9);
}

TEST(Goldens, CommunicatorBroadcast) {
  const auto comm = api::Communicator::irregular();
  const auto r = comm.broadcast(0, 1024);
  EXPECT_EQ(r.latency.count_ns(), 188'300);
}

// Dispatch-order goldens: the FNV digest of every dispatched event's
// firing key, folded as (time, 0, order), in dispatch order, for whole
// measured points. Any change to the event core's ordering — not just one
// that moves a latency — shifts the digest. Recorded on the heap-only
// event queue that preceded the delay-lane queue.

sim::Simulator::DispatchDigest digest_dispatches(
    const harness::Testbed& bed, std::int32_t n, std::int32_t m) {
  sim::Simulator::DispatchDigest digest;
  sim::Simulator::set_dispatch_digest(&digest);
  // threads = 1: every replication dispatches on this thread, in order.
  (void)bed.measure(n, m, harness::TreeSpec::optimal(),
                    mcast::NiStyle::kSmartFpfs, harness::OrderingKind::kCco,
                    1);
  sim::Simulator::set_dispatch_digest(nullptr);
  return digest;
}

TEST(Goldens, PaperRigDispatchOrder) {
  // The paper's Section 5.2 rig (64 hosts, 16 switches, 10 topologies x
  // 30 destination sets), n = 64, m = 4.
  const harness::Testbed bed{harness::TestbedSpec::make_irregular(64)};
  const auto digest = digest_dispatches(bed, 64, 4);
  EXPECT_EQ(digest.events, UINT64_C(376308));
  EXPECT_EQ(digest.fnv, UINT64_C(0xce77800cf68ad03f));
}

TEST(Goldens, FatTree1024BroadcastDispatchOrder) {
  // One 1024-host broadcast, m = 16, on the 32x32-over-16 fat tree.
  harness::TestbedSpec spec = harness::TestbedSpec::make_fat_tree(1024);
  spec.num_topologies = 1;
  spec.sets_per_topology = 1;
  const harness::Testbed bed{spec};
  const auto digest = digest_dispatches(bed, 1024, 16);
  EXPECT_EQ(digest.events, UINT64_C(69409));
  EXPECT_EQ(digest.fnv, UINT64_C(0x340f3cc9c054e803));
}

}  // namespace
}  // namespace nimcast
