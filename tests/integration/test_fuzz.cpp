// Randomized consistency fuzzing: hundreds of random configurations
// checked against invariants and against the analytic theory. All seeds
// are fixed, so failures reproduce deterministically.

#include <gtest/gtest.h>

#include "core/coverage.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "mcast/step_model.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "support/multicast_mix.hpp"
#include "topology/irregular.hpp"

namespace nimcast {
namespace {

TEST(Fuzz, RandomKBinomialTreesHonorAllInvariants) {
  sim::Rng rng{20260706};
  core::CoverageTable cov;
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<std::int32_t>(rng.next_in(1, 400));
    const auto k = static_cast<std::int32_t>(rng.next_in(1, 9));
    const auto tree = core::make_kbinomial(n, k);
    ASSERT_NO_THROW(tree.validate()) << "n=" << n << " k=" << k;
    ASSERT_EQ(tree.size(), n);
    ASSERT_LE(tree.max_children(), k);
    ASSERT_LE(tree.max_children(), std::max(1, tree.root_children()))
        << "a descendant out-fans the root (breaks Theorem 1); n=" << n
        << " k=" << k;
    ASSERT_EQ(tree.steps_to_complete(),
              cov.min_steps(static_cast<std::uint64_t>(n), k));
  }
}

TEST(Fuzz, StepModelAlwaysMatchesTheorem2) {
  sim::Rng rng{424242};
  core::CoverageTable cov;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::int32_t>(rng.next_in(2, 200));
    const auto k = static_cast<std::int32_t>(rng.next_in(1, 8));
    const auto m = static_cast<std::int32_t>(rng.next_in(1, 24));
    const auto tree = core::make_kbinomial(n, k);
    const auto sched =
        mcast::step_schedule(tree, m, mcast::Discipline::kFpfs);
    const auto t1 = cov.min_steps(static_cast<std::uint64_t>(n), k);
    ASSERT_EQ(sched.total_steps, t1 + (m - 1) * tree.root_children())
        << "n=" << n << " k=" << k << " m=" << m;
  }
}

TEST(Fuzz, OptimalKAlwaysWithinInterval) {
  sim::Rng rng{777};
  core::CoverageTable cov;
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::int32_t>(rng.next_in(2, 3000));
    const auto m = static_cast<std::int32_t>(rng.next_in(1, 200));
    const auto c = core::optimal_k(n, m, cov);
    ASSERT_GE(c.k, 1);
    ASSERT_LE(c.k, core::ceil_log2(static_cast<std::uint64_t>(n)));
    ASSERT_EQ(c.t1, cov.min_steps(static_cast<std::uint64_t>(n), c.k));
  }
}

TEST(Fuzz, ArrangeParticipantsAlwaysValid) {
  sim::Rng rng{31337};
  for (int trial = 0; trial < 200; ++trial) {
    const auto hosts = static_cast<std::int32_t>(rng.next_in(4, 128));
    core::Chain chain = core::random_ordering(hosts, rng);
    const auto n =
        static_cast<std::size_t>(rng.next_in(2, hosts));
    const auto draw = rng.sample_without_replacement(
        static_cast<std::size_t>(hosts), n);
    const auto source = static_cast<topo::HostId>(draw.front());
    std::vector<topo::HostId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i) {
      dests.push_back(static_cast<topo::HostId>(draw[i]));
    }
    const auto members = core::arrange_participants(chain, source, dests);
    ASSERT_EQ(members.size(), n);
    ASSERT_EQ(members.front(), source);
    std::set<topo::HostId> uniq{members.begin(), members.end()};
    ASSERT_EQ(uniq.size(), n);
  }
}

TEST(Fuzz, RandomMulticastsOnRandomClustersAllComplete) {
  sim::Rng rng{55};
  for (int trial = 0; trial < 12; ++trial) {
    const auto topology =
        topo::make_irregular(topo::IrregularConfig{}, rng);
    const routing::UpDownRouter router{topology.switches()};
    const routing::RouteTable routes{topology, router};
    const auto chain = core::cco_ordering(topology, router);
    const auto n = static_cast<std::int32_t>(rng.next_in(2, 64));
    const auto m = static_cast<std::int32_t>(rng.next_in(1, 12));
    const auto spec_k = core::optimal_k(n, m).k;
    const auto draw = rng.sample_without_replacement(
        64, static_cast<std::size_t>(n));
    std::vector<topo::HostId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i) {
      dests.push_back(static_cast<topo::HostId>(draw[i]));
    }
    const auto members = core::arrange_participants(
        chain, static_cast<topo::HostId>(draw.front()), dests);
    const auto tree =
        core::HostTree::bind(core::make_kbinomial(n, spec_k), members);

    for (const auto style :
         {mcast::NiStyle::kSmartFpfs, mcast::NiStyle::kSmartFcfs,
          mcast::NiStyle::kConventional, mcast::NiStyle::kReliableFpfs}) {
      const mcast::MulticastEngine engine{
          topology, routes,
          mcast::MulticastEngine::Config{netif::SystemParams{},
                                         net::NetworkConfig{}, style}};
      const auto result = engine.run(tree, m);
      ASSERT_EQ(result.completions.size(), static_cast<std::size_t>(n - 1))
          << "trial " << trial << " style " << mcast::to_string(style);
      ASSERT_GE(result.latency, result.ni_latency);
    }
  }
}

TEST(Fuzz, RandomConcurrentBatchesConserveCompletions) {
  sim::Rng rng{808};
  const auto topology = topo::make_irregular(topo::IrregularConfig{}, rng);
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  const traffic::TrafficEngine engine{topology, routes, test::fifo_config()};
  for (int trial = 0; trial < 10; ++trial) {
    const auto ops = static_cast<std::int32_t>(rng.next_in(1, 6));
    std::vector<test::Multicast> specs;
    std::vector<std::int32_t> sizes;
    for (std::int32_t op = 0; op < ops; ++op) {
      const auto n = static_cast<std::int32_t>(rng.next_in(2, 20));
      const auto m = static_cast<std::int32_t>(rng.next_in(1, 6));
      const auto draw =
          rng.sample_without_replacement(64, static_cast<std::size_t>(n));
      std::vector<topo::HostId> dests;
      for (std::size_t i = 1; i < draw.size(); ++i) {
        dests.push_back(static_cast<topo::HostId>(draw[i]));
      }
      const auto members = core::arrange_participants(
          chain, static_cast<topo::HostId>(draw.front()), dests);
      // Starts in random order: the mix need not arrive sorted.
      specs.push_back(test::Multicast{
          core::HostTree::bind(core::make_kbinomial(n, 2), members), m,
          sim::Time::us(static_cast<double>(rng.next_in(0, 100)))});
      sizes.push_back(n);
    }
    const auto batch = engine.run(test::multicast_mix(specs));
    for (std::size_t op = 0; op < specs.size(); ++op) {
      ASSERT_EQ(batch.ops[op].completions.size(),
                static_cast<std::size_t>(sizes[op] - 1));
    }
  }
}

}  // namespace
}  // namespace nimcast
