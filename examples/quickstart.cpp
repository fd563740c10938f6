// Quickstart: multicast one 8-packet message to 15 destinations on a
// 64-host irregular switch-based network, comparing the conventional
// binomial tree against the paper's optimal k-binomial tree under FPFS
// smart-NI forwarding.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart

#include <cstdio>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "harness/testbed.hpp"
#include "mcast/step_model.hpp"

int main() {
  using namespace nimcast;

  // 1. The analytic side needs no network at all: Theorem 3 picks the
  //    fan-out bound k that minimizes t_1 + (m-1)k pipelined steps.
  const std::int32_t n = 16;  // multicast set size (source + 15 dests)
  const std::int32_t m = 8;   // packets per message
  const core::OptimalChoice choice = core::optimal_k(n, m);
  std::printf("Theorem 3: n=%d m=%d  ->  k*=%d, t1=%d, total=%lld steps\n",
              n, m, choice.k, choice.t1,
              static_cast<long long>(choice.total_steps));

  const core::RankTree kbin = core::make_kbinomial(n, choice.k);
  const core::RankTree bin = core::make_binomial(n);
  std::printf("binomial:  %d steps for m=%d packets (step model)\n",
              mcast::step_schedule(bin, m, mcast::Discipline::kFpfs)
                  .total_steps,
              m);
  std::printf("k-binomial:%d steps for m=%d packets (step model)\n",
              mcast::step_schedule(kbin, m, mcast::Discipline::kFpfs)
                  .total_steps,
              m);

  // 2. Full-system simulation: random irregular 64-host network,
  //    up*/down* routing, CCO ordering, FPFS smart NIs (paper Sec. 5.2
  //    parameters are the defaults). One topology and a handful of
  //    destination draws keep the quickstart fast.
  harness::TestbedSpec cfg;
  cfg.num_topologies = 2;
  cfg.sets_per_topology = 10;
  harness::Testbed testbed{cfg};

  const auto binomial = testbed.measure(n, m, harness::TreeSpec::binomial(),
                                        mcast::NiStyle::kSmartFpfs);
  const auto optimal = testbed.measure(n, m, harness::TreeSpec::optimal(),
                                       mcast::NiStyle::kSmartFpfs);
  std::printf("\nsimulated multicast latency (mean over %zu runs):\n",
              binomial.latency_us.count());
  std::printf("  binomial tree     : %7.1f us\n", binomial.latency_us.mean());
  std::printf("  opt k-binomial    : %7.1f us   (%.2fx faster)\n",
              optimal.latency_us.mean(),
              binomial.latency_us.mean() / optimal.latency_us.mean());
  return 0;
}
