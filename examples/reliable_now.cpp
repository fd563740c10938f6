// Scenario: a network of workstations with a *lossy* interconnect — the
// setting of the reliable-multicast systems the paper cites ([4] over
// ATM, [12] over Myrinet). Runs the same optimal k-binomial multicast
// with plain FPFS firmware (which silently never completes under loss)
// and with the reliable ACK/retransmit firmware, across loss rates, and
// dumps a Perfetto trace plus Graphviz renderings of the tree and the
// cluster for inspection.
//
// Run: ./build/examples/reliable_now [loss_percent]

#include <cstdio>
#include <cstdlib>

#include "core/dot_export.hpp"
#include "core/fabric.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "mcast/multicast_engine.hpp"
#include "sim/trace_export.hpp"

int main(int argc, char** argv) {
  using namespace nimcast;
  const double loss =
      (argc > 1 ? std::strtod(argv[1], nullptr) : 10.0) / 100.0;

  sim::Rng rng{2026};
  const auto fabric = core::Fabric::irregular(topo::IrregularConfig{}, rng);
  const topo::Topology& now = fabric.topology();
  const routing::RouteTable& routes = fabric.routes();
  const core::Chain& chain = fabric.chain();

  const std::int32_t n = 24;
  const std::int32_t m = 8;
  const auto choice = core::optimal_k(n, m);
  std::vector<topo::HostId> dests{chain.begin() + 1, chain.begin() + n};
  const auto members = core::arrange_participants(chain, chain[0], dests);
  const auto tree =
      core::HostTree::bind(core::make_kbinomial(n, choice.k), members);

  std::printf("system: %s, multicast %d packets to %d dests, k*=%d\n",
              now.name().c_str(), m, n - 1, choice.k);
  core::write_dot(core::to_dot(tree), "/tmp/reliable_now_tree.dot");
  core::write_dot(core::to_dot(now), "/tmp/reliable_now_cluster.dot");
  std::printf("wrote /tmp/reliable_now_tree.dot and "
              "/tmp/reliable_now_cluster.dot (render with graphviz)\n\n");

  net::NetworkConfig lossless;
  mcast::MulticastEngine baseline{
      now, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{}, lossless,
                                     mcast::NiStyle::kSmartFpfs}};
  const auto ref = baseline.run(tree, m);
  std::printf("lossless fabric, plain FPFS     : %8.1f us\n",
              ref.latency.as_us());

  net::NetworkConfig lossy;
  lossy.loss_rate = loss;
  // Plain FPFS under loss: packets vanish, destinations starve, and the
  // engine reports the incomplete operation.
  mcast::MulticastEngine fragile{
      now, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{}, lossy,
                                     mcast::NiStyle::kSmartFpfs}};
  try {
    (void)fragile.run(tree, m);
    std::printf("plain FPFS at %.0f%% loss       : completed (lucky run)\n",
                loss * 100);
  } catch (const std::exception&) {
    std::printf("plain FPFS at %.0f%% loss        : NEVER COMPLETES "
                "(packets lost, no recovery)\n",
                loss * 100);
  }

  sim::Trace trace;
  trace.enable();
  mcast::MulticastEngine reliable{
      now, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{}, lossy,
                                     mcast::NiStyle::kReliableFpfs},
      &trace};
  const auto rel = reliable.run(tree, m);
  std::printf("reliable FPFS at %.0f%% loss     : %8.1f us  (%.2fx "
              "lossless)\n",
              loss * 100, rel.latency.as_us(),
              rel.latency.as_us() / ref.latency.as_us());
  sim::write_chrome_trace(trace, "/tmp/reliable_now_trace.json");
  std::printf("\nwrote /tmp/reliable_now_trace.json (%zu events) — open in "
              "ui.perfetto.dev, look for retx/DROP lines\n",
              trace.records().size());
  return 0;
}
