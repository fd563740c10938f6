// Scenario: a network-interface designer evaluating multicast firmware
// options — the Section 2/3 design space of the paper:
//   (a) does smart forwarding (NI replicates packets) pay off over the
//       conventional host-forwarded path?
//   (b) FCFS or FPFS replication discipline? (buffer memory is the
//       scarce resource on an NI)
//   (c) how big is the optimal-k lookup table the firmware must carry?
//
// Run: ./build/examples/ni_design_study

#include <cstdio>

#include "analysis/buffer_model.hpp"
#include "analysis/latency_model.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"

namespace {

using namespace nimcast;

/// Fan-out fixture: source -> intermediate -> `children` leaves on one
/// switch; the intermediate NI is the object of study.
mcast::MulticastResult run_fanout(std::int32_t children, std::int32_t m,
                                  mcast::NiStyle style) {
  const auto hosts = static_cast<std::size_t>(children) + 2;
  topo::Topology topology{topo::Graph{1, {}},
                          std::vector<topo::SwitchId>(hosts, 0), "star"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  std::vector<topo::HostId> nodes{0, 1};
  std::vector<std::vector<topo::HostId>> kids{{1}, {}};
  for (std::int32_t c = 0; c < children; ++c) {
    nodes.push_back(2 + c);
    kids[1].push_back(2 + c);
    kids.emplace_back();
  }
  const core::HostTree tree{std::move(nodes), kids};
  mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{}, style}};
  return engine.run(tree, m);
}

double intermediate_buffer_integral(const mcast::MulticastResult& r) {
  for (const auto& b : r.buffers) {
    if (b.host == 1) return b.packet_us_integral;
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace nimcast;
  const netif::SystemParams params;

  std::printf("=== NI design study ===\n\n");

  // (a) Smart vs conventional forwarding through one intermediate node.
  std::printf("(a) forwarding path, 8-packet message through one "
              "intermediate with 4 children:\n");
  const auto conv = run_fanout(4, 8, mcast::NiStyle::kConventional);
  const auto smart = run_fanout(4, 8, mcast::NiStyle::kSmartFpfs);
  std::printf("    conventional (host forwards): %s\n",
              conv.latency.to_string().c_str());
  std::printf("    smart NI (coprocessor forwards): %s  -> %.2fx faster\n\n",
              smart.latency.to_string().c_str(),
              conv.latency.as_us() / smart.latency.as_us());

  // (b) FCFS vs FPFS buffer demand at that intermediate NI.
  std::printf("(b) replication discipline, buffer demand at the "
              "intermediate NI (packet-us integral):\n");
  std::printf("    %-4s %-4s %-12s %-12s %-22s\n", "c", "m", "FCFS sim",
              "FPFS sim", "model T_f/T_p ratio");
  for (const std::int32_t c : {2, 4, 7}) {
    for (const std::int32_t m : {4, 16}) {
      const auto fc = run_fanout(c, m, mcast::NiStyle::kSmartFcfs);
      const auto fp = run_fanout(c, m, mcast::NiStyle::kSmartFpfs);
      std::printf("    %-4d %-4d %-12.1f %-12.1f %-22.1f\n", c, m,
                  intermediate_buffer_integral(fc),
                  intermediate_buffer_integral(fp),
                  analysis::fcfs_holding_time(c, m, params.t_snd).as_us() /
                      analysis::fpfs_holding_time(c, params.t_snd).as_us());
    }
  }
  std::printf("    -> FPFS: per-packet buffering independent of message "
              "length; FCFS: grows ~linearly with it.\n\n");

  // (c) Firmware table for the optimal k (Section 4.3.1).
  const core::OptimalKTable table{64, 32};
  std::printf("(c) optimal-k firmware table for n <= 64, m <= 32:\n");
  std::printf("    dense entries: %d, breakpoint-compressed entries: %zu "
              "(%.1f%% of dense)\n",
              63 * 32, table.stored_entries(),
              100.0 * static_cast<double>(table.stored_entries()) /
                  (63.0 * 32.0));
  std::printf("    example lookups: (n=48,m=4) -> k=%d; (n=64,m=16) -> "
              "k=%d; (n=16,m=32) -> k=%d\n",
              table.lookup(48, 4).k, table.lookup(64, 16).k,
              table.lookup(16, 32).k);

  return 0;
}
