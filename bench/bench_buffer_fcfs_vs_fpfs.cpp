// Reproduces the Section 3.3.2 buffer-requirement comparison of the two
// smart-NI implementations. Analytic per-packet holding times
// (T_f = ((c-1)m + 1) t_nd vs T_p = c t_nd) side by side with measured
// NI buffer occupancy from full-system simulation of a fan-out
// intermediate node.

#include "analysis/buffer_model.hpp"
#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/up_down.hpp"

using namespace nimcast;

namespace {

struct Measured {
  double peak;
  double integral;
};

/// source -> intermediate -> c leaves, all on one switch (contention-free
/// apart from the intermediate's own injection channel — the paper's
/// best-case assumption).
Measured measure(std::int32_t children, std::int32_t m,
                 mcast::NiStyle style) {
  const auto hosts = static_cast<std::size_t>(children) + 2;
  topo::Topology topology{topo::Graph{1, {}},
                          std::vector<topo::SwitchId>(hosts, 0), "star"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  std::vector<topo::HostId> nodes{0, 1};
  std::vector<std::vector<topo::HostId>> kids{{1}, {}};
  for (std::int32_t c = 0; c < children; ++c) {
    const topo::HostId leaf = 2 + c;
    nodes.push_back(leaf);
    kids[1].push_back(leaf);
    kids.emplace_back();
  }
  const core::HostTree tree{std::move(nodes), kids};
  mcast::MulticastEngine engine{
      topology, routes,
      mcast::MulticastEngine::Config{netif::SystemParams{},
                                     net::NetworkConfig{}, style}};
  const auto result = engine.run(tree, m);
  for (const auto& b : result.buffers) {
    if (b.host == 1) return Measured{b.peak_packets, b.packet_us_integral};
  }
  return Measured{0, 0};
}

}  // namespace

int main() {
  std::printf("=== Sec. 3.3.2 reproduction: FCFS vs FPFS buffer demand at "
              "an intermediate NI ===\n\n");
  const sim::Time t_nd = netif::SystemParams{}.t_snd;

  harness::Table table{{"children c", "packets m", "T_f model (us)",
                        "T_p model (us)", "FCFS sim peak (pkts)",
                        "FPFS sim peak (pkts)", "FCFS sim integral",
                        "FPFS sim integral"}};
  for (const std::int32_t c : {1, 2, 4, 7}) {
    for (const std::int32_t m : {1, 2, 4, 8, 16}) {
      const auto fcfs = measure(c, m, mcast::NiStyle::kSmartFcfs);
      const auto fpfs = measure(c, m, mcast::NiStyle::kSmartFpfs);
      table.add_row(
          {harness::Table::num(std::int64_t{c}),
           harness::Table::num(std::int64_t{m}),
           harness::Table::num(
               analysis::fcfs_holding_time(c, m, t_nd).as_us()),
           harness::Table::num(analysis::fpfs_holding_time(c, t_nd).as_us()),
           harness::Table::num(fcfs.peak, 0),
           harness::Table::num(fpfs.peak, 0),
           harness::Table::num(fcfs.integral),
           harness::Table::num(fpfs.integral)});

      bench::expect_shape(fcfs.integral >= fpfs.integral - 1e-9,
                          "Sec3.3.2: FCFS buffer demand >= FPFS");
      bench::expect_shape(fcfs.peak >= fpfs.peak - 1e-9,
                          "Sec3.3.2: FCFS peak >= FPFS peak");
      if (c >= 2) {
        // FCFS must hold the whole message at the fan-out node.
        bench::expect_shape(fcfs.peak == static_cast<double>(m),
                            "Sec3.3.2: FCFS buffers all m packets");
      }
      if (c >= 2 && m >= 8) {
        bench::expect_shape(fpfs.peak <= static_cast<double>(m) / 2.0,
                            "Sec3.3.2: FPFS peak well below message size");
      }
    }
  }
  table.print(std::cout);
  table.write_csv("buffer_fcfs_vs_fpfs.csv");

  std::printf("\nPer-packet holding-time ratio T_f / T_p grows linearly in "
              "m (slope (c-1)/c):\n");
  for (const std::int32_t c : {2, 4, 7}) {
    std::printf("  c=%d: ", c);
    for (const std::int32_t m : {1, 4, 16, 64}) {
      const double ratio =
          analysis::fcfs_holding_time(c, m, t_nd).as_us() /
          analysis::fpfs_holding_time(c, t_nd).as_us();
      std::printf("m=%-3d %.1fx   ", m, ratio);
    }
    std::printf("\n");
  }

  return bench::finish("bench_buffer_fcfs_vs_fpfs");
}
