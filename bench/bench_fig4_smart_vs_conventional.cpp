// Reproduces paper Figure 4 / Section 2.5: the benefit of smart network
// interface support. A binomial multicast over a conventional NI pays the
// host software overheads (t_s, t_r) at every tree level; the smart NI
// pays them once. Prints both the closed-form expressions and the
// full-system simulation, for single-packet (the paper's Fig. 4) and
// multi-packet messages (the motivating case).

#include "analysis/latency_model.hpp"
#include "bench/common.hpp"

using namespace nimcast;

int main() {
  std::printf("=== Fig. 4 reproduction: smart vs conventional network "
              "interface ===\n\n");
  const harness::Testbed bed{bench::paper_testbed_config()};

  // Analytic t_step over a typical 2-link path of the irregular network.
  const auto model = analysis::LatencyModel::from_network(
      netif::SystemParams{}, net::NetworkConfig{}, 2);
  std::printf("analytic t_step = %s (t_snd + wire + t_rcv over 2 hops)\n\n",
              model.t_step().to_string().c_str());

  for (const std::int32_t m : {1, 4}) {
    std::printf("--- %d-packet multicast, binomial tree ---\n", m);
    harness::Table table{{"n", "conv (model)", "smart (model)",
                          "conv (sim)", "smart (sim)", "sim ratio"}};
    std::vector<double> ratios;
    for (const std::int32_t n : {2, 4, 8, 16, 32, 64}) {
      const auto conv_sim = bed.measure(n, m, harness::TreeSpec::binomial(),
                                        mcast::NiStyle::kConventional);
      const auto smart_sim = bed.measure(n, m, harness::TreeSpec::binomial(),
                                         mcast::NiStyle::kSmartFpfs);
      const double ratio =
          conv_sim.latency_us.mean() / smart_sim.latency_us.mean();
      ratios.push_back(ratio);
      table.add_row({harness::Table::num(std::int64_t{n}),
                     harness::Table::num(
                         model.conventional_binomial(n, m).as_us()),
                     harness::Table::num(model.smart_binomial(n, m).as_us()),
                     harness::Table::num(conv_sim.latency_us.mean()),
                     harness::Table::num(smart_sim.latency_us.mean()),
                     harness::Table::num(ratio, 2)});

      // With a single destination nothing is forwarded, so the NI styles
      // tie; every n with an intermediate level must show a strict win.
      bench::expect_shape(
          n == 2 ? conv_sim.latency_us.mean() >=
                       smart_sim.latency_us.mean() - 1e-9
                 : conv_sim.latency_us.mean() > smart_sim.latency_us.mean(),
          "Fig4: smart NI never slower, strictly faster for n>=4 (n=" +
              std::to_string(n) + ")");
    }
    table.print(std::cout);
    table.write_csv(m == 1 ? "fig4_m1.csv" : "fig4_m4.csv");
    std::printf("\n");

    // The gap grows with the multicast set size (more levels paying
    // t_s + t_r again).
    for (std::size_t i = 2; i < ratios.size(); ++i) {
      bench::expect_shape(ratios[i] >= ratios[i - 1] - 0.05,
                          "Fig4: advantage grows with set size");
    }
    bench::expect_shape(ratios.back() > 2.0,
                        "Fig4: smart NI at least 2x faster at n=64");
  }

  return bench::finish("bench_fig4_smart_vs_conventional");
}
