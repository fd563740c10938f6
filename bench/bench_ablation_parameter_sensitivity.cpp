// Ablation (ours): sensitivity of the k-binomial advantage to the system
// constants. The paper fixes t_s = t_r = 12.5us, t_snd = 3us,
// t_rcv = 2us, 64-byte packets. We sweep the NI send overhead and the
// link bandwidth and re-measure the binomial vs optimal-k-binomial ratio
// at the paper's headline point (47 destinations, 16 packets), showing
// the win is robust and which direction each knob moves it.

#include "bench/common.hpp"

using namespace nimcast;

namespace {

double ratio_at(harness::TestbedSpec cfg, std::int32_t n, std::int32_t m) {
  const harness::Testbed bed{cfg};
  const auto b = bed.measure(n, m, harness::TreeSpec::binomial(),
                             mcast::NiStyle::kSmartFpfs);
  const auto k = bed.measure(n, m, harness::TreeSpec::optimal(),
                             mcast::NiStyle::kSmartFpfs);
  return b.latency_us.mean() / k.latency_us.mean();
}

}  // namespace

int main() {
  std::printf("=== Ablation: parameter sensitivity of the k-binomial win "
              "(n=48, m=16) ===\n\n");

  auto base = bench::paper_testbed_config();
  // The sweep multiplies run count by its point count; trim repetitions.
  base.num_topologies = std::min(base.num_topologies, 4);
  base.sets_per_topology = std::min(base.sets_per_topology, 10);

  std::printf("NI send overhead t_snd (paper: 3.0 us):\n");
  harness::Table t1{{"t_snd (us)", "binomial/k-binomial"}};
  std::vector<double> by_tsnd;
  for (const double tsnd : {1.0, 2.0, 3.0, 5.0, 8.0}) {
    auto cfg = base;
    cfg.params.t_snd = sim::Time::us(tsnd);
    const double r = ratio_at(cfg, 48, 16);
    by_tsnd.push_back(r);
    t1.add_row({harness::Table::num(tsnd), harness::Table::num(r, 2)});
  }
  t1.print(std::cout);
  // Larger per-copy send cost amplifies the fan-out penalty of the
  // binomial tree, so the ratio must grow with t_snd.
  for (std::size_t i = 1; i < by_tsnd.size(); ++i) {
    bench::expect_shape(by_tsnd[i] >= by_tsnd[i - 1] - 0.03,
                        "ratio grows with t_snd");
  }
  bench::expect_shape(by_tsnd.front() > 1.1,
                      "k-binomial wins even with cheap sends");

  std::printf("\nHost software overhead t_s = t_r (paper: 12.5 us):\n");
  harness::Table t2{{"t_s=t_r (us)", "binomial/k-binomial"}};
  std::vector<double> by_host;
  for (const double th : {0.0, 5.0, 12.5, 25.0, 50.0}) {
    auto cfg = base;
    cfg.params.t_s = sim::Time::us(th);
    cfg.params.t_r = sim::Time::us(th);
    const double r = ratio_at(cfg, 48, 16);
    by_host.push_back(r);
    t2.add_row({harness::Table::num(th), harness::Table::num(r, 2)});
  }
  t2.print(std::cout);
  // Host overheads are constant adders for both trees; they dilute the
  // ratio. Must be monotone decreasing.
  for (std::size_t i = 1; i < by_host.size(); ++i) {
    bench::expect_shape(by_host[i] <= by_host[i - 1] + 0.03,
                        "host overhead dilutes the ratio");
  }

  std::printf("\nLink bandwidth, 64 B packets (paper-era: 160 MB/s):\n");
  harness::Table t3{{"bandwidth (MB/s)", "binomial/k-binomial"}};
  for (const double bw : {40.0, 160.0, 640.0}) {
    auto cfg = base;
    cfg.network.bandwidth_bytes_per_us = bw;
    const double r = ratio_at(cfg, 48, 16);
    t3.add_row({harness::Table::num(bw, 0), harness::Table::num(r, 2)});
    bench::expect_shape(r > 1.2, "k-binomial wins at every bandwidth");
  }
  t3.print(std::cout);

  return bench::finish("bench_ablation_parameter_sensitivity");
}
