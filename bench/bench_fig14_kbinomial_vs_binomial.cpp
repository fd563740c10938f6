// Reproduces paper Figure 14: head-to-head simulated latency of the
// optimal k-binomial tree against the conventional binomial tree.
//   (a) vs number of packets m, for 15 and 47 destinations;
//   (b) vs multicast set size n, for 2 and 8 packets.
// Headline result: the k-binomial tree wins everywhere it differs, by a
// factor approaching 2x at large packet counts, and the advantage grows
// with m.

#include "bench/common.hpp"

using namespace nimcast;

namespace {

struct Pair {
  double binomial;
  double kbinomial;
  [[nodiscard]] double ratio() const { return binomial / kbinomial; }
};

Pair measure_pair(const harness::Testbed& bed, std::int32_t n, std::int32_t m) {
  const auto b = bed.measure(n, m, harness::TreeSpec::binomial(),
                             mcast::NiStyle::kSmartFpfs);
  const auto k = bed.measure(n, m, harness::TreeSpec::optimal(),
                             mcast::NiStyle::kSmartFpfs);
  return Pair{b.latency_us.mean(), k.latency_us.mean()};
}

void figure_14a(const harness::Testbed& bed) {
  std::printf("Figure 14(a): binomial vs optimal k-binomial latency (us) "
              "vs m\n\n");
  harness::Table table{{"m", "n=16 bin", "n=16 kbin", "ratio16",
                        "n=48 bin", "n=48 kbin", "ratio48"}};
  std::vector<double> ratio16;
  std::vector<double> ratio48;
  for (const std::int32_t m : {1, 2, 4, 8, 12, 16, 24, 32}) {
    const Pair p16 = measure_pair(bed, 16, m);
    const Pair p48 = measure_pair(bed, 48, m);
    ratio16.push_back(p16.ratio());
    ratio48.push_back(p48.ratio());
    table.add_row({harness::Table::num(std::int64_t{m}),
                   harness::Table::num(p16.binomial),
                   harness::Table::num(p16.kbinomial),
                   harness::Table::num(p16.ratio(), 2),
                   harness::Table::num(p48.binomial),
                   harness::Table::num(p48.kbinomial),
                   harness::Table::num(p48.ratio(), 2)});
  }
  table.print(std::cout);
  table.write_csv("fig14a.csv");

  // Paper: k-binomial at least as fast everywhere (identical at m=1),
  // improvement grows with m, reaching ~2x at the large-m end.
  for (const auto& ratios : {ratio16, ratio48}) {
    for (double r : ratios) {
      bench::expect_shape(r >= 0.999, "Fig14a: k-binomial never loses");
    }
    bench::expect_shape(std::abs(ratios.front() - 1.0) < 0.01,
                        "Fig14a: trees coincide at m=1");
    bench::expect_shape(ratios.back() > ratios[1],
                        "Fig14a: improvement grows with m");
  }
  bench::expect_shape(ratio48.back() >= 1.6,
                      "Fig14a: ~2x improvement at m=32 for 47 dests");
}

void figure_14b(const harness::Testbed& bed) {
  std::printf("\nFigure 14(b): binomial vs optimal k-binomial latency (us) "
              "vs n\n\n");
  harness::Table table{{"n", "m=2 bin", "m=2 kbin", "ratio2", "m=8 bin",
                        "m=8 kbin", "ratio8"}};
  std::vector<double> ratio2;
  std::vector<double> ratio8;
  for (std::int32_t n = 8; n <= 64; n += 8) {
    const Pair p2 = measure_pair(bed, n, 2);
    const Pair p8 = measure_pair(bed, n, 8);
    ratio2.push_back(p2.ratio());
    ratio8.push_back(p8.ratio());
    table.add_row({harness::Table::num(std::int64_t{n}),
                   harness::Table::num(p2.binomial),
                   harness::Table::num(p2.kbinomial),
                   harness::Table::num(p2.ratio(), 2),
                   harness::Table::num(p8.binomial),
                   harness::Table::num(p8.kbinomial),
                   harness::Table::num(p8.ratio(), 2)});
  }
  table.print(std::cout);
  table.write_csv("fig14b.csv");

  for (std::size_t i = 0; i < ratio2.size(); ++i) {
    bench::expect_shape(ratio2[i] >= 0.999 && ratio8[i] >= 0.999,
                        "Fig14b: k-binomial never loses");
    // More packets -> bigger advantage, at every n (paper's observation).
    bench::expect_shape(ratio8[i] >= ratio2[i] - 0.02,
                        "Fig14b: m=8 advantage >= m=2 advantage");
  }
}

}  // namespace

int main() {
  std::printf("=== Fig. 14 reproduction: k-binomial vs binomial on the "
              "64-host irregular network ===\n\n");
  const harness::Testbed bed{bench::paper_testbed_config()};
  figure_14a(bed);
  figure_14b(bed);
  return bench::finish("bench_fig14_kbinomial_vs_binomial");
}
