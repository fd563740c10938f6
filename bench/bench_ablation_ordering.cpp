// Ablation (ours): how much does the contention-free base ordering
// matter? The Fig. 11 construction assumes chain segments route over
// disjoint links; binding the same k-binomial tree onto a *random*
// permutation instead of the CCO chain destroys that property. We
// measure both end latency and raw channel block time.

#include "bench/common.hpp"

using namespace nimcast;

int main() {
  std::printf("=== Ablation: CCO ordering vs random ordering ===\n\n");
  const harness::Testbed bed{bench::paper_testbed_config()};

  harness::Table table{{"n", "m", "CCO lat (us)", "rand lat (us)",
                        "CCO block (us)", "rand block (us)"}};
  double cco_block_total = 0;
  double rand_block_total = 0;
  double cco_lat_total = 0;
  double rand_lat_total = 0;
  for (const std::int32_t n : {16, 32, 64}) {
    for (const std::int32_t m : {2, 8, 16}) {
      const auto cco =
          bed.measure(n, m, harness::TreeSpec::optimal(),
                      mcast::NiStyle::kSmartFpfs, harness::OrderingKind::kCco);
      const auto rnd = bed.measure(n, m, harness::TreeSpec::optimal(),
                                   mcast::NiStyle::kSmartFpfs,
                                   harness::OrderingKind::kRandom);
      table.add_row({harness::Table::num(std::int64_t{n}),
                     harness::Table::num(std::int64_t{m}),
                     harness::Table::num(cco.latency_us.mean()),
                     harness::Table::num(rnd.latency_us.mean()),
                     harness::Table::num(cco.block_us.mean(), 2),
                     harness::Table::num(rnd.block_us.mean(), 2)});
      cco_block_total += cco.block_us.mean();
      rand_block_total += rnd.block_us.mean();
      cco_lat_total += cco.latency_us.mean();
      rand_lat_total += rnd.latency_us.mean();
      bench::expect_shape(cco.block_us.mean() <= rnd.block_us.mean() + 0.5,
                          "CCO never blocks (noticeably) more than random");
    }
  }
  table.print(std::cout);
  table.write_csv("ablation_ordering.csv");

  std::printf("\naggregate: CCO block %.2f us vs random %.2f us; "
              "CCO latency %.1f us vs random %.1f us\n",
              cco_block_total, rand_block_total, cco_lat_total,
              rand_lat_total);
  bench::expect_shape(cco_block_total < rand_block_total,
                      "CCO reduces aggregate channel blocking");
  bench::expect_shape(cco_lat_total <= rand_lat_total + 1.0,
                      "CCO never worse on aggregate latency");

  return bench::finish("bench_ablation_ordering");
}
