// Extension experiment (paper Section 7 future work / Section 4.3.2):
// k-binomial trees on *regular* k-ary n-cube networks using
// dimension-ordered routing and the dimension-ordered chain as the
// contention-free base ordering. Same headline comparison as Fig. 14 on
// an 8x8 mesh, a 4x4x4 mesh, and a binary 6-cube — all 64 hosts, so the
// results are directly comparable to the irregular-network figures.

#include "bench/common.hpp"

using namespace nimcast;

int main() {
  std::printf("=== Extension: k-binomial multicast on regular k-ary "
              "n-cubes ===\n\n");
  const netif::SystemParams params;
  const net::NetworkConfig network;
  const std::int32_t reps =
      std::getenv("NIMCAST_QUICK") != nullptr ? 10 : 60;

  const std::pair<const char*, core::Fabric> rigs[] = {
      {"8x8 mesh", core::Fabric::mesh({8, 2, false})},
      {"4x4x4 mesh", core::Fabric::mesh({4, 3, false})},
      {"binary 6-cube", core::Fabric::mesh({2, 6, false})},
      {"8x8 torus (2 VCs, dateline)", core::Fabric::mesh({8, 2, true})},
      {"fat-tree 8x4 (up*/down*)", core::Fabric::fat_tree({})},
  };

  for (const auto& [label, fabric] : rigs) {
    std::printf("--- %s (64 hosts) ---\n", label);
    harness::Table table{
        {"n", "m", "binomial (us)", "opt k-bin (us)", "ratio"}};
    for (const std::int32_t n : {16, 48}) {
      for (const std::int32_t m : {1, 4, 16, 32}) {
        const auto bin = harness::measure_point(
            fabric, params, network, n, m,
            harness::TreeSpec::binomial(), mcast::NiStyle::kSmartFpfs,
            harness::OrderingKind::kCco, reps, 7);
        const auto opt = harness::measure_point(
            fabric, params, network, n, m,
            harness::TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs,
            harness::OrderingKind::kCco, reps, 7);
        const double ratio =
            bin.latency_us.mean() / opt.latency_us.mean();
        table.add_row({harness::Table::num(std::int64_t{n}),
                       harness::Table::num(std::int64_t{m}),
                       harness::Table::num(bin.latency_us.mean()),
                       harness::Table::num(opt.latency_us.mean()),
                       harness::Table::num(ratio, 2)});
        bench::expect_shape(ratio >= 0.999,
                            std::string{label} + ": k-binomial never loses");
        if (m >= 16 && n == 48) {
          bench::expect_shape(ratio > 1.5,
                              std::string{label} +
                                  ": large-m advantage carries over to "
                                  "regular networks");
        }
      }
    }
    table.print(std::cout);
    std::printf("\n");
  }

  return bench::finish("bench_regular_networks");
}
