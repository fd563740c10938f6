// Reproduces paper Figure 13: simulated multicast latency of the optimal
// k-binomial tree on the 64-host irregular switch network.
//   (a) latency vs number of packets m, destination counts {15,31,47,63};
//   (b) latency vs multicast set size n, packet counts {1,2,4,8}.
// Workload and averaging follow Section 5.2: 30 random destination sets
// on each of 10 random topologies, up*/down* routing, CCO base ordering,
// FPFS smart NIs.

#include "bench/common.hpp"
#include "core/optimal_k.hpp"

using namespace nimcast;

namespace {

void figure_13a(const harness::Testbed& bed) {
  std::printf(
      "Figure 13(a): latency (us) of optimal k-binomial tree vs m\n\n");
  const std::int32_t sizes[] = {16, 32, 48, 64};
  const std::int32_t ms[] = {1, 2, 4, 8, 12, 16, 24, 32};
  harness::Table table{{"m", "n=16", "n=32", "n=48", "n=64", "k*(64)"}};
  std::vector<std::vector<double>> curves(4);
  for (const std::int32_t m : ms) {
    std::vector<std::string> row{harness::Table::num(std::int64_t{m})};
    for (std::size_t i = 0; i < 4; ++i) {
      const auto p = bed.measure(sizes[i], m, harness::TreeSpec::optimal(),
                                 mcast::NiStyle::kSmartFpfs);
      curves[i].push_back(p.latency_us.mean());
      row.push_back(harness::Table::num(p.latency_us.mean()));
    }
    row.push_back(
        harness::Table::num(std::int64_t{core::optimal_k(64, m).k}));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  table.write_csv("fig13a.csv");

  for (std::size_t i = 0; i < 4; ++i) {
    // Latency grows with m ...
    for (std::size_t j = 1; j < curves[i].size(); ++j) {
      bench::expect_shape(curves[i][j] > curves[i][j - 1],
                          "Fig13a: latency increases with m");
    }
    // ... and with n at fixed m in the stable-k region (m <= 8, indices
    // 0..3). Past each curve's k -> 1 switch point (m = 12 for n=16,
    // m = 27 for n=32) the paper-rule k is transiently suboptimal for
    // our finer NI model and curves may cross; see EXPERIMENTS.md.
    if (i > 0) {
      for (std::size_t j :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        bench::expect_shape(curves[i][j] >= curves[i - 1][j] - 0.5,
                            "Fig13a: latency increases with n (stable-k "
                            "region)");
      }
    }
  }
  // The paper's stated observation: "the slope for 15 destinations
  // reduces when m >= 12" (optimal k drops to 1 there). Compare the
  // n=16 per-packet slope after the switch with the n=32 slope (still
  // k = 2) over the same interval.
  const double slope16 = (curves[0].back() - curves[0][6]) / (32 - 24);
  const double slope32 = (curves[1].back() - curves[1][6]) / (32 - 24);
  bench::expect_shape(slope16 < slope32,
                      "Fig13a: n=16 slope reduces once optimal k hits 1");
  // Pipeline slope: once the optimal k settles, latency grows modestly
  // per extra packet rather than with full tree depth.
  for (std::size_t i = 0; i < 4; ++i) {
    const double early =
        (curves[i][3] - curves[i][0]) / (8 - 1);  // m in [1, 8]
    const double late =
        (curves[i].back() - curves[i][5]) / (32 - 16);  // m in [16, 32]
    bench::expect_shape(late <= early * 1.5 + 1e-9,
                        "Fig13a: slope flattens once optimal k settles");
  }
}

void figure_13b(const harness::Testbed& bed) {
  std::printf("\nFigure 13(b): latency (us) of optimal k-binomial tree vs "
              "n\n\n");
  const std::int32_t packets[] = {1, 2, 4, 8};
  harness::Table table{{"n", "m=1", "m=2", "m=4", "m=8"}};
  std::vector<std::vector<double>> curves(4);
  std::vector<std::int32_t> ns;
  for (std::int32_t n = 8; n <= 64; n += 8) ns.push_back(n);
  for (const std::int32_t n : ns) {
    std::vector<std::string> row{harness::Table::num(std::int64_t{n})};
    for (std::size_t i = 0; i < 4; ++i) {
      const auto p = bed.measure(n, packets[i], harness::TreeSpec::optimal(),
                                 mcast::NiStyle::kSmartFpfs);
      curves[i].push_back(p.latency_us.mean());
      row.push_back(harness::Table::num(p.latency_us.mean()));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  table.write_csv("fig13b.csv");

  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 1; j < curves[i].size(); ++j) {
      // Non-decreasing: adjacent n sharing the same (k*, t_1) produce
      // nearly identical trees, so allow exact ties within noise.
      bench::expect_shape(curves[i][j] >= curves[i][j - 1] - 0.5,
                          "Fig13b: latency non-decreasing in n");
    }
    if (i > 0) {
      for (std::size_t j = 0; j < curves[i].size(); ++j) {
        bench::expect_shape(curves[i][j] > curves[i - 1][j],
                            "Fig13b: more packets cost more");
      }
    }
  }
  // The n-slope is logarithmic-ish (tree depth), far below linear: going
  // 16 -> 64 destinations must not quadruple latency.
  for (std::size_t i = 0; i < 4; ++i) {
    bench::expect_shape(curves[i].back() < 2.5 * curves[i][1],
                        "Fig13b: latency grows sub-linearly in n");
  }
}

}  // namespace

int main() {
  std::printf("=== Fig. 13 reproduction: optimal k-binomial latency on the "
              "64-host irregular network ===\n\n");
  const harness::Testbed bed{bench::paper_testbed_config()};
  figure_13a(bed);
  figure_13b(bed);
  return bench::finish("bench_fig13_kbinomial_latency");
}
