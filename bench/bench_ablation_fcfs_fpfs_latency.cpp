// Ablation (ours): the paper argues for FPFS over FCFS on implementation
// and buffering grounds (Section 3.3) but never compares their *latency*.
// This bench does, on the full evaluation rig.
//
// Outcome worth knowing: in the paper's synchronous step model the two
// disciplines tie on saturated trees, and our finer NI model splits them
// *by tree shape*:
//   - on the optimal k-binomial trees (the ones this system deploys),
//     FPFS wins — FCFS stalls every child after the first until the
//     whole message has arrived, and deep low-fan-out trees compound
//     that stall at every level;
//   - on the plain binomial tree, FCFS's child-major source order hands
//     the complete message to the *deepest* subtree first, which
//     slightly beats FPFS's packet-major order (<= ~10%).
// Combined with the Section 3.3.2 buffer result, FPFS remains the right
// discipline for the deployed configuration.

#include "bench/common.hpp"

using namespace nimcast;

int main() {
  std::printf("=== Ablation: FPFS vs FCFS forwarding latency ===\n\n");
  const harness::Testbed bed{bench::paper_testbed_config()};

  for (const auto spec :
       {harness::TreeSpec::binomial(), harness::TreeSpec::optimal()}) {
    const bool optimal_tree =
        spec.kind == harness::TreeSpec::Kind::kOptimal;
    std::printf("--- %s tree ---\n", spec.name().c_str());
    harness::Table table{
        {"n", "m", "FPFS (us)", "FCFS (us)", "FCFS/FPFS"}};
    for (const std::int32_t n : {16, 48}) {
      for (const std::int32_t m : {1, 2, 4, 8, 16}) {
        const auto fpfs =
            bed.measure(n, m, spec, mcast::NiStyle::kSmartFpfs);
        const auto fcfs =
            bed.measure(n, m, spec, mcast::NiStyle::kSmartFcfs);
        const double ratio =
            fcfs.latency_us.mean() / fpfs.latency_us.mean();
        table.add_row({harness::Table::num(std::int64_t{n}),
                       harness::Table::num(std::int64_t{m}),
                       harness::Table::num(fpfs.latency_us.mean()),
                       harness::Table::num(fcfs.latency_us.mean()),
                       harness::Table::num(ratio, 2)});
        if (m == 1) {
          bench::expect_shape(std::abs(ratio - 1.0) < 0.01,
                              "single packet: disciplines coincide");
        } else if (optimal_tree) {
          bench::expect_shape(ratio >= 0.995,
                              "optimal k-binomial trees: FPFS never loses");
        } else {
          bench::expect_shape(ratio >= 0.85 && ratio <= 1.05,
                              "binomial trees: FCFS's child-major head "
                              "start stays within ~10%");
        }
      }
    }
    table.print(std::cout);
    table.write_csv(optimal_tree ? "ablation_fcfs_fpfs_opt.csv"
                                 : "ablation_fcfs_fpfs_binomial.csv");
    std::printf("\n");
  }

  return bench::finish("bench_ablation_fcfs_fpfs_latency");
}
