// Ablation (ours, motivated by the paper's reference [2]): the effect of
// the network's fixed packet size. The paper takes 64 B as given by the
// network design; [2] (De Coster et al.) instead optimized packet size in
// software. For a fixed 2 KiB message multicast to 31 destinations we
// sweep the hardware packet size: small packets pipeline better but pay
// the per-packet NI overheads more often; large packets amortize
// overheads but serialize the pipeline. The sweet spot under the paper's
// constants sits in the hundreds of bytes — a quantitative justification
// for mid-90s interconnect packet sizes.

#include <algorithm>

#include "bench/common.hpp"
#include "core/optimal_k.hpp"

using namespace nimcast;

int main() {
  std::printf("=== Ablation: fixed hardware packet size (2 KiB message, 31 "
              "dests) ===\n\n");
  const std::int64_t message_bytes = 2048;
  const std::int32_t n = 32;

  harness::Table table{{"packet (B)", "packets m", "k*",
                        "opt k-bin (us)", "binomial (us)"}};
  std::vector<double> latencies;
  for (const std::int32_t psize : {32, 64, 128, 256, 512, 1024, 2048}) {
    auto cfg = bench::paper_testbed_config();
    cfg.network.packet_bytes = psize;
    const harness::Testbed bed{cfg};
    const auto m = static_cast<std::int32_t>(
        (message_bytes + psize - 1) / psize);
    const auto opt = bed.measure(n, m, harness::TreeSpec::optimal(),
                                 mcast::NiStyle::kSmartFpfs);
    const auto bin = bed.measure(n, m, harness::TreeSpec::binomial(),
                                 mcast::NiStyle::kSmartFpfs);
    latencies.push_back(opt.latency_us.mean());
    table.add_row({harness::Table::num(std::int64_t{psize}),
                   harness::Table::num(std::int64_t{m}),
                   harness::Table::num(
                       std::int64_t{core::optimal_k(n, m).k}),
                   harness::Table::num(opt.latency_us.mean()),
                   harness::Table::num(bin.latency_us.mean())});
  }
  table.print(std::cout);
  table.write_csv("ablation_packet_size.csv");

  // The curve is U-shaped (or at least not monotone): both extremes are
  // worse than the best interior point.
  const double best = *std::min_element(latencies.begin(), latencies.end());
  bench::expect_shape(latencies.front() > best * 1.1,
                      "tiny packets pay per-packet NI overhead");
  bench::expect_shape(latencies.back() > best * 1.1,
                      "one giant packet forfeits pipelining");
  std::printf("\nbest latency %.1f us; 32 B costs %.2fx, single-packet "
              "(2048 B) costs %.2fx\n",
              best, latencies.front() / best, latencies.back() / best);

  return bench::finish("bench_ablation_packet_size");
}
