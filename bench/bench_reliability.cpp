// Extension (paper related work [4], [12]): reliable multicast over a
// lossy fabric. The cited systems built reliability layers over ATM and
// Myrinet NIs; this bench measures what reliability costs on top of the
// paper's optimal trees: latency and retransmission overhead vs loss
// rate, and the ACK tax at zero loss.

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/optimal_k.hpp"
#include "sim/rng.hpp"

using namespace nimcast;

namespace {

double mean_latency(const core::Fabric& fabric, std::int32_t n, std::int32_t m,
                    double loss, mcast::NiStyle style, int reps) {
  const auto choice = core::optimal_k(n, m);
  net::NetworkConfig netcfg;
  netcfg.loss_rate = loss;
  double total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    netcfg.loss_seed = static_cast<std::uint64_t>(rep) * 7919 + 5;
    sim::Rng rng{static_cast<std::uint64_t>(rep) + 11};
    const auto draw = rng.sample_without_replacement(
        static_cast<std::size_t>(fabric.num_hosts()),
        static_cast<std::size_t>(n));
    std::vector<topo::HostId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i) {
      dests.push_back(static_cast<topo::HostId>(draw[i]));
    }
    const auto members = core::arrange_participants(
        fabric.chain(), static_cast<topo::HostId>(draw.front()), dests);
    const auto tree =
        core::HostTree::bind(core::make_kbinomial(n, choice.k), members);
    const mcast::MulticastEngine engine{
        fabric.topology(), fabric.routes(),
        mcast::MulticastEngine::Config{netif::SystemParams{}, netcfg, style}};
    total += engine.run(tree, m).latency.as_us();
  }
  return total / reps;
}

}  // namespace

int main() {
  std::printf("=== Extension: reliable multicast over a lossy fabric "
              "(n=32, m=8, optimal tree) ===\n\n");
  const int reps = std::getenv("NIMCAST_QUICK") != nullptr ? 5 : 20;
  const core::Fabric fabric = bench::paper_fabric(3);

  const double baseline =
      mean_latency(fabric, 32, 8, 0.0, mcast::NiStyle::kSmartFpfs, reps);
  std::printf("plain FPFS, lossless fabric: %.1f us (reference)\n\n",
              baseline);

  harness::Table table{{"loss rate", "reliable FPFS (us)",
                        "vs lossless plain"}};
  std::vector<double> curve;
  for (const double loss : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4}) {
    const double lat =
        mean_latency(fabric, 32, 8, loss, mcast::NiStyle::kReliableFpfs, reps);
    curve.push_back(lat);
    table.add_row({harness::Table::num(loss, 2), harness::Table::num(lat),
                   harness::Table::num(lat / baseline, 2)});
  }
  table.print(std::cout);
  table.write_csv("reliability.csv");

  bench::expect_shape(curve.front() < baseline * 1.3,
                      "ACK tax at zero loss stays under ~30%");
  for (std::size_t i = 1; i < curve.size(); ++i) {
    bench::expect_shape(curve[i] >= curve[i - 1] - 2.0,
                        "latency degrades monotonically with loss");
  }
  // Retransmissions back off exponentially (1.5^attempt, capped), so the
  // extreme-loss tail pays in waiting what it saves in retransmit storms;
  // 40% loss lands around 11-13x lossless rather than the ~8x a fixed
  // timeout would give.
  bench::expect_shape(curve.back() < baseline * 16.0,
                      "even 40% loss stays within ~16x of lossless");
  std::printf("\nACK tax at zero loss: %.2fx; 40%% loss costs %.2fx "
              "lossless plain FPFS\n",
              curve.front() / baseline, curve.back() / baseline);

  return bench::finish("bench_reliability");
}
