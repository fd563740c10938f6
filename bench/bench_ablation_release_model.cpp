// Ablation (ours): sensitivity of the results to the wormhole
// channel-release model. `kAtDelivery` (default) holds every channel of
// a worm until the packet has fully drained at the destination NI —
// conservative. `kPipelined` releases upstream channels as the tail
// passes. If the paper's conclusions depended on the conservative
// approximation, the two models would rank trees differently; they don't.

#include "bench/common.hpp"

using namespace nimcast;

namespace {

double ratio_for(net::ReleaseModel model) {
  auto cfg = bench::paper_testbed_config();
  cfg.network.release_model = model;
  cfg.num_topologies = std::min(cfg.num_topologies, 5);
  cfg.sets_per_topology = std::min(cfg.sets_per_topology, 15);
  const harness::Testbed bed{cfg};
  const auto bin = bed.measure(48, 16, harness::TreeSpec::binomial(),
                               mcast::NiStyle::kSmartFpfs);
  const auto opt = bed.measure(48, 16, harness::TreeSpec::optimal(),
                               mcast::NiStyle::kSmartFpfs);
  std::printf("  %-12s binomial %.1f us, opt k-bin %.1f us -> ratio %.2f\n",
              model == net::ReleaseModel::kAtDelivery ? "at-delivery"
                                                      : "pipelined",
              bin.latency_us.mean(), opt.latency_us.mean(),
              bin.latency_us.mean() / opt.latency_us.mean());
  return bin.latency_us.mean() / opt.latency_us.mean();
}

}  // namespace

int main() {
  std::printf("=== Ablation: wormhole channel-release model (n=48, m=16) "
              "===\n\n");
  const double conservative = ratio_for(net::ReleaseModel::kAtDelivery);
  const double pipelined = ratio_for(net::ReleaseModel::kPipelined);

  bench::expect_shape(std::abs(conservative - pipelined) < 0.15,
                      "headline ratio robust to the release model");
  bench::expect_shape(conservative > 1.5 && pipelined > 1.5,
                      "k-binomial wins clearly under both models");
  std::printf("\nconclusion: tree ranking is insensitive to the release "
              "approximation (%.2f vs %.2f)\n",
              conservative, pipelined);

  return bench::finish("bench_ablation_release_model");
}
