// Extension (the authors' companion "multiple multicast" line, ref [6]):
// several simultaneous multicasts sharing the network. We measure how
// per-operation latency inflates with the number of concurrent
// operations, and how much the contention-free CCO ordering helps when
// the network is actually loaded (the single-multicast ablation showed
// ordering barely moves end latency when the network is idle).

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/optimal_k.hpp"
#include "sim/rng.hpp"
#include "traffic/traffic_engine.hpp"

using namespace nimcast;

namespace {

struct Load {
  double mean_latency_us = 0;
  double block_us = 0;
};

Load run_concurrent(const core::Fabric& fabric, std::int32_t ops,
                    std::int32_t n, std::int32_t m, bool use_cco,
                    std::uint64_t seed) {
  sim::Rng rng{seed};
  const auto choice = core::optimal_k(n, m);
  traffic::Workload workload;
  for (std::int32_t op = 0; op < ops; ++op) {
    const auto draw = rng.sample_without_replacement(
        static_cast<std::size_t>(fabric.num_hosts()),
        static_cast<std::size_t>(n));
    const auto source = static_cast<topo::HostId>(draw.front());
    std::vector<topo::HostId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i) {
      dests.push_back(static_cast<topo::HostId>(draw[i]));
    }
    const core::Chain base =
        use_cco ? fabric.chain()
                : core::random_ordering(fabric.num_hosts(), rng);
    const auto members = core::arrange_participants(base, source, dests);
    traffic::TrafficOp top;
    top.tree = core::HostTree::bind(core::make_kbinomial(n, choice.k), members);
    top.packets = m;
    workload.ops.push_back(std::move(top));
  }
  traffic::TrafficConfig cfg;
  cfg.scheduler.policy = traffic::Policy::kFifo;
  const traffic::TrafficEngine engine{fabric.topology(), fabric.routes(), cfg};
  const auto batch = engine.run(workload);
  Load load;
  for (const auto& op : batch.ops) load.mean_latency_us += op.fct().as_us();
  load.mean_latency_us /= static_cast<double>(ops);
  load.block_us = batch.total_channel_block_time.as_us();
  return load;
}

}  // namespace

int main() {
  std::printf("=== Extension: multiple simultaneous multicasts ===\n\n");
  // Quick mode still needs 3 seeds: the CCO-vs-random blocking
  // comparison is qualitative and 2 rigs are not enough to average out
  // one unlucky topology draw (it flaked in CI's quick smoke).
  const int seeds = std::getenv("NIMCAST_QUICK") != nullptr ? 3 : 5;
  const std::int32_t n = 16;
  const std::int32_t m = 8;

  harness::Table table{{"concurrent ops", "CCO latency (us)",
                        "random latency (us)", "CCO block (us)",
                        "random block (us)"}};
  std::vector<double> cco_lat;
  for (const std::int32_t ops : {1, 2, 4, 8, 16}) {
    Load cco{};
    Load rnd{};
    for (int s = 0; s < seeds; ++s) {
      const core::Fabric fabric =
          bench::paper_fabric(static_cast<std::uint64_t>(s));
      const auto a = run_concurrent(fabric, ops, n, m, true,
                                    static_cast<std::uint64_t>(s) * 7 + 1);
      const auto b = run_concurrent(fabric, ops, n, m, false,
                                    static_cast<std::uint64_t>(s) * 7 + 1);
      cco.mean_latency_us += a.mean_latency_us / seeds;
      cco.block_us += a.block_us / seeds;
      rnd.mean_latency_us += b.mean_latency_us / seeds;
      rnd.block_us += b.block_us / seeds;
    }
    cco_lat.push_back(cco.mean_latency_us);
    table.add_row({harness::Table::num(std::int64_t{ops}),
                   harness::Table::num(cco.mean_latency_us),
                   harness::Table::num(rnd.mean_latency_us),
                   harness::Table::num(cco.block_us),
                   harness::Table::num(rnd.block_us)});
    bench::expect_shape(cco.block_us <= rnd.block_us + 1.0,
                        "CCO blocks less under load");
  }
  table.print(std::cout);
  table.write_csv("multiple_multicast.csv");

  // Latency inflates monotonically with offered load.
  for (std::size_t i = 1; i < cco_lat.size(); ++i) {
    bench::expect_shape(cco_lat[i] >= cco_lat[i - 1] - 0.5,
                        "per-op latency non-decreasing in concurrency");
  }
  bench::expect_shape(cco_lat.back() > cco_lat.front() * 1.05,
                      "16 concurrent ops visibly contend");

  return bench::finish("bench_multiple_multicast");
}
