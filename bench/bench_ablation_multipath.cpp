// Ablation (ours): oblivious multipath routing. The deterministic
// up*/down* router funnels every pair over the lexicographically
// smallest shortest path; the multipath variant hashes pairs across all
// shortest legal paths (ECMP-style). On a fat-tree — where level-based
// orientation gives one path per spine — this spreads concurrent
// multicast traffic across the spines. Measured under the
// multiple-multicast workload, where single-path spine congestion
// actually bites.

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/optimal_k.hpp"
#include "routing/multipath_up_down.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"
#include "traffic/traffic_engine.hpp"

using namespace nimcast;

namespace {

struct Load {
  double latency_us = 0;
  double block_us = 0;
};

Load run_batch(const topo::Topology& topology,
               const routing::RouteTable& routes, const core::Chain& chain,
               std::int32_t ops, std::int32_t n, std::int32_t m,
               std::uint64_t seed) {
  sim::Rng rng{seed};
  const auto k = core::optimal_k(n, m).k;
  traffic::Workload workload;
  for (std::int32_t op = 0; op < ops; ++op) {
    const auto draw = rng.sample_without_replacement(
        static_cast<std::size_t>(topology.num_hosts()),
        static_cast<std::size_t>(n));
    std::vector<topo::HostId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i) {
      dests.push_back(static_cast<topo::HostId>(draw[i]));
    }
    const auto members = core::arrange_participants(
        chain, static_cast<topo::HostId>(draw.front()), dests);
    traffic::TrafficOp top;
    top.tree = core::HostTree::bind(core::make_kbinomial(n, k), members);
    top.packets = m;
    workload.ops.push_back(std::move(top));
  }
  traffic::TrafficConfig cfg;
  cfg.scheduler.policy = traffic::Policy::kFifo;
  const traffic::TrafficEngine engine{topology, routes, cfg};
  const auto batch = engine.run(workload);
  Load load;
  for (const auto& op : batch.ops) load.latency_us += op.fct().as_us() / ops;
  load.block_us = batch.total_channel_block_time.as_us();
  return load;
}

}  // namespace

int main() {
  std::printf("=== Ablation: single-path vs multipath up*/down* on a "
              "fat-tree (concurrent multicasts) ===\n\n");
  const topo::FatTreeConfig cfg;
  const core::Fabric single = core::Fabric::fat_tree(cfg);
  const topo::Topology& topology = single.topology();
  const core::Chain& chain = single.chain();
  const routing::MultipathUpDownRouter multi{topology.switches(),
                                             topo::fat_tree_levels(cfg)};
  const routing::RouteTable multi_routes{topology, multi};

  const int seeds = std::getenv("NIMCAST_QUICK") != nullptr ? 3 : 10;
  harness::Table table{{"concurrent ops", "single lat (us)",
                        "multi lat (us)", "single block (us)",
                        "multi block (us)"}};
  double single_block_total = 0;
  double multi_block_total = 0;
  for (const std::int32_t ops : {2, 4, 8, 16}) {
    Load s{};
    Load mres{};
    for (int seed = 0; seed < seeds; ++seed) {
      const auto a = run_batch(topology, single.routes(), chain, ops, 12, 8,
                               static_cast<std::uint64_t>(seed) + 1);
      const auto b = run_batch(topology, multi_routes, chain, ops, 12, 8,
                               static_cast<std::uint64_t>(seed) + 1);
      s.latency_us += a.latency_us / seeds;
      s.block_us += a.block_us / seeds;
      mres.latency_us += b.latency_us / seeds;
      mres.block_us += b.block_us / seeds;
    }
    single_block_total += s.block_us;
    multi_block_total += mres.block_us;
    table.add_row({harness::Table::num(std::int64_t{ops}),
                   harness::Table::num(s.latency_us),
                   harness::Table::num(mres.latency_us),
                   harness::Table::num(s.block_us),
                   harness::Table::num(mres.block_us)});
  }
  table.print(std::cout);
  table.write_csv("ablation_multipath.csv");

  std::printf("\naggregate block: single %.1f us, multipath %.1f us\n",
              single_block_total, multi_block_total);
  bench::expect_shape(multi_block_total < single_block_total,
                      "multipath spreads load and reduces blocking");

  return bench::finish("bench_ablation_multipath");
}
