// Extension experiment (paper Section 7 future work): other collective
// operations with packetization and smart NI support, over the same
// 64-host irregular evaluation rig. Compares:
//   - gather vs in-network reduce (the NI-combining payoff),
//   - reduce vs allreduce (pipelined down-phase cost),
//   - scatter over the optimal k-binomial tree vs a flat source-direct
//     star (tree forwarding vs source serialization trade-off).

#include "bench/common.hpp"
#include "collectives/collective_engine.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "network/fault_plan.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"

using namespace nimcast;

namespace {

core::HostTree tree(const core::Chain& chain, std::int32_t n,
                    std::int32_t k) {
  return core::HostTree::bind(core::make_kbinomial(n, k),
                              core::Chain{chain.begin(), chain.begin() + n});
}

core::HostTree star(const core::Chain& chain, std::int32_t n) {
  std::vector<topo::HostId> nodes(chain.begin(), chain.begin() + n);
  std::vector<std::vector<topo::HostId>> kids(nodes.size());
  kids[0].assign(nodes.begin() + 1, nodes.end());
  return {std::move(nodes), kids};
}

double mean_latency(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Fault sweep: degraded-mode collectives on two 64-host fabrics.

/// The fault sweep's two 64-host fabrics.
core::Fabric fault_fabric(bool fat_tree) {
  if (fat_tree) {
    topo::FatTreeConfig cfg;  // 8 edge x 4 spine x 8 hosts = 64
    cfg.trunk = 2;  // trunked uplinks: the fabric's redundancy headline
    return core::Fabric::fat_tree(cfg);
  }
  return bench::paper_fabric(3);
}

struct FaultPoint {
  std::string rig;
  collectives::CollectiveKind kind = collectives::CollectiveKind::kBroadcast;
  double rate = 0.0;
  double delivery_ratio = 0.0;
  double delivery_no_repair = 0.0;  ///< repair + reroute disabled
  double latency_us = 0.0;  ///< mean over ops that delivered anything
  double repairs_per_op = 0.0;
  int complete = 0;
  int partial = 0;
  int failed = 0;
};

FaultPoint sweep_collective(const core::Fabric& fabric, const char* rig,
                            collectives::CollectiveKind kind, double rate,
                            int reps) {
  constexpr std::int32_t n = 32;
  constexpr std::int32_t m = 4;
  const auto choice = core::optimal_k(n, m);
  FaultPoint pt;
  pt.rig = rig;
  pt.kind = kind;
  pt.rate = rate;
  double ratio_sum = 0.0, ratio_nr_sum = 0.0, lat_sum = 0.0, repairs = 0.0;
  int lat_count = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Same participants and tree at every fault rate; only the plan
    // varies across rates, so the curves are paired per rep.
    sim::Rng rng{static_cast<std::uint64_t>(rep) * 7 + 5};
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

    net::NetworkConfig netcfg;
    if (rate > 0.0) {
      // Coupled fault draws (same scheme as bench_fault_tolerance): one
      // uniform and one fault time per fabric element per rep, shared
      // across rates, so lower-rate fault sets nest inside higher-rate
      // ones and the degradation curves are monotone by construction.
      sim::Rng fault_rng{0xC011EC7 + static_cast<std::uint64_t>(rep) * 131};
      const auto& g = fabric.topology().switches();
      // Link faults only: switch deaths remove unequal host counts on
      // the two fabrics (a fat-tree edge switch carries 8 hosts, an
      // irregular switch 4), which would compare fabric *granularity*
      // rather than the path-diversity story this sweep guards.
      for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
        const double u = fault_rng.next_double();
        const double at = fault_rng.next_double() * 150.0;
        if (u < rate) netcfg.faults.link_down(sim::Time::us(at), e);
      }
    }

    collectives::CollectiveEngine::Config cfg;
    cfg.network = netcfg;  // collectives degrade and continue under faults
    const collectives::CollectiveEngine engine{fabric.topology(),
                                               fabric.routes(), cfg};
    const auto r = engine.run(kind, tree, m);
    ratio_sum += r.delivery_ratio();
    repairs += r.repairs;
    switch (r.outcome) {
      case mcast::Outcome::kComplete: ++pt.complete; break;
      case mcast::Outcome::kPartial: ++pt.partial; break;
      case mcast::Outcome::kFailed: ++pt.failed; break;
    }
    if (r.delivery_ratio() > 0.0) {
      lat_sum += r.latency.as_us();
      ++lat_count;
    }

    collectives::CollectiveEngine::Config nr_cfg = cfg;
    nr_cfg.repair.max_attempts = 0;
    nr_cfg.repair.reroute = false;
    const collectives::CollectiveEngine nr_engine{fabric.topology(),
                                                  fabric.routes(), nr_cfg};
    ratio_nr_sum += nr_engine.run(kind, tree, m).delivery_ratio();
  }
  pt.delivery_ratio = ratio_sum / reps;
  pt.delivery_no_repair = ratio_nr_sum / reps;
  pt.latency_us = lat_count > 0 ? lat_sum / lat_count : 0.0;
  pt.repairs_per_op = repairs / reps;
  return pt;
}

}  // namespace

int main() {
  std::printf("=== Extension: collectives with packetization + smart NI "
              "support ===\n\n");
  const int num_seeds = std::getenv("NIMCAST_QUICK") != nullptr ? 2 : 6;

  std::printf("gather vs in-network reduce vs allreduce (64-host irregular "
              "nets, optimal trees, avg of %d wirings):\n\n", num_seeds);
  harness::Table table{{"n", "m", "gather (us)", "reduce (us)",
                        "allreduce (us)", "gather/reduce"}};
  for (const std::int32_t n : {16, 64}) {
    for (const std::int32_t m : {1, 4, 16}) {
      std::vector<double> g;
      std::vector<double> r;
      std::vector<double> a;
      const std::int32_t k = core::optimal_k(n, m).k;
      for (int seed = 0; seed < num_seeds; ++seed) {
        const core::Fabric fabric =
            bench::paper_fabric(static_cast<std::uint64_t>(seed));
        const collectives::CollectiveEngine engine{
            fabric.topology(), fabric.routes(), {}};
        const auto t = tree(fabric.chain(), n, k);
        g.push_back(engine.run(collectives::CollectiveKind::kGather, t, m)
                        .latency.as_us());
        r.push_back(engine.run(collectives::CollectiveKind::kReduce, t, m)
                        .latency.as_us());
        a.push_back(engine.run(collectives::CollectiveKind::kAllReduce, t, m)
                        .latency.as_us());
      }
      const double gm = mean_latency(g);
      const double rm = mean_latency(r);
      const double am = mean_latency(a);
      table.add_row({harness::Table::num(std::int64_t{n}),
                     harness::Table::num(std::int64_t{m}),
                     harness::Table::num(gm), harness::Table::num(rm),
                     harness::Table::num(am),
                     harness::Table::num(gm / rm, 2)});
      bench::expect_shape(rm < gm,
                          "in-network reduce beats gather everywhere");
      bench::expect_shape(am > rm, "allreduce costs more than reduce");
      if (n == 64 && m >= 4) {
        bench::expect_shape(gm / rm > 2.0,
                            "combining pays off >2x at scale");
      }
    }
  }
  table.print(std::cout);
  table.write_csv("collectives_reduce.csv");

  std::printf("\nscatter: optimal k-binomial tree vs source-direct star "
              "(n=64):\n\n");
  harness::Table t2{{"m", "tree scatter (us)", "direct scatter (us)"}};
  for (const std::int32_t m : {1, 4, 16}) {
    std::vector<double> tree_lat;
    std::vector<double> star_lat;
    const std::int32_t k = core::optimal_k(64, m).k;
    for (int seed = 0; seed < num_seeds; ++seed) {
      const core::Fabric fabric =
          bench::paper_fabric(static_cast<std::uint64_t>(seed));
      const collectives::CollectiveEngine engine{
          fabric.topology(), fabric.routes(), {}};
      const auto scatter = [&](const core::HostTree& t) {
        return engine.run(collectives::CollectiveKind::kScatter, t, m)
            .latency.as_us();
      };
      tree_lat.push_back(scatter(tree(fabric.chain(), 64, k)));
      star_lat.push_back(scatter(star(fabric.chain(), 64)));
    }
    t2.add_row({harness::Table::num(std::int64_t{m}),
                harness::Table::num(mean_latency(tree_lat)),
                harness::Table::num(mean_latency(star_lat))});
  }
  t2.print(std::cout);
  std::printf(
      "\n(scatter moves distinct data, so the tree repeats every byte at\n"
      "every level — with a cheap source NI the direct star competes;\n"
      "the numbers above quantify that trade-off on this system.)\n");

  // -------------------------------------------------------------------------
  // Degraded-mode fault sweep: every kind under random link/switch
  // failures, on the irregular 64-host testbed and the 64-host fat-tree.
  // The shape guarded: zero-fault runs deliver exactly, delivery degrades
  // monotonically with the fault rate, and the fat-tree's path diversity
  // dominates the irregular fabric at every rate.
  const int fault_reps = std::getenv("NIMCAST_QUICK") != nullptr ? 3 : 8;
  std::printf("\ncollectives under link faults (n=32, m=4, %d reps, "
              "degrade-and-continue):\n\n",
              fault_reps);
  const std::vector<double> rates = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4};
  constexpr collectives::CollectiveKind kKinds[] = {
      collectives::CollectiveKind::kBroadcast,
      collectives::CollectiveKind::kScatter,
      collectives::CollectiveKind::kGather,
      collectives::CollectiveKind::kReduce,
      collectives::CollectiveKind::kAllReduce};

  harness::Table t3{{"rig", "kind", "fault rate", "delivery", "no-repair",
                     "latency (us)", "repairs/op", "C/P/F"}};
  std::vector<FaultPoint> points;
  for (const bool fat : {false, true}) {
    const core::Fabric fabric = fault_fabric(fat);
    const char* rig = fat ? "fat_tree" : "irregular";
    for (const auto kind : kKinds) {
      for (const double rate : rates) {
        FaultPoint pt = sweep_collective(fabric, rig, kind, rate, fault_reps);
        t3.add_row({rig, collectives::to_string(kind),
                    harness::Table::num(rate, 2),
                    harness::Table::num(pt.delivery_ratio, 3),
                    harness::Table::num(pt.delivery_no_repair, 3),
                    harness::Table::num(pt.latency_us),
                    harness::Table::num(pt.repairs_per_op, 2),
                    std::to_string(pt.complete) + "/" +
                        std::to_string(pt.partial) + "/" +
                        std::to_string(pt.failed)});
        points.push_back(std::move(pt));
      }
    }
  }
  t3.print(std::cout);
  t3.write_csv("collective_faults.csv");

  const std::size_t per_curve = rates.size();
  const std::size_t curves_per_rig = std::size(kKinds);
  for (std::size_t c = 0; c < points.size() / per_curve; ++c) {
    const FaultPoint* curve = &points[c * per_curve];
    bench::expect_shape(curve[0].delivery_ratio == 1.0,
                        "zero-fault collectives deliver everywhere, exactly");
    for (std::size_t i = 1; i < per_curve; ++i) {
      bench::expect_shape(
          curve[i].delivery_ratio <= curve[i - 1].delivery_ratio + 0.02,
          "collective delivery degrades monotonically with fault rate");
    }
    for (std::size_t i = 0; i < per_curve; ++i) {
      bench::expect_shape(
          curve[i].delivery_ratio >= curve[i].delivery_no_repair - 1e-9,
          "tree repair never delivers less than no repair");
    }
  }
  for (std::size_t c = 0; c < curves_per_rig; ++c) {
    for (std::size_t i = 0; i < per_curve; ++i) {
      const FaultPoint& irr = points[c * per_curve + i];
      const FaultPoint& fat = points[(curves_per_rig + c) * per_curve + i];
      bench::expect_shape(
          fat.delivery_ratio >= irr.delivery_ratio - 1e-9,
          "fat-tree path diversity dominates the irregular fabric");
    }
  }

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_collective_faults.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"collective_faults\",\n"
                 "  \"config\": {\n"
                 "    \"quick\": %s,\n"
                 "    \"reps\": %d,\n"
                 "    \"rigs\": \"irregular 64-host seed 3 + fat-tree "
                 "8x4x8 trunk 2, n=32, m=4, degrade-and-continue, repair "
                 "max_attempts=2, link faults only\",\n"
                 "    \"window_us\": 150\n"
                 "  },\n"
                 "  \"points\": [\n",
                 fault_reps == 3 ? "true" : "false", fault_reps);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const FaultPoint& p = points[i];
      std::fprintf(out,
                   "    {\"rig\": \"%s\", \"kind\": \"%s\", \"rate\": %.3f, "
                   "\"delivery_ratio\": %.6f, \"delivery_no_repair\": %.6f, "
                   "\"latency_us\": %.3f, "
                   "\"repairs_per_op\": %.3f, \"complete\": %d, "
                   "\"partial\": %d, \"failed\": %d}%s\n",
                   p.rig.c_str(), collectives::to_string(p.kind), p.rate,
                   p.delivery_ratio, p.delivery_no_repair, p.latency_us,
                   p.repairs_per_op, p.complete, p.partial, p.failed,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"git_rev\": \"%s\"\n"
                 "}\n",
                 bench::git_rev().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    bench::expect_shape(false, std::string("could not write ") + out_path);
  }

  return bench::finish("bench_collectives");
}
