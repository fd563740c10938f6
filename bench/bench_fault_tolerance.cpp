// Fault-tolerance sweep: delivery ratio and latency inflation of
// reliable FPFS multicast under randomly scheduled link/switch failures,
// with and without tree repair. The shape this bench guards is *graceful
// degradation*: the delivery-ratio curve falls monotonically with the
// fault rate, with no cliff as the rate leaves zero, and repair never
// hurts. Emits BENCH_faults.json (deterministic: same seeds, same bytes
// — the TSan CI job diffs two runs) and fault_tolerance.csv.

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/optimal_k.hpp"
#include "mcast/multicast_engine.hpp"
#include "sim/rng.hpp"

using namespace nimcast;

namespace {

struct Point {
  std::int32_t n = 0;
  std::int32_t m = 0;
  double rate = 0.0;
  double delivery_ratio = 0.0;     ///< with repair
  double delivery_no_repair = 0.0; ///< repair disabled
  double latency_us = 0.0;         ///< mean over ops that delivered anything
  double retx_per_op = 0.0;
  double repairs_per_op = 0.0;
  double killed_per_op = 0.0;
};

Point sweep_point(const core::Fabric& fabric, std::int32_t n, std::int32_t m,
                  double rate, int reps) {
  const auto choice = core::optimal_k(n, m);
  Point pt;
  pt.n = n;
  pt.m = m;
  pt.rate = rate;
  double ratio_sum = 0.0, ratio_nr_sum = 0.0, lat_sum = 0.0;
  int lat_count = 0;
  std::int64_t retx = 0, repairs = 0, killed = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Same participants and tree at every fault rate; only the fault
    // plan varies, so curves across rates are paired.
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

    net::NetworkConfig netcfg;
    if (rate > 0.0) {
      // Coupled fault draws: one uniform (and one fault time) per fabric
      // element per rep, shared across rates, so the fault set at a
      // lower rate is a subset of the set at any higher rate. The
      // degradation curves are then nested by construction — without
      // this, independent per-rate plans at modest rep counts produce
      // non-monotone sampling noise that swamps the shape check.
      sim::Rng fault_rng{0xFA0170 + static_cast<std::uint64_t>(rep) * 131};
      const auto& g = fabric.topology().switches();
      for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
        const double u = fault_rng.next_double();
        const double at = fault_rng.next_double() * 150.0;
        if (u < rate) netcfg.faults.link_down(sim::Time::us(at), e);
      }
      for (topo::SwitchId s = 0; s < g.num_vertices(); ++s) {
        const double u = fault_rng.next_double();
        const double at = fault_rng.next_double() * 150.0;
        if (u < rate / 4.0) netcfg.faults.switch_down(sim::Time::us(at), s);
      }
    }

    mcast::MulticastEngine::Config cfg;
    cfg.network = netcfg;
    cfg.style = mcast::NiStyle::kReliableFpfs;
    const mcast::MulticastEngine engine{fabric.topology(), fabric.routes(),
                                        cfg};
    const auto batch =
        engine.run_many({mcast::MulticastSpec{tree, m, sim::Time::zero()}});
    const auto& r = batch.operations.front();
    ratio_sum += r.delivery_ratio();
    retx += batch.retransmissions;
    repairs += r.repairs;
    killed += batch.packets_killed;
    if (r.delivered_count() > 0) {
      lat_sum += r.latency.as_us();
      ++lat_count;
    }

    mcast::MulticastEngine::Config nr_cfg = cfg;
    nr_cfg.repair.max_attempts = 0;
    nr_cfg.repair.reroute = false;
    const mcast::MulticastEngine nr_engine{fabric.topology(), fabric.routes(),
                                           nr_cfg};
    const auto nr = nr_engine.run(tree, m);
    ratio_nr_sum += nr.delivery_ratio();
  }
  pt.delivery_ratio = ratio_sum / reps;
  pt.delivery_no_repair = ratio_nr_sum / reps;
  pt.latency_us = lat_count > 0 ? lat_sum / lat_count : 0.0;
  pt.retx_per_op = static_cast<double>(retx) / reps;
  pt.repairs_per_op = static_cast<double>(repairs) / reps;
  pt.killed_per_op = static_cast<double>(killed) / reps;
  return pt;
}

}  // namespace

int main() {
  std::printf("=== Fault tolerance: reliable FPFS multicast under "
              "link/switch failures (irregular 64-host rig) ===\n\n");
  const bool quick = std::getenv("NIMCAST_QUICK") != nullptr;
  const int reps = quick ? 5 : 15;
  const core::Fabric fabric = bench::paper_fabric(3);

  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.1, 0.2};
  const std::vector<std::pair<std::int32_t, std::int32_t>> shapes = {
      {16, 4}, {32, 8}};

  harness::Table table{{"n", "m", "fault rate", "delivery", "no-repair",
                        "latency (us)", "latency x", "retx/op",
                        "repairs/op"}};
  std::vector<Point> points;
  for (const auto& [n, m] : shapes) {
    double base_latency = 0.0;
    for (const double rate : rates) {
      Point pt = sweep_point(fabric, n, m, rate, reps);
      if (rate == 0.0) base_latency = pt.latency_us;
      const double inflation =
          base_latency > 0.0 ? pt.latency_us / base_latency : 0.0;
      table.add_row({harness::Table::num(static_cast<std::int64_t>(n)),
                     harness::Table::num(static_cast<std::int64_t>(m)),
                     harness::Table::num(rate, 2),
                     harness::Table::num(pt.delivery_ratio, 3),
                     harness::Table::num(pt.delivery_no_repair, 3),
                     harness::Table::num(pt.latency_us),
                     harness::Table::num(inflation, 2),
                     harness::Table::num(pt.retx_per_op, 1),
                     harness::Table::num(pt.repairs_per_op, 2)});
      points.push_back(pt);
    }
  }
  table.print(std::cout);
  table.write_csv("fault_tolerance.csv");

  // Graceful degradation, per (n, m) curve:
  //  - a pristine fabric delivers everywhere, exactly;
  //  - the ratio falls monotonically with the fault rate (small slack
  //    for cross-plan sampling noise);
  //  - no cliff at rate -> 0+;
  //  - repair never delivers less than no-repair.
  const std::size_t per_curve = rates.size();
  for (std::size_t c = 0; c < shapes.size(); ++c) {
    const Point* curve = &points[c * per_curve];
    bench::expect_shape(curve[0].delivery_ratio == 1.0,
                        "zero-fault runs deliver everywhere, exactly");
    for (std::size_t i = 1; i < per_curve; ++i) {
      bench::expect_shape(
          curve[i].delivery_ratio <= curve[i - 1].delivery_ratio + 0.02,
          "delivery ratio degrades monotonically with fault rate");
    }
    bench::expect_shape(curve[1].delivery_ratio >= 0.90,
                        "no delivery cliff at small fault rates");
    for (std::size_t i = 0; i < per_curve; ++i) {
      bench::expect_shape(
          curve[i].delivery_ratio >= curve[i].delivery_no_repair - 1e-9,
          "tree repair never delivers less than no repair");
    }
  }

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_faults.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"fault_tolerance\",\n"
                 "  \"config\": {\n"
                 "    \"quick\": %s,\n"
                 "    \"reps\": %d,\n"
                 "    \"rig\": \"irregular 64-host, seed 3, reliable-fpfs, "
                 "repair max_attempts=2\",\n"
                 "    \"switch_fail_prob\": \"rate / 4\",\n"
                 "    \"window_us\": 150\n"
                 "  },\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", reps);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(out,
                   "    {\"n\": %d, \"m\": %d, \"rate\": %.3f, "
                   "\"delivery_ratio\": %.6f, \"delivery_no_repair\": %.6f, "
                   "\"latency_us\": %.3f, \"retx_per_op\": %.3f, "
                   "\"repairs_per_op\": %.3f}%s\n",
                   p.n, p.m, p.rate, p.delivery_ratio, p.delivery_no_repair,
                   p.latency_us, p.retx_per_op, p.repairs_per_op,
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

  return bench::finish("bench_fault_tolerance");
}
