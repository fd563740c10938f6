// Chaos robustness sweep: delivery ratio and completion-latency tail of
// smart-FPFS multicast as the probability of a mid-operation *initiator
// kill* rises, with the root-handoff policy on vs off, over a constant
// 20% link-fault background. The shape this bench guards: handoff never
// delivers less than no-handoff, and when the dead root still owed
// repair resends it turns truncated partials back into completions —
// paying the repair-tail latency the no-handoff run dodges by giving
// up. Emits BENCH_chaos.json (deterministic: same seeds, same bytes —
// the TSan CI job diffs two runs) and chaos.csv.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "network/fault_plan.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"

using namespace nimcast;

namespace {

struct Point {
  double kill_rate = 0.0;
  bool handoff = false;
  double delivery_ratio = 0.0;  ///< mean over ops
  double complete_rate = 0.0;   ///< fraction of ops ending kComplete
  double failed_rate = 0.0;     ///< fraction of ops ending kFailed
  double handoffs_per_op = 0.0;
  double p95_latency_us = 0.0;  ///< completion tail over delivering ops
};

Point sweep_point(const core::Fabric& fabric, double kill_rate, bool handoff,
                  int reps) {
  // 16 packets keep the root on duty (initial sends plus repair
  // resends) long enough that a mid-operation kill strands real work;
  // at m=4 the root retires before any destination holds the full
  // payload and a kill is either pre-arrival (kFailed regardless of
  // policy) or a no-op.
  constexpr std::int32_t kN = 16;
  constexpr std::int32_t kM = 16;
  const auto choice = core::optimal_k(kN, kM);
  Point pt;
  pt.kill_rate = kill_rate;
  pt.handoff = handoff;
  double ratio_sum = 0.0;
  int complete = 0, failed = 0;
  std::int64_t handoffs = 0;
  std::vector<double> latencies;
  for (int rep = 0; rep < reps; ++rep) {
    // Participants, background faults and the kill draw are all paired
    // across (kill_rate, handoff) cells: only the policy differs.
    sim::Rng rng{static_cast<std::uint64_t>(rep) * 977 + 19};
    const auto draw = rng.sample_without_replacement(
        static_cast<std::size_t>(fabric.num_hosts()),
        static_cast<std::size_t>(kN));
    std::vector<topo::HostId> dests;
    for (std::size_t i = 1; i < draw.size(); ++i) {
      dests.push_back(static_cast<topo::HostId>(draw[i]));
    }
    const auto members = core::arrange_participants(
        fabric.chain(), static_cast<topo::HostId>(draw.front()), dests);
    const auto tree =
        core::HostTree::bind(core::make_kbinomial(kN, choice.k), members);

    net::FaultPlan::RandomConfig fcfg;
    fcfg.link_fail_prob = 0.20;
    fcfg.window_end = sim::Time::us(80.0);
    sim::Rng fault_rng{0xC4A05 + static_cast<std::uint64_t>(rep) * 131};
    auto faults =
        net::FaultPlan::random(fabric.topology().switches(), fcfg, fault_rng);

    mcast::MulticastEngine::Config cfg;
    cfg.network.faults = faults;
    cfg.repair.root_handoff = handoff;

    // A baseline run (background faults only, no kill) measures this
    // rep's own completion time; the kill then lands at a drawn
    // fraction of it, so "mid-operation" tracks the rep instead of a
    // fixed instant. The baseline never kills the root, so it is
    // byte-identical across the handoff on/off cells and the kill
    // instant stays paired.
    const mcast::MulticastEngine baseline{fabric.topology(), fabric.routes(),
                                          cfg};
    const double op_span = baseline.run(tree, kM).latency.as_us();
    const double frac = 0.3 + fault_rng.next_double() * 0.6;
    const double kill_at = op_span > 0.0 ? frac * op_span : 30.0;
    const bool killed = fault_rng.next_double() < kill_rate;
    if (killed) faults.host_down(sim::Time::us(kill_at), tree.root);

    cfg.network.faults = faults;
    const mcast::MulticastEngine engine{fabric.topology(), fabric.routes(),
                                        cfg};
    const auto r = engine.run(tree, kM);
    ratio_sum += r.delivery_ratio();
    handoffs += r.root_handoffs;
    if (r.outcome == mcast::Outcome::kComplete) ++complete;
    if (r.outcome == mcast::Outcome::kFailed) ++failed;
    if (r.delivered_count() > 0) latencies.push_back(r.latency.as_us());
  }
  pt.delivery_ratio = ratio_sum / reps;
  pt.complete_rate = static_cast<double>(complete) / reps;
  pt.failed_rate = static_cast<double>(failed) / reps;
  pt.handoffs_per_op = static_cast<double>(handoffs) / reps;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto idx = static_cast<std::size_t>(
        0.95 * static_cast<double>(latencies.size() - 1));
    pt.p95_latency_us = latencies[idx];
  }
  return pt;
}

}  // namespace

int main() {
  std::printf("=== Chaos: root-kill rate vs delivery, handoff on/off "
              "(irregular 64-host rig, 20%% link background) ===\n\n");
  const bool quick = std::getenv("NIMCAST_QUICK") != nullptr;
  const int reps = quick ? 8 : 30;
  const core::Fabric fabric = bench::paper_fabric(3);

  const std::vector<double> kill_rates = {0.0, 0.25, 0.5, 1.0};
  harness::Table table{{"kill rate", "handoff", "delivery", "complete",
                        "failed", "handoffs/op", "p95 latency (us)"}};
  std::vector<Point> points;
  for (const double rate : kill_rates) {
    for (const bool handoff : {false, true}) {
      Point pt = sweep_point(fabric, rate, handoff, reps);
      table.add_row({harness::Table::num(rate, 2), handoff ? "on" : "off",
                     harness::Table::num(pt.delivery_ratio, 3),
                     harness::Table::num(pt.complete_rate, 2),
                     harness::Table::num(pt.failed_rate, 2),
                     harness::Table::num(pt.handoffs_per_op, 2),
                     harness::Table::num(pt.p95_latency_us)});
      points.push_back(pt);
    }
  }
  table.print(std::cout);
  table.write_csv("chaos.csv");

  // Shape: per kill rate, cells are paired — handoff off at index 2i,
  // on at 2i+1.
  for (std::size_t i = 0; i < kill_rates.size(); ++i) {
    const Point& off = points[2 * i];
    const Point& on = points[2 * i + 1];
    bench::expect_shape(
        on.delivery_ratio >= off.delivery_ratio - 1e-9,
        "root handoff never delivers less than no handoff");
    if (kill_rates[i] == 0.0) {
      bench::expect_shape(on.delivery_ratio == off.delivery_ratio,
                          "handoff is a no-op when the root survives");
      bench::expect_shape(on.handoffs_per_op == 0.0,
                          "no handoffs without a root kill");
    }
  }
  const Point& off_all = points[points.size() - 2];
  const Point& on_all = points.back();
  bench::expect_shape(on_all.handoffs_per_op > 0.0,
                      "certain root kill exercises the handoff");
  bench::expect_shape(
      on_all.delivery_ratio >= off_all.delivery_ratio + 0.10,
      "at certain root kill, handoff recovers a substantial share of "
      "deliveries");
  bench::expect_shape(
      on_all.complete_rate >= off_all.complete_rate + 0.10,
      "handoff turns truncated partials back into completions");
  // A kill before any destination holds the payload fails under both
  // policies — handoff needs a holder to elect, so it never *reduces*
  // the failure rate below the no-holder floor, and never raises it.
  bench::expect_shape(on_all.failed_rate <= off_all.failed_rate + 1e-9,
                      "handoff never makes an operation fail outright");

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_chaos.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"chaos\",\n"
                 "  \"config\": {\n"
                 "    \"quick\": %s,\n"
                 "    \"reps\": %d,\n"
                 "    \"rig\": \"irregular 64-host, seed 3, smart-fpfs, "
                 "n=16 m=16, link_fail_prob=0.20\",\n"
                 "    \"kill_at\": \"0.3..0.9 of each rep's own span\"\n"
                 "  },\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", reps);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(out,
                   "    {\"kill_rate\": %.2f, \"handoff\": %s, "
                   "\"delivery_ratio\": %.6f, \"complete_rate\": %.6f, "
                   "\"failed_rate\": %.6f, \"handoffs_per_op\": %.6f, "
                   "\"p95_latency_us\": %.3f}%s\n",
                   p.kill_rate, p.handoff ? "true" : "false",
                   p.delivery_ratio, p.complete_rate, p.failed_rate,
                   p.handoffs_per_op, p.p95_latency_us,
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

  return bench::finish("bench_chaos");
}
