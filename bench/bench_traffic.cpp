// Extension experiment: multi-tenant traffic at scale. A seeded open-loop
// mix of concurrent multicast / streaming / collective tenant groups
// (Poisson arrivals, bounded-Zipf group sizes, mid-stream membership
// churn) runs end to end over ONE shared wormhole fabric, admitted either
// FIFO (every op launches the instant it arrives — the no-pacing
// baseline) or by the contention-aware group scheduler
// (traffic::Policy::kPaced), which defers an arriving tree while too much
// of its switch-channel footprint is held by in-flight trees or measured
// hot by the per-channel block-time telemetry.
//
// The sweep raises offered load (ops per millisecond) to saturation on a
// bandwidth-constrained fabric (one 64-byte packet serializes in 4 us, so
// channels — not NI overheads — are the bottleneck and wormhole blocking
// convoys actually form). At light load the scheduler must be a strict
// no-op: every decision sees an empty fabric, so the paced point is
// byte-identical to FIFO — digest and all.
//
// What saturation shows, and what the shape checks encode, is the honest
// scheduling result for a lossless fabric that releases channels
// per-packet: FIFO is close to work-conserving (a blocked worm's
// channels stall, but the worm blocking it is always advancing and frees
// the channel within one serialization), so admission pacing cannot beat
// it on drain throughput — the two policies tie within a few percent of
// ops/sec. And because FCT here is what a tenant observes —
// arrival-to-completion, queueing wait included — the tail at an offered
// burst is makespan-dominated: deferral converts fabric convoy time into
// queue wait roughly one-for-one, so pacing cannot slash the p99 either.
// Both policies' p99 blows up ~7x from single-group load to saturation.
// What the light-touch pacing operating point below delivers, and what
// the gates pin, is bounded admission at zero cost: the scheduler defers
// real work at saturation (capping instantaneous footprint overlap, with
// starvation bounded by max_defer_ticks) while holding drain throughput
// at >= 95% of FIFO and landing the saturation p99 FCT at or slightly
// below FIFO's (0.98x irregular / 0.99x fat-tree on the full sweep —
// strictly lower, deterministically, but a trim rather than a win).
// Heavier pacing only hurts: tolerance 100 with a 1024-tick aging bound
// serializes the mix down to 0.39x FIFO throughput and 2.4x its tail.
//
// Shapes guarded: byte-identity (digest equality) at the lightest load;
// FIFO never defers; pacing holds ops/sec within 10% of FIFO at every
// load and within 5% at saturation; paced p99 FCT strictly below FIFO's
// at saturation on the full sweep (the 40-op quick mix has too little
// tail mass for a strict ordering, so quick mode gates parity at
// <= 1.02x instead); FIFO's p99 tail at saturation has actually blown
// up (>= 1.5x its single-group value) while the paced scheduler was
// deferring real work. Output: results/BENCH_traffic.json
// (byte-identical across runs and thread counts; CI double-runs and cmps
// it).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "traffic/scheduler.hpp"
#include "traffic/workload.hpp"

using namespace nimcast;

namespace {

struct RigSpec {
  std::string name;
  harness::TestbedSpec spec;
};

struct TrafficRow {
  std::string rig;
  std::int32_t hosts = 0;
  double ops_per_ms = 0.0;
  std::string policy;
  double ops_per_sec = 0.0;
  double flits_per_us = 0.0;
  double makespan_us = 0.0;
  double fct_p50_us = 0.0;
  double fct_p99_us = 0.0;
  double fct_stream_p99_us = 0.0;
  double deferrals = 0.0;
  std::uint64_t digest = 0;
};

}  // namespace

int main() {
  const bool quick = std::getenv("NIMCAST_QUICK") != nullptr;
  std::printf("=== Extension: multi-tenant traffic — contention-aware "
              "pacing vs FIFO admission ===\n\n");

  // Offered-load sweep (mean operations per millisecond). The lightest
  // point spaces arrivals ~4 orders of magnitude past any single op's
  // completion (pacing must no-op); the heaviest offers the whole mix in
  // a burst a few op-durations wide.
  const std::vector<double> loads =
      quick ? std::vector<double>{0.002, 160.0, 2560.0}
            : std::vector<double>{0.002, 40.0, 160.0, 640.0, 2560.0};

  // One packet serializes in 4 us: the channel-bound regime where
  // admission control has real work to do. On the default 160 MB/s
  // fabric the NI send overhead dominates and contention never bites.
  constexpr double kConstrainedBandwidth = 16.0;

  std::vector<RigSpec> rigs;
  {
    RigSpec irr{"irregular64", harness::TestbedSpec::make_irregular(64)};
    irr.spec.num_topologies = quick ? 2 : 4;
    irr.spec.sets_per_topology = quick ? 2 : 4;
    irr.spec.network.bandwidth_bytes_per_us = kConstrainedBandwidth;
    rigs.push_back(std::move(irr));
    if (!quick) {
      RigSpec ft{"fat_tree64", harness::TestbedSpec::make_fat_tree(64)};
      ft.spec.sets_per_topology = 8;
      ft.spec.network.bandwidth_bytes_per_us = kConstrainedBandwidth;
      rigs.push_back(std::move(ft));
    }
  }

  traffic::WorkloadConfig mix;
  mix.num_ops = quick ? 40 : 96;
  mix.min_group = 4;
  mix.max_group = 24;

  // Tuned on the constrained rigs (tolerance x defer-bound grid, both
  // rigs): admit while <= 50% of the footprint is busy and force-admit
  // after 2 ticks, re-scoring on a 5 us tick (roughly one serialization
  // time, so released capacity backfills within a tick). This is
  // deliberately light-touch — deferrals last at most ~10 us against
  // service times of 100-2500 us — because the per-packet-release fabric
  // punishes anything stricter: every longer aging bound or lower
  // tolerance measured strictly worse on BOTH throughput and
  // tenant-observed p99 at saturation.
  traffic::SchedulerConfig paced;
  paced.policy = traffic::Policy::kPaced;
  paced.overlap_tolerance_x1000 = 500;
  paced.max_defer_ticks = 2;
  paced.tick = sim::Time::us(5.0);
  // The baseline differs ONLY in policy. In particular it keeps the same
  // tick: the coordinator tick also quantizes compound-op phase
  // transitions (collective gather -> broadcast, churn re-bind), so a
  // different cadence would shift completions and break the light-load
  // byte-identity the A/B rests on.
  traffic::SchedulerConfig fifo = paced;
  fifo.policy = traffic::Policy::kFifo;

  harness::Table table{{"rig", "load (ops/ms)", "policy", "ops/sec",
                        "flits/us", "fct p50 (us)", "fct p99 (us)",
                        "deferrals"}};
  std::vector<TrafficRow> rows;

  for (const RigSpec& rig : rigs) {
    const harness::Testbed testbed{rig.spec};
    for (const double load : loads) {
      traffic::WorkloadConfig wcfg = mix;
      wcfg.ops_per_ms = load;
      for (const traffic::SchedulerConfig* sched : {&fifo, &paced}) {
        const harness::TrafficPoint p =
            testbed.measure_traffic(wcfg, *sched);
        TrafficRow row;
        row.rig = rig.name;
        row.hosts = rig.spec.num_hosts;
        row.ops_per_ms = load;
        row.policy = traffic::to_string(sched->policy);
        row.ops_per_sec = p.ops_per_sec.mean();
        row.flits_per_us = p.flits_per_us.mean();
        row.makespan_us = p.makespan_us.mean();
        row.fct_p50_us = p.fct_us.percentile(50.0);
        row.fct_p99_us = p.fct_us.percentile(99.0);
        row.fct_stream_p99_us = p.fct_stream_us.percentile(99.0);
        row.deferrals = p.deferral_ticks.mean();
        row.digest = p.digest;
        table.add_row({row.rig, harness::Table::num(load, 3), row.policy,
                       harness::Table::num(row.ops_per_sec),
                       harness::Table::num(row.flits_per_us, 2),
                       harness::Table::num(row.fct_p50_us, 1),
                       harness::Table::num(row.fct_p99_us, 1),
                       harness::Table::num(row.deferrals, 1)});
        rows.push_back(std::move(row));
      }
    }
  }
  table.print(std::cout);

  const auto at = [&](const std::string& rig, double load,
                      const std::string& policy) -> const TrafficRow* {
    for (const TrafficRow& r : rows) {
      if (r.rig == rig && r.ops_per_ms == load && r.policy == policy) {
        return &r;
      }
    }
    return nullptr;
  };

  for (const RigSpec& rig : rigs) {
    // Lightest load: one group at a time — pacing is a strict no-op, so
    // the two sweeps are byte-identical (digests chain per-replication
    // completion streams; equality means every completion matched).
    const TrafficRow* f0 = at(rig.name, loads.front(), "fifo");
    const TrafficRow* p0 = at(rig.name, loads.front(), "paced");
    bench::expect_shape(f0 != nullptr && p0 != nullptr &&
                            f0->digest == p0->digest,
                        rig.name + ": paced is byte-identical to FIFO at "
                                   "single-group load");
    bench::expect_shape(p0 != nullptr && p0->deferrals == 0.0,
                        rig.name + ": no deferrals at single-group load");

    // Every load: FIFO never defers, and pacing never costs more than
    // 10% of drain throughput.
    for (const double load : loads) {
      const TrafficRow* f = at(rig.name, load, "fifo");
      const TrafficRow* p = at(rig.name, load, "paced");
      if (f == nullptr || p == nullptr) continue;
      bench::expect_shape(f->deferrals == 0.0,
                          rig.name + ": FIFO never defers");
      bench::expect_shape(p->ops_per_sec >= 0.90 * f->ops_per_sec,
                          rig.name + " @" + std::to_string(load) +
                              ": pacing holds >= 90% of FIFO ops/sec");
    }

    // Saturation: FIFO's tail has actually blown up, and pacing holds
    // drain-throughput parity with a saturation p99 at or below FIFO's
    // while genuinely deferring work. Arrival-inclusive FCT at an
    // offered burst is makespan-dominated, so a large tail cut is not
    // physically available (see header comment); the full sweep's tail
    // trim is strict and deterministic, the 40-op quick mix only has
    // enough tail mass to gate parity.
    const TrafficRow* fs = at(rig.name, loads.back(), "fifo");
    const TrafficRow* ps = at(rig.name, loads.back(), "paced");
    if (f0 != nullptr && fs != nullptr && ps != nullptr) {
      bench::expect_shape(fs->fct_p99_us >= 1.5 * f0->fct_p99_us,
                          rig.name + ": FIFO's p99 FCT grows >= 1.5x from "
                                     "single-group load to saturation");
      bench::expect_shape(ps->ops_per_sec >= 0.95 * fs->ops_per_sec,
                          rig.name + ": pacing holds >= 95% of FIFO "
                                     "ops/sec at saturation");
      const bool tail_ok = quick
                               ? ps->fct_p99_us <= 1.02 * fs->fct_p99_us
                               : ps->fct_p99_us < fs->fct_p99_us;
      bench::expect_shape(tail_ok,
                          rig.name + ": paced saturation p99 FCT " +
                              (quick ? "within 2% of" : "strictly below") +
                              " FIFO's (" + std::to_string(ps->fct_p99_us) +
                              " vs " + std::to_string(fs->fct_p99_us) +
                              " us)");
      bench::expect_shape(ps->deferrals > 0.0,
                          rig.name + ": the paced scheduler deferred work "
                                     "at saturation");
    }
  }

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_traffic.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"traffic\",\n"
                 "  \"config\": {\n"
                 "    \"quick\": %s,\n"
                 "    \"num_ops\": %d,\n"
                 "    \"group_range\": [%d, %d],\n"
                 "    \"bandwidth_bytes_per_us\": %.1f,\n"
                 "    \"overlap_tolerance_x1000\": %d,\n"
                 "    \"max_defer_ticks\": %d,\n"
                 "    \"tick_us\": %.1f\n"
                 "  },\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", mix.num_ops, mix.min_group,
                 mix.max_group, kConstrainedBandwidth,
                 paced.overlap_tolerance_x1000, paced.max_defer_ticks,
                 static_cast<double>(paced.tick.count_ns()) / 1000.0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const TrafficRow& r = rows[i];
      std::fprintf(
          out,
          "    {\"rig\": \"%s\", \"hosts\": %d, \"ops_per_ms\": %.3f, "
          "\"policy\": \"%s\", \"ops_per_sec\": %.3f, "
          "\"flits_per_us\": %.6f, \"makespan_us\": %.3f, "
          "\"fct_p50_us\": %.3f, \"fct_p99_us\": %.3f, "
          "\"fct_stream_p99_us\": %.3f, \"deferral_ticks\": %.3f, "
          "\"digest\": \"%016llx\"}%s\n",
          r.rig.c_str(), r.hosts, r.ops_per_ms, r.policy.c_str(),
          r.ops_per_sec, r.flits_per_us, r.makespan_us, r.fct_p50_us,
          r.fct_p99_us, r.fct_stream_p99_us, r.deferrals,
          static_cast<unsigned long long>(r.digest),
          i + 1 < rows.size() ? "," : "");
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

  return bench::finish("bench_traffic");
}
