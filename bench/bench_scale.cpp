// Scale-out sweep: the testbed harness driven far past the paper's
// 64-host rig. For fat-tree and irregular fabrics at n in {64, 256, 1024}
// hosts x m in {1, 16} packets it measures broadcast latency over random
// destination sets and reports simulator events/sec, peak RSS, and
// route-table build time/footprint, then compares the compressed (lazy)
// RouteTable against an eager all-pairs build of the same largest fabric,
// and sweeps the intra-run sharding grid (n x threads, plus an
// eager-vs-overlapped merge barrier comparison). Emits BENCH_scale.json
// and BENCH_sharded.json (see docs/perf.md).
//
// Flags:
//   --quick           smoke sizing (also triggered by NIMCAST_QUICK=1);
//                     the eager-vs-compressed comparison drops to n=256
//   --gate-baseline [path]
//                     perf gate against a recorded BENCH_sim_core.json
//                     (default results/BENCH_sim_core.json): re-runs that
//                     bench's serial 64-host sweep and fails if wall time
//                     exceeds 1.10x the recorded value after normalizing
//                     by the frozen seed-queue churn ratio (machine
//                     speed), i.e. if 64-host throughput regressed > 10%.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "topology/fat_tree.hpp"

using namespace nimcast;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// VmHWM (peak resident set) in kB from /proc/self/status; 0 when the
/// proc interface is unavailable.
std::size_t peak_rss_kb() {
  std::size_t kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb;
}

struct PointResult {
  const char* fabric = "";
  std::int32_t hosts = 0;
  std::int32_t m = 0;
  std::int32_t reps = 0;
  double build_ms = 0.0;          ///< topology + routes + CCO construction
  double wall_ms = 0.0;           ///< measure() wall time
  double events_total = 0.0;      ///< simulator events across all reps
  double events_per_sec = 0.0;    ///< events_total / measure wall time
  double latency_us_mean = 0.0;
  std::size_t route_bytes = 0;    ///< compressed footprint after the sweep
  std::size_t rss_kb = 0;         ///< process VmHWM after the point
};

/// Replication counts shrink with scale so the full sweep stays in
/// minutes on one core; quick mode is a smoke run.
void size_spec(harness::TestbedSpec& spec, bool quick) {
  const std::int32_t hosts = spec.num_hosts;
  if (spec.fabric == harness::FabricKind::kIrregular) {
    if (hosts <= 64) {
      spec.num_topologies = quick ? 2 : 10;
      spec.sets_per_topology = quick ? 3 : 30;
    } else if (hosts <= 256) {
      spec.num_topologies = quick ? 1 : 3;
      spec.sets_per_topology = quick ? 2 : 10;
    } else {
      spec.num_topologies = 1;
      spec.sets_per_topology = quick ? 1 : 3;
    }
  } else {
    spec.num_topologies = 1;  // deterministic fabric
    if (hosts <= 64) {
      spec.sets_per_topology = quick ? 3 : 30;
    } else if (hosts <= 256) {
      spec.sets_per_topology = quick ? 2 : 10;
    } else {
      spec.sets_per_topology = quick ? 1 : 3;
    }
  }
}

PointResult run_point(harness::FabricKind fabric, std::int32_t hosts,
                      std::int32_t m, bool quick) {
  harness::TestbedSpec spec =
      fabric == harness::FabricKind::kFatTree
          ? harness::TestbedSpec::make_fat_tree(hosts)
          : harness::TestbedSpec::make_irregular(hosts);
  size_spec(spec, quick);

  PointResult r;
  r.fabric =
      fabric == harness::FabricKind::kFatTree ? "fat_tree" : "irregular";
  r.hosts = hosts;
  r.m = m;
  r.reps = spec.num_topologies * spec.sets_per_topology;

  const harness::Testbed bed{spec};
  r.build_ms = bed.build_ms();

  const auto start = Clock::now();
  // Full broadcast (n = hosts): the densest traffic the fabric carries,
  // and the point where route-table coverage is widest.
  const harness::MeasurePoint p =
      bed.measure(hosts, m, harness::TreeSpec::optimal(),
                  mcast::NiStyle::kSmartFpfs);
  r.wall_ms = ms_since(start);

  r.events_total = p.events.mean() * static_cast<double>(p.events.count());
  r.events_per_sec = r.events_total / (r.wall_ms / 1000.0);
  r.latency_us_mean = p.latency_us.mean();
  r.route_bytes = bed.route_memory_bytes();
  r.rss_kb = peak_rss_kb();

  std::printf("%-9s n=%-5d m=%-3d reps=%-3d build %8.1f ms | sweep "
              "%9.1f ms | %10.3g events/sec | routes %8.1f KiB | "
              "RSS %7zu MB\n",
              r.fabric, r.hosts, r.m, r.reps, r.build_ms, r.wall_ms,
              r.events_per_sec,
              static_cast<double>(r.route_bytes) / 1024.0, r.rss_kb / 1024);
  bench::expect_shape(r.events_total > 0.0,
                      std::string(r.fabric) + " sweep dispatched events");
  return r;
}

// ---------------------------------------------------------------------------
// Eager-vs-compressed comparison on one fat-tree fabric: build both
// tables on the identical topology/router, compare construction wall
// time and heap footprint. The compressed side is measured *after*
// materializing every switch pair the broadcast sweep can touch (all of
// them, via path()), so the ratio is an upper bound on its footprint.

struct StorageCompare {
  std::int32_t hosts = 0;
  double eager_build_ms = 0.0;
  double compressed_build_ms = 0.0;
  std::size_t eager_bytes = 0;
  std::size_t compressed_bytes = 0;
  double memory_ratio = 0.0;
};

StorageCompare compare_storage(std::int32_t hosts) {
  const harness::TestbedSpec spec = harness::TestbedSpec::make_fat_tree(hosts);
  const topo::Topology topology = topo::make_fat_tree(spec.fat_tree);
  const auto router = std::make_shared<const routing::UpDownRouter>(
      topology.switches(), topo::fat_tree_levels(spec.fat_tree));

  StorageCompare c;
  c.hosts = hosts;

  auto start = Clock::now();
  {
    const routing::RouteTable eager{topology, *router};
    c.eager_build_ms = ms_since(start);
    c.eager_bytes = eager.memory_bytes();
  }

  start = Clock::now();
  const routing::RouteTable compressed{topology, router};
  c.compressed_build_ms = ms_since(start);
  // Touch every pair so the compressed footprint is its worst case (the
  // sweeps above only materialize pairs traffic crosses).
  for (std::int32_t s = 0; s < hosts; ++s) {
    for (std::int32_t d = 0; d < hosts; ++d) {
      if (s != d) (void)compressed.path(s, d);
    }
  }
  c.compressed_bytes = compressed.memory_bytes();
  c.memory_ratio = static_cast<double>(c.eager_bytes) /
                   static_cast<double>(c.compressed_bytes);

  std::printf("\nstorage @ n=%d fat-tree: eager %.1f ms / %.1f MiB vs "
              "compressed %.3f ms / %.1f KiB fully materialized "
              "(%.1fx smaller)\n",
              c.hosts, c.eager_build_ms,
              static_cast<double>(c.eager_bytes) / (1024.0 * 1024.0),
              c.compressed_build_ms,
              static_cast<double>(c.compressed_bytes) / 1024.0,
              c.memory_ratio);
  bench::expect_shape(c.memory_ratio >= 5.0,
                      "compressed route table >= 5x smaller than eager "
                      "all-pairs at scale");
  return c;
}

// ---------------------------------------------------------------------------
// Intra-run sharding grid: the identical fat-tree broadcast run through
// the same engine code at n in {256, 1024} hosts x threads in
// {1, 2, 4, 8} (one shard per thread; threads == 1 is the serial
// engine), with a bit-identity check at every point. The speedup column
// is what the sharded engine buys a *single* replication when
// replication-level parallelism cannot fill the machine (see
// docs/perf.md); it only materializes when the box has cores to spare,
// so the monotonicity and >= 2x shape checks arm only on 8+ hardware
// threads and the JSON records whatever this machine actually measured.
// A separate eager-vs-overlapped pass isolates the window-barrier cost
// the merge worker removed (NIMCAST_EAGER_MERGE=1 restores the PR 4
// merge-inside-the-barrier behaviour).

struct ShardedPoint {
  std::int32_t hosts = 0;
  std::int32_t threads = 0;
  std::int32_t shards = 0;
  std::int32_t reps = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double speedup = 0.0;            ///< serial wall / this wall, same n
  std::int64_t window_ns = 0;      ///< conservative window (0 = serial)
  std::int64_t barrier_wall_ns = 0;  ///< mean window-planning wall per rep
  std::int64_t windows_planned = 0;
  bool identical = false;
};

struct BarrierCompare {
  std::int64_t eager_ns = 0;       ///< merge joined inside the barrier
  std::int64_t overlapped_ns = 0;  ///< merge overlapped with next drain
  double reduction = 0.0;          ///< 1 - overlapped/eager
  bool identical = false;
};

struct ShardedGrid {
  unsigned hw_threads = 0;
  std::int32_t m = 0;
  std::int32_t reps = 0;
  std::vector<ShardedPoint> points;
  BarrierCompare barrier;
};

bool same_multi(const mcast::MultiMulticastResult& a,
                const mcast::MultiMulticastResult& b) {
  if (a.makespan != b.makespan ||
      a.total_channel_block_time != b.total_channel_block_time ||
      a.retransmissions != b.retransmissions ||
      a.events_dispatched != b.events_dispatched ||
      a.operations.size() != b.operations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.operations.size(); ++i) {
    if (a.operations[i].latency != b.operations[i].latency ||
        a.operations[i].completions != b.operations[i].completions ||
        a.operations[i].packets_delivered !=
            b.operations[i].packets_delivered) {
      return false;
    }
  }
  return true;
}

ShardedGrid measure_sharded_grid(bool quick) {
  constexpr std::int32_t kPackets = 16;
  ShardedGrid g;
  g.hw_threads = std::thread::hardware_concurrency();
  g.m = kPackets;
  g.reps = quick ? 1 : 3;

  std::printf("\nintra-run sharding grid (fat-tree full broadcast, m=%d, "
              "%d rep(s), %u hw threads)\n",
              g.m, g.reps, g.hw_threads);

  for (const std::int32_t hosts : {256, 1024}) {
    const harness::TestbedSpec spec =
        harness::TestbedSpec::make_fat_tree(hosts);
    const topo::Topology topology = topo::make_fat_tree(spec.fat_tree);
    const auto router = std::make_shared<const routing::UpDownRouter>(
        topology.switches(), topo::fat_tree_levels(spec.fat_tree));
    const routing::RouteTable routes{topology, router};
    const core::Chain cco = core::cco_ordering(topology, *router);

    // Full broadcast from host 0 in CCO order — the same traffic shape
    // the scale sweep above measured.
    const core::RankTree rank_tree =
        harness::TreeSpec::optimal().build(hosts, kPackets);
    std::vector<topo::HostId> dests;
    dests.reserve(static_cast<std::size_t>(hosts) - 1);
    for (std::int32_t h = 1; h < hosts; ++h) dests.push_back(h);
    const core::Chain members = core::arrange_participants(cco, 0, dests);
    const std::vector<mcast::MulticastSpec> specs{mcast::MulticastSpec{
        core::HostTree::bind(rank_tree, members), kPackets,
        sim::Time::zero()}};

    const mcast::MulticastEngine::Config base_cfg{
        spec.params, spec.network, mcast::NiStyle::kSmartFpfs};
    mcast::MultiMulticastResult serial_res;
    double serial_wall_ms = 0.0;

    for (const std::int32_t threads : {1, 2, 4, 8}) {
      mcast::MulticastEngine::Config cfg = base_cfg;
      cfg.shards = threads;  // one shard per thread
      cfg.shard_threads = threads;
      const mcast::MulticastEngine engine{topology, routes, cfg};

      // One untimed run first: page in the arenas and routes so the
      // timed loop measures steady-state dispatch, not first-touch cost.
      mcast::MultiMulticastResult res = engine.run_many(specs);
      std::int64_t barrier_ns = 0;
      const auto start = Clock::now();
      for (std::int32_t rep = 0; rep < g.reps; ++rep) {
        res = engine.run_many(specs);
        barrier_ns += res.barrier_wall_ns;
      }

      ShardedPoint p;
      p.hosts = hosts;
      p.threads = threads;
      p.shards = threads;
      p.reps = g.reps;
      p.wall_ms = ms_since(start);
      p.events_per_sec = static_cast<double>(res.events_dispatched) *
                         g.reps / (p.wall_ms / 1000.0);
      p.window_ns = res.window_ns;
      p.barrier_wall_ns = barrier_ns / g.reps;
      p.windows_planned = res.windows_planned;
      if (threads == 1) {
        serial_res = res;
        serial_wall_ms = p.wall_ms;
        p.identical = true;
      } else {
        p.identical = same_multi(serial_res, res);
        bench::expect_shape(
            p.window_ns > 0,
            "n=" + std::to_string(hosts) + " threads=" +
                std::to_string(threads) + " actually ran sharded");
      }
      p.speedup = serial_wall_ms / p.wall_ms;
      std::printf("  n=%-5d threads=%d shards=%d %9.1f ms %10.3g "
                  "events/sec %5.2fx window %4" PRId64 " ns barrier "
                  "%8" PRId64 " ns (%s)\n",
                  p.hosts, p.threads, p.shards, p.wall_ms,
                  p.events_per_sec, p.speedup, p.window_ns,
                  p.barrier_wall_ns,
                  p.identical ? "bit-identical" : "DIVERGED");
      bench::expect_shape(p.identical,
                          "sharded n=" + std::to_string(hosts) +
                              " threads=" + std::to_string(threads) +
                              " broadcast bit-identical to serial");
      g.points.push_back(p);
    }

    // Isolate the window-barrier cost: the same n=1024 4-shard run with
    // the merge joined inside the barrier (PR 4 behaviour) vs the
    // overlapped merge worker. Both must stay bit-identical to serial.
    if (hosts == 1024) {
      mcast::MulticastEngine::Config cfg = base_cfg;
      cfg.shards = 4;
      cfg.shard_threads = 4;
      const mcast::MulticastEngine engine{topology, routes, cfg};

      setenv("NIMCAST_EAGER_MERGE", "1", 1);
      mcast::MultiMulticastResult eager = engine.run_many(specs);  // warm
      std::int64_t eager_ns = 0;
      for (std::int32_t rep = 0; rep < g.reps; ++rep) {
        eager = engine.run_many(specs);
        eager_ns += eager.barrier_wall_ns;
      }
      unsetenv("NIMCAST_EAGER_MERGE");

      mcast::MultiMulticastResult over = engine.run_many(specs);  // warm
      std::int64_t over_ns = 0;
      for (std::int32_t rep = 0; rep < g.reps; ++rep) {
        over = engine.run_many(specs);
        over_ns += over.barrier_wall_ns;
      }

      g.barrier.eager_ns = eager_ns / g.reps;
      g.barrier.overlapped_ns = over_ns / g.reps;
      g.barrier.reduction =
          g.barrier.eager_ns > 0
              ? 1.0 - static_cast<double>(g.barrier.overlapped_ns) /
                          static_cast<double>(g.barrier.eager_ns)
              : 0.0;
      g.barrier.identical =
          same_multi(eager, over) && same_multi(serial_res, over);
      std::printf("  barrier @ n=1024 shards=4: eager %" PRId64
                  " ns vs overlapped %" PRId64 " ns (%.0f%% less, %s)\n",
                  g.barrier.eager_ns, g.barrier.overlapped_ns,
                  g.barrier.reduction * 100.0,
                  g.barrier.identical ? "bit-identical" : "DIVERGED");
      bench::expect_shape(g.barrier.identical,
                          "eager and overlapped merges bit-identical");
    }
  }

  if (g.hw_threads >= 8) {
    double best_1024 = 0.0;
    const ShardedPoint* prev = nullptr;
    for (const ShardedPoint& p : g.points) {
      if (p.hosts != 1024) continue;
      if (prev != nullptr) {
        bench::expect_shape(
            p.events_per_sec >= 0.95 * prev->events_per_sec,
            "n=1024 events/sec non-decreasing from threads=" +
                std::to_string(prev->threads) + " to " +
                std::to_string(p.threads));
      }
      prev = &p;
      best_1024 = std::max(best_1024, p.speedup);
    }
    bench::expect_shape(best_1024 >= 2.0,
                        "sharded n=1024 run >= 2x over serial on an "
                        "8+-thread machine");
    bench::expect_shape(g.barrier.overlapped_ns <=
                            g.barrier.eager_ns * 11 / 10,
                        "overlapped merge does not cost more barrier "
                        "time than the eager merge");
  } else {
    std::printf("  (only %u hardware thread(s): speedup recorded but "
                "monotonicity/2x checks not armed)\n",
                g.hw_threads);
  }
  return g;
}

// ---------------------------------------------------------------------------
// Perf gate: the recorded BENCH_sim_core.json holds the 64-host serial
// sweep wall time and the seed-queue churn events/sec
// (events_per_sec_seed_baseline) of the machine that recorded it.
// Re-running that frozen churn loop here measures *this* machine;
// scaling the recorded wall by the churn ratio predicts what the
// recorded build would score on this box, making the 10% regression gate
// portable across hardware. The probe deliberately avoids
// sim::EventQueue: an event-core speedup would otherwise tighten the
// gate, and an event-core slowdown would loosen it and hide itself.

/// Frozen seed-queue churn probe (machine-speed scale), measured once
/// per process no matter how many callers normalize against it. The
/// probe is full-size regardless of --quick — the recorded baselines are
/// full-size — but hoisting it here means a quick-mode run pays for it
/// at most once instead of re-deriving it per gate invocation.
const bench::ChurnResult& churn_probe() {
  static const bench::ChurnResult probe = [] {
    (void)bench::churn_legacy(200'000, 512);  // warm-up
    return bench::churn_legacy(2'000'000, 512);
  }();
  return probe;
}

double extract_json_number(const std::string& text, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

struct GateResult {
  bool ran = false;
  double machine_scale = 0.0;   ///< seed-queue churn now / recorded
  double recorded_wall_ms = 0.0;
  double predicted_wall_ms = 0.0;
  double actual_wall_ms = 0.0;
  bool passed = true;
};

GateResult run_gate(const std::string& baseline_path) {
  GateResult g;
  std::string text;
  if (FILE* f = std::fopen(baseline_path.c_str(), "r")) {
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, got);
    }
    std::fclose(f);
  } else {
    bench::expect_shape(false, "gate baseline not readable: " + baseline_path);
    return g;
  }
  const double recorded_churn =
      extract_json_number(text, "events_per_sec_seed_baseline");
  g.recorded_wall_ms = extract_json_number(text, "wall_ms_serial");
  if (recorded_churn <= 0.0 || g.recorded_wall_ms <= 0.0) {
    bench::expect_shape(false, "gate baseline missing "
                               "events_per_sec_seed_baseline / "
                               "wall_ms_serial: " + baseline_path);
    return g;
  }

  // Full-size sweep regardless of --quick: the recorded numbers are
  // full-size, and it finishes in ~1 s. The churn probe is the shared
  // once-per-process one.
  g.machine_scale = churn_probe().events_per_sec / recorded_churn;

  harness::IrregularTestbed::Config cfg;  // the paper rig, full size
  const harness::IrregularTestbed bed{cfg};
  const auto start = Clock::now();
  for (const std::int32_t n : {16, 32, 64}) {
    for (const std::int32_t m : {1, 4}) {
      (void)bed.measure(n, m, harness::TreeSpec::optimal(),
                        mcast::NiStyle::kSmartFpfs,
                        harness::OrderingKind::kCco, 1);
    }
  }
  g.actual_wall_ms = ms_since(start);
  g.predicted_wall_ms = g.recorded_wall_ms / g.machine_scale;
  g.passed = g.actual_wall_ms <= 1.10 * g.predicted_wall_ms;
  g.ran = true;

  std::printf("\nperf gate: recorded %.1f ms, machine-scale %.2fx -> "
              "predicted %.1f ms; measured %.1f ms (%s)\n",
              g.recorded_wall_ms, g.machine_scale, g.predicted_wall_ms,
              g.actual_wall_ms, g.passed ? "PASS" : "FAIL");
  bench::expect_shape(g.passed,
                      "64-host serial sweep within 10% of recorded "
                      "baseline (machine-normalized)");
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = std::getenv("NIMCAST_QUICK") != nullptr;
  bool gate = false;
  std::string baseline_path = "results/BENCH_sim_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--gate-baseline") == 0) {
      gate = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') baseline_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("=== scale-out sweep (%s) ===\n\n", quick ? "quick" : "full");

  std::vector<PointResult> points;
  for (const harness::FabricKind fabric :
       {harness::FabricKind::kFatTree, harness::FabricKind::kIrregular}) {
    for (const std::int32_t hosts : {64, 256, 1024}) {
      for (const std::int32_t m : {1, 16}) {
        points.push_back(run_point(fabric, hosts, m, quick));
      }
    }
  }

  // Quick mode keeps the eager build affordable for sanitizer smoke
  // runs; the full run does the headline n=1024 comparison.
  const StorageCompare storage = compare_storage(quick ? 256 : 1024);

  const ShardedGrid grid = measure_sharded_grid(quick);

  GateResult gate_result;
  if (gate) gate_result = run_gate(baseline_path);

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_scale.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"scale\",\n"
                 "  \"config\": {\n"
                 "    \"quick\": %s,\n"
                 "    \"sweep\": \"fat_tree + irregular, n in "
                 "{64,256,1024} hosts, m in {1,16}, full broadcast, "
                 "optimal tree, smart-fpfs, compressed routes\"\n"
                 "  },\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointResult& r = points[i];
      std::fprintf(out,
                   "    {\"fabric\": \"%s\", \"hosts\": %d, \"m\": %d, "
                   "\"reps\": %d, \"build_ms\": %.2f, \"wall_ms\": %.2f, "
                   "\"events_total\": %.0f, \"events_per_sec\": %.1f, "
                   "\"latency_us_mean\": %.3f, \"route_bytes\": %zu, "
                   "\"peak_rss_kb\": %zu}%s\n",
                   r.fabric, r.hosts, r.m, r.reps, r.build_ms, r.wall_ms,
                   r.events_total, r.events_per_sec, r.latency_us_mean,
                   r.route_bytes, r.rss_kb,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"storage_compare\": {\"hosts\": %d, "
                 "\"eager_build_ms\": %.2f, \"compressed_build_ms\": %.3f, "
                 "\"eager_bytes\": %zu, \"compressed_bytes\": %zu, "
                 "\"memory_ratio\": %.2f},\n",
                 storage.hosts, storage.eager_build_ms,
                 storage.compressed_build_ms, storage.eager_bytes,
                 storage.compressed_bytes, storage.memory_ratio);
    if (gate_result.ran) {
      std::fprintf(out,
                   "  \"gate\": {\"machine_scale\": %.3f, "
                   "\"recorded_wall_ms\": %.2f, \"predicted_wall_ms\": "
                   "%.2f, \"actual_wall_ms\": %.2f, \"passed\": %s},\n",
                   gate_result.machine_scale, gate_result.recorded_wall_ms,
                   gate_result.predicted_wall_ms, gate_result.actual_wall_ms,
                   gate_result.passed ? "true" : "false");
    }
    // Machine-speed probe (the frozen seed-queue churn loop) recorded
    // alongside the wall-time metrics so a downstream trend diff
    // (scripts/bench_trend.py) can normalize two runs taken on different
    // machines onto one scale.
    std::fprintf(out,
                 "  \"machine_probe_events_per_sec\": %.1f,\n"
                 "  \"peak_rss_kb\": %zu,\n"
                 "  \"git_rev\": \"%s\"\n"
                 "}\n",
                 churn_probe().events_per_sec, peak_rss_kb(),
                 bench::git_rev().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    bench::expect_shape(false, std::string("could not write ") + out_path);
  }

  // The intra-run sharding grid gets its own artifact so the CI leg (and
  // anyone comparing machines) can diff the thread-scaling shape without
  // parsing the sweep JSON.
  const char* sharded_path = std::getenv("NIMCAST_BENCH_SHARDED_OUT");
  if (sharded_path == nullptr) sharded_path = "BENCH_sharded.json";
  if (FILE* out = std::fopen(sharded_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"sharded\",\n"
                 "  \"config\": {\n"
                 "    \"quick\": %s,\n"
                 "    \"grid\": \"fat_tree full broadcast, m=%d, n in "
                 "{256,1024} hosts x threads in {1,2,4,8}, one shard "
                 "per thread; threads=1 is the serial engine\"\n"
                 "  },\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"reps\": %d,\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", grid.m, grid.hw_threads,
                 grid.reps);
    for (std::size_t i = 0; i < grid.points.size(); ++i) {
      const ShardedPoint& p = grid.points[i];
      std::fprintf(out,
                   "    {\"hosts\": %d, \"threads\": %d, \"shards\": %d, "
                   "\"wall_ms\": %.2f, \"events_per_sec\": %.1f, "
                   "\"speedup\": %.3f, \"window_ns\": %" PRId64 ", "
                   "\"barrier_wall_ns\": %" PRId64 ", "
                   "\"windows_planned\": %" PRId64 ", "
                   "\"bit_identical\": %s}%s\n",
                   p.hosts, p.threads, p.shards, p.wall_ms,
                   p.events_per_sec, p.speedup, p.window_ns,
                   p.barrier_wall_ns, p.windows_planned,
                   p.identical ? "true" : "false",
                   i + 1 < grid.points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"barrier_compare\": {\"hosts\": 1024, \"shards\": 4, "
                 "\"eager_barrier_ns\": %" PRId64 ", "
                 "\"overlapped_barrier_ns\": %" PRId64 ", "
                 "\"reduction\": %.3f, \"bit_identical\": %s},\n"
                 "  \"git_rev\": \"%s\"\n"
                 "}\n",
                 grid.barrier.eager_ns, grid.barrier.overlapped_ns,
                 grid.barrier.reduction,
                 grid.barrier.identical ? "true" : "false",
                 bench::git_rev().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", sharded_path);
  } else {
    bench::expect_shape(false,
                        std::string("could not write ") + sharded_path);
  }

  return bench::finish("bench_scale");
}
