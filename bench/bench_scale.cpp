// Scale-out sweep: the testbed harness driven far past the paper's
// 64-host rig. For fat-tree and irregular fabrics at n in {64, 256, 1024}
// hosts x m in {1, 16} packets it measures broadcast latency over random
// destination sets and reports simulator events/sec, peak RSS, and
// route-table build time/footprint. Emits BENCH_scale.json (see
// docs/perf.md).
//
// Flags:
//   --quick           smoke sizing (also triggered by NIMCAST_QUICK=1)
//   --gate-baseline [path]
//                     perf gate against a recorded BENCH_sim_core.json
//                     (default results/BENCH_sim_core.json): re-runs that
//                     bench's serial 64-host sweep and fails if wall time
//                     exceeds 1.10x the recorded value after normalizing
//                     by the frozen seed-queue churn ratio (machine
//                     speed), i.e. if 64-host throughput regressed > 10%.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/host_tree.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"

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
  std::size_t route_bytes = 0;    ///< route-table footprint after the sweep
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

  const harness::Testbed bed{harness::TestbedSpec{}};  // the paper rig
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
                 "optimal tree, smart-fpfs\"\n"
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
    std::fprintf(out, "  ],\n");
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

  return bench::finish("bench_scale");
}
