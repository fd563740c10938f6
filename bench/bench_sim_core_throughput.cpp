// Tracks the throughput of the simulation core, the hot path under every
// figure/ablation bench: (a) raw EventQueue events/sec against the seed
// queue frozen in bench/common.hpp (std::priority_queue +
// std::unordered_map<seq, std::function> with lazy cancellation), and
// (b) end-to-end wall time of the paper's Section 5.2 testbed sweep,
// serial vs. the NIMCAST_THREADS worker pool, with a bit-identity check
// between the two. Emits BENCH_sim_core.json (see docs/perf.md) so the
// perf trajectory is recorded run over run.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/common.hpp"
#include "harness/parallel.hpp"
#include "sim/event_queue.hpp"

using namespace nimcast;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

using bench::ChurnResult;

// ---------------------------------------------------------------------------
// Sweep wall-time: the paper rig replayed at several (n, m) points, the
// workload every figure bench replays.

struct SweepResult {
  double wall_ms = 0.0;
  std::vector<harness::MeasurePoint> points;
};

SweepResult run_sweep(const harness::IrregularTestbed& bed, int threads) {
  SweepResult result;
  const auto start = Clock::now();
  for (const std::int32_t n : {16, 32, 64}) {
    for (const std::int32_t m : {1, 4}) {
      result.points.push_back(bed.measure(n, m, harness::TreeSpec::optimal(),
                                          mcast::NiStyle::kSmartFpfs,
                                          harness::OrderingKind::kCco,
                                          threads));
    }
  }
  result.wall_ms = ms_since(start);
  return result;
}

bool identical(const sim::Summary& a, const sim::Summary& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

bool identical(const harness::MeasurePoint& a,
               const harness::MeasurePoint& b) {
  return identical(a.latency_us, b.latency_us) &&
         identical(a.block_us, b.block_us) &&
         identical(a.peak_buffer, b.peak_buffer) &&
         identical(a.buffer_integral, b.buffer_integral) &&
         identical(a.events, b.events);
}

}  // namespace

int main() {
  std::printf("=== simulation-core throughput ===\n\n");
  const bool quick = std::getenv("NIMCAST_QUICK") != nullptr;
  const std::uint64_t churn_events = quick ? 200'000 : 2'000'000;
  const int churn_depth = 512;

  // Warm-up, then alternating measured rounds; each side keeps its best
  // rate, so a round slowed by other work on the box does not decide the
  // ratio.
  (void)bench::churn_new(churn_events / 10, churn_depth);
  (void)bench::churn_legacy(churn_events / 10, churn_depth);
  constexpr int kRounds = 5;
  ChurnResult fast;
  ChurnResult slow;
  for (int round = 0; round < kRounds; ++round) {
    const ChurnResult a = bench::churn_new(churn_events, churn_depth);
    const ChurnResult b = bench::churn_legacy(churn_events, churn_depth);
    bench::expect_shape(a.checksum == b.checksum,
                        "churn workloads diverged (checksum mismatch)");
    if (a.events_per_sec > fast.events_per_sec) fast = a;
    if (b.events_per_sec > slow.events_per_sec) slow = b;
  }
  const double core_speedup = fast.events_per_sec / slow.events_per_sec;
  std::printf("event core     : %.3g events/sec (delay lanes + 4-ary "
              "heap)\n",
              fast.events_per_sec);
  std::printf("seed baseline  : %.3g events/sec (priority_queue + "
              "unordered_map)\n",
              slow.events_per_sec);
  std::printf("single-thread speedup: %.2fx\n\n", core_speedup);
  bench::expect_shape(core_speedup >= 1.3,
                      "event core >= 1.3x seed queue events/sec");

  const int threads = harness::configured_threads();
  const harness::IrregularTestbed bed{bench::paper_testbed_config()};

  const SweepResult serial = run_sweep(bed, 1);
  const SweepResult parallel = run_sweep(bed, threads);
  bool all_identical = true;
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    all_identical =
        all_identical && identical(serial.points[i], parallel.points[i]);
  }
  bench::expect_shape(all_identical,
                      "parallel sweep bit-identical to serial sweep");
  const double sweep_speedup = serial.wall_ms / parallel.wall_ms;
  std::printf("paper-rig sweep: serial %.1f ms, %d threads %.1f ms "
              "(%.2fx)\n",
              serial.wall_ms, threads, parallel.wall_ms, sweep_speedup);
  // The >= 3x gate only means something when the threads map onto real
  // cores and the sweep is long enough to dominate timing noise; quick
  // mode (~10 ms sweeps) and oversubscribed single-core boxes would
  // false-fail on scheduler jitter, not on a perf regression.
  const unsigned hw = std::thread::hardware_concurrency();
  if (!quick && threads >= 4 && hw >= 4) {
    bench::expect_shape(sweep_speedup >= 3.0,
                        "parallel sweep >= 3x serial wall time with >= 4 "
                        "threads");
  } else {
    std::printf("(speedup shape check skipped: threads=%d, hardware=%u, "
                "quick=%d)\n",
                threads, hw, quick ? 1 : 0);
  }

  const char* out_path = std::getenv("NIMCAST_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_sim_core.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"sim_core_throughput\",\n"
        "  \"config\": {\n"
        "    \"quick\": %s,\n"
        "    \"churn_events\": %" PRIu64 ",\n"
        "    \"churn_depth\": %d,\n"
        "    \"sweep\": \"irregular 64-host rig, n in {16,32,64}, m in "
        "{1,4}, optimal tree, smart-fpfs\"\n"
        "  },\n"
        "  \"events_per_sec\": %.1f,\n"
        "  \"events_per_sec_seed_baseline\": %.1f,\n"
        "  \"event_core_speedup\": %.3f,\n"
        "  \"wall_ms\": %.2f,\n"
        "  \"wall_ms_serial\": %.2f,\n"
        "  \"sweep_speedup\": %.3f,\n"
        "  \"parallel_bit_identical\": %s,\n"
        "  \"threads\": %d,\n"
        "  \"git_rev\": \"%s\"\n"
        "}\n",
        quick ? "true" : "false", churn_events, churn_depth,
        fast.events_per_sec, slow.events_per_sec, core_speedup,
        parallel.wall_ms, serial.wall_ms, sweep_speedup,
        all_identical ? "true" : "false", threads, bench::git_rev().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    bench::expect_shape(false, std::string("could not write ") + out_path);
  }

  return bench::finish("bench_sim_core_throughput");
}
