#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace nimcast::harness {

/// Number of worker threads the harness should use: the NIMCAST_THREADS
/// environment variable when set, otherwise hardware concurrency.
/// NIMCAST_THREADS=1 selects the strictly serial path (no worker
/// threads), which is the reference for determinism checks.
///
/// NIMCAST_THREADS is parsed strictly: the value must be a plain decimal
/// integer (surrounding whitespace tolerated, nothing else — "4abc" and
/// "" are rejected, not truncated). Rejected, zero and negative values
/// fall back to hardware concurrency, exactly as if the variable were
/// unset. Values above kMaxThreads are clamped to it — a fat-fingered
/// "NIMCAST_THREADS=100000" must not try to spawn 100000 jthreads.
[[nodiscard]] int configured_threads();

/// Upper bound configured_threads() clamps to.
inline constexpr int kMaxThreads = 512;

/// Always 1: every simulation runs on one serial simulator. Reads no
/// environment variable. Kept only because the benchmark in perfbench/
/// still calls it; it goes when that benchmark is next revised.
[[nodiscard]] int pick_shards(int threads, std::int32_t hosts,
                              std::size_t replications);

/// Under NIMCAST_VERBOSE (any non-empty value other than "0"), prints
/// the worker-thread count to stderr — once per process, from whichever
/// harness entry point runs first. Streaming entry points pass the
/// member-selection mode and rotation-set size; the defaults omit the
/// streaming fields from the line.
void log_parallel_plan(int threads, const char* selection = nullptr,
                       std::int32_t rotation_trees = 0);

/// One-shot parallel loop for the replication sweeps in the testbed:
/// runs `job(i)` for every i in [0, count) and returns when all jobs
/// finished. `threads` - 1 fresh std::jthreads (0 = configured_threads(),
/// never more than count - 1) and the calling thread drain one atomic
/// cursor, so jobs may run in any order and on any thread; callers write
/// results into per-index storage, not shared accumulators. Replications
/// are independent — each builds its own Simulator — so all determinism
/// lives in the per-replication seeding, which is identical to the serial
/// path.
///
/// With one thread (or count <= 1) the jobs run inline in index order and
/// the first exception propagates at once. Otherwise every job still runs
/// and the first exception caught is rethrown on the calling thread.
void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& job,
                       int threads = 0);

}  // namespace nimcast::harness
