#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nimcast::harness {

/// Number of worker threads the harness should use: the NIMCAST_THREADS
/// environment variable when set, otherwise hardware concurrency.
/// NIMCAST_THREADS=1 selects the strictly serial path (no pool, no
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

/// Shards per simulation requested via NIMCAST_SHARDS (same strict
/// parsing as NIMCAST_THREADS). 0 means "unset / auto" — let
/// pick_shards() decide; 1 forces the serial engine; values above
/// kMaxThreads clamp to it.
[[nodiscard]] int configured_shards();

/// Conservative-window override (nanoseconds) requested via
/// NIMCAST_WINDOW, with the same strict parsing as NIMCAST_THREADS:
/// malformed, zero and negative values behave as if the variable were
/// unset. 0 means "auto" — the engine adapts the window to the
/// configuration; positive values are clamped to kMaxWindowNs and can
/// only narrow the engine's safe bound, never widen it.
[[nodiscard]] std::int64_t configured_window_ns();

inline constexpr std::int64_t kMaxWindowNs = 1'000'000'000;

/// Intra-run shard count for one testbed replication: NIMCAST_SHARDS
/// when set, else 1 (the serial engine). The sharded engine has lost to
/// serial at every measured point — its t_hop lookahead plans windows of
/// a few dozen events, so barrier time alone exceeds a whole serial run
/// (docs/perf.md) — so nothing turns it on by default. Sharding never
/// changes results, only wall clock. The thread budget, host count and
/// replication count no longer affect the answer.
[[nodiscard]] int pick_shards(int threads, std::int32_t hosts,
                              std::size_t replications);

/// Streaming member-selection policy requested via NIMCAST_SELECTION
/// ("static" or "adaptive", surrounding whitespace tolerated). kUnset
/// for anything else — the caller keeps its configured policy.
enum class SelectionOverride : std::uint8_t { kUnset, kStatic, kAdaptive };
[[nodiscard]] SelectionOverride configured_selection();

/// Under NIMCAST_VERBOSE (any non-empty value other than "0"), prints
/// the chosen (threads, shards, window) triple to stderr — once per
/// process, from whichever harness entry point runs first. Streaming
/// entry points pass the member-selection mode and rotation-set size;
/// the defaults omit the streaming fields from the line.
void log_parallel_plan(int threads, int shards, std::int64_t window_ns,
                       const char* selection = nullptr,
                       std::int32_t rotation_trees = 0);

/// A small fixed-size worker pool (std::jthread + work queue) for the
/// replication sweeps in the testbed. Replications are independent — each
/// builds its own Simulator — so the pool only hands out job indices; all
/// determinism lives in the per-replication seeding, which is identical to
/// the serial path.
///
/// Exceptions thrown by a job are captured and rethrown from
/// `for_each_index` on the calling thread (first one wins).
class WorkerPool {
 public:
  /// `threads` <= 1 means "run jobs inline on the calling thread".
  explicit WorkerPool(int threads = configured_threads());
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `job(i)` for every i in [0, count). Blocks until all jobs
  /// finished. Jobs may run in any order and on any worker; callers must
  /// write results into per-index storage, not shared accumulators.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& job);

  [[nodiscard]] int thread_count() const {
    return static_cast<int>(threads_.size());
  }

 private:
  struct Batch;

  void worker_loop(const std::stop_token& stop);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::jthread> threads_;
};

/// Convenience wrapper: one-shot parallel loop with `threads` workers
/// (0 = configured_threads()). Serial when the effective count is 1.
void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& job,
                       int threads = 0);

}  // namespace nimcast::harness
