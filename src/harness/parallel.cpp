#include "harness/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>

namespace nimcast::harness {

namespace {

/// Strict decimal parse for thread-count env vars: optional surrounding
/// whitespace around a plain base-10 integer, nothing else. Returns
/// nullopt for empty strings, trailing garbage ("4abc"), or overflow —
/// std::stoi/atoi would silently truncate the first two.
std::optional<long> parse_env_int(const char* s) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(s, &end, 10);
  if (end == s || errno == ERANGE) return std::nullopt;
  while (std::isspace(static_cast<unsigned char>(*end)) != 0) ++end;
  if (*end != '\0') return std::nullopt;
  return value;
}

}  // namespace

int configured_threads() {
  if (const char* env = std::getenv("NIMCAST_THREADS")) {
    if (const auto n = parse_env_int(env); n && *n >= 1) {
      return static_cast<int>(std::min<long>(*n, kMaxThreads));
    }
    // Malformed, zero or negative: behave as if unset.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int pick_shards(int /*threads*/, std::int32_t /*hosts*/,
                std::size_t /*replications*/) {
  return 1;
}

SelectionOverride configured_selection() {
  const char* env = std::getenv("NIMCAST_SELECTION");
  if (env == nullptr) return SelectionOverride::kUnset;
  const char* begin = env;
  while (std::isspace(static_cast<unsigned char>(*begin)) != 0) ++begin;
  const char* end = begin;
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end)) == 0) {
    ++end;
  }
  for (const char* tail = end; *tail != '\0'; ++tail) {
    if (std::isspace(static_cast<unsigned char>(*tail)) == 0) {
      return SelectionOverride::kUnset;  // two tokens: malformed
    }
  }
  const std::string word{begin, end};
  if (word == "static") return SelectionOverride::kStatic;
  if (word == "adaptive") return SelectionOverride::kAdaptive;
  return SelectionOverride::kUnset;
}

void log_parallel_plan(int threads, const char* selection,
                       std::int32_t rotation_trees) {
  const char* env = std::getenv("NIMCAST_VERBOSE");
  if (env == nullptr || *env == '\0' ||
      (env[0] == '0' && env[1] == '\0')) {
    return;
  }
  static std::once_flag logged;
  std::call_once(logged, [&] {
    std::string line = "nimcast: threads=" + std::to_string(threads);
    if (selection != nullptr) {
      line += " selection=";
      line += selection;
      line += " rotation=" + std::to_string(rotation_trees);
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  });
}

/// Shared state of one for_each_index call: a job cursor, a completion
/// count, and the first exception. Heap-allocated and shared with the
/// queued closures so stale queue entries can never dangle.
struct WorkerPool::Batch {
  std::size_t count = 0;
  std::function<void(std::size_t)> job;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable all_done;
  std::exception_ptr error;

  void run_some() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        job(i);
      } catch (...) {
        std::lock_guard lock{mutex};
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard lock{mutex};
        all_done.notify_all();
      }
    }
  }
};

WorkerPool::WorkerPool(int threads) {
  const int workers = threads - 1;  // the calling thread also works
  threads_.reserve(workers > 0 ? static_cast<std::size_t>(workers) : 0);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back(
        [this](const std::stop_token& stop) { worker_loop(stop); });
  }
}

WorkerPool::~WorkerPool() {
  {
    // Under the mutex, so a worker between its predicate check and its
    // wait cannot miss the stop (a lost wakeup hangs the join below).
    std::lock_guard lock{mutex_};
    for (auto& t : threads_) t.request_stop();
  }
  work_ready_.notify_all();
  // jthread joins on destruction.
}

void WorkerPool::worker_loop(const std::stop_token& stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock{mutex_};
      work_ready_.wait(lock, [&] {
        return stop.stop_requested() || !queue_.empty();
      });
      if (queue_.empty()) return;  // only on stop
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void WorkerPool::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& job) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    // Serial reference path: run in index order on the calling thread.
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->job = job;

  {
    std::lock_guard lock{mutex_};
    // One queue entry per worker: each entry drains the shared cursor.
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      queue_.emplace_back([batch] { batch->run_some(); });
    }
  }
  work_ready_.notify_all();

  batch->run_some();  // calling thread participates

  std::unique_lock lock{batch->mutex};
  batch->all_done.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->count;
  });
  if (batch->error) std::rethrow_exception(batch->error);
}

void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& job,
                       int threads) {
  const int n = threads >= 1 ? threads : configured_threads();
  if (n == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  WorkerPool pool{n};
  pool.for_each_index(count, job);
}

}  // namespace nimcast::harness
