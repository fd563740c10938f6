#include "harness/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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

void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& job,
                       int threads) {
  const int n = threads >= 1 ? threads : configured_threads();
  if (n == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        job(i);
      } catch (...) {
        const std::lock_guard lock{error_mutex};
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    const std::size_t workers =
        std::min(static_cast<std::size_t>(n) - 1, count - 1);
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);
    drain();  // the calling thread works too
  }  // jthreads join here
  if (error) std::rethrow_exception(error);
}

}  // namespace nimcast::harness
