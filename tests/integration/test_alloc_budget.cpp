// Heap-allocation budget of one MulticastEngine::run call. This file
// replaces the global operator new/delete with counting versions, so it
// builds into its own test executable: the counters see every
// allocation of the process, and no other test should pay for them.
//
// Each case warms the engine up with one call (the lazy route table
// materializes the routes the broadcast uses), then counts the heap
// blocks the next identical call allocates. The budgets are 40% of what
// the same calls allocated while every NI and host task was a heap
// std::function in per-host std::deques:
//
//   - 64-host irregular fabric, broadcast to all 63 others, m = 32:
//     5,830 blocks (568,740 bytes) per call before;
//   - 1024-host irregular fabric, broadcast to all 1023 others, m = 16:
//     56,997 blocks (6,712,052 bytes) per call before.
//
// Both counts were measured with this test's rigs (Release, GCC 12,
// libstdc++); each run prints the current counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/fabric.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "mcast/multicast_engine.hpp"
#include "sim/rng.hpp"

namespace {

std::atomic<std::int64_t> g_blocks{0};
std::atomic<std::int64_t> g_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<std::int64_t>(size),
                    std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  return p;
}

/// Out of line so the compiler does not pair an inlined free() with the
/// operator new it came from (the pairs below are the replacements).
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace nimcast {
namespace {

struct Allocations {
  std::int64_t blocks = 0;
  std::int64_t bytes = 0;
};

/// Heap blocks and bytes of the second of two identical broadcasts over
/// every host of `fabric`'s chain.
Allocations per_call(const core::Fabric& fabric, std::int32_t packets) {
  const std::int32_t n = fabric.num_hosts();
  const core::HostTree tree = core::HostTree::bind(
      core::make_kbinomial(n, core::optimal_k(n, packets).k), fabric.chain());
  const mcast::MulticastEngine engine{fabric.topology(), fabric.routes(),
                                      mcast::MulticastEngine::Config{}};
  const mcast::MulticastResult warm = engine.run(tree, packets);
  EXPECT_EQ(warm.outcome, mcast::Outcome::kComplete);

  const std::int64_t blocks0 = g_blocks.load();
  const std::int64_t bytes0 = g_bytes.load();
  {
    const mcast::MulticastResult r = engine.run(tree, packets);
    EXPECT_EQ(r.latency, warm.latency);
  }
  return {g_blocks.load() - blocks0, g_bytes.load() - bytes0};
}

void report(const Allocations& a) {
  ::testing::Test::RecordProperty("blocks", std::to_string(a.blocks));
  ::testing::Test::RecordProperty("bytes", std::to_string(a.bytes));
  std::printf("heap per call: %lld blocks, %lld bytes\n",
              static_cast<long long>(a.blocks),
              static_cast<long long>(a.bytes));
}

TEST(AllocBudget, Broadcast64Hosts) {
  sim::Rng rng{1997};
  const auto fabric = core::Fabric::irregular(topo::IrregularConfig{}, rng);
  const Allocations a = per_call(fabric, 32);
  report(a);
  constexpr std::int64_t kBefore = 5830;
  EXPECT_LE(a.blocks, kBefore * 4 / 10);
}

TEST(AllocBudget, Broadcast1024Hosts16Packets) {
  sim::Rng rng{1024};
  const auto fabric = core::Fabric::irregular(
      topo::IrregularConfig{/*num_switches=*/256, /*num_hosts=*/1024,
                            /*ports_per_switch=*/8},
      rng);
  const Allocations a = per_call(fabric, 16);
  report(a);
  constexpr std::int64_t kBefore = 56997;
  EXPECT_LE(a.blocks, kBefore * 4 / 10);
}

}  // namespace
}  // namespace nimcast
