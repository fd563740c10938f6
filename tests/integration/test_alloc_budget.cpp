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
// libstdc++); each run prints the current counts. While trees were hash
// maps of child vectors, copying the tree into the one-op mix cost 1,656
// of the 1024-host call's 12,367 blocks (910 blocks for the 64-host
// call); a dense tree copies in two blocks.
//
// The tree cases pin the dense HostTree layout: binding a 1024-node tree
// allocates at most two blocks, and the trees of a traffic64-style mix
// (256 ops, 2560 ops/ms, groups of 4-24 on the 64-host rig) hold at most
// 32 bytes of heap per node, chunk overhead included. The map form
// allocated 2,055 blocks for that bind and held 90.5 bytes per node of
// that mix.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>

#include <new>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "mcast/multicast_engine.hpp"
#include "sim/rng.hpp"
#include "traffic/workload.hpp"

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

TEST(AllocBudget, Bind1024NodeTreeInTwoBlocks) {
  sim::Rng rng{1024};
  const core::Chain order = core::random_ordering(1024, rng);
  const core::RankTree shape = core::make_kbinomial(1024, 3);
  const std::int64_t blocks0 = g_blocks.load();
  const core::HostTree tree = core::HostTree::bind(shape, order);
  const std::int64_t blocks = g_blocks.load() - blocks0;
  EXPECT_EQ(tree.size(), 1024);
  EXPECT_LE(blocks, 2);
}

TEST(AllocBudget, TrafficMixTreesHeapPerNode) {
  sim::Rng rng{1997};
  const auto fabric = core::Fabric::irregular(topo::IrregularConfig{}, rng);
  traffic::WorkloadConfig cfg;
  cfg.num_ops = 256;
  cfg.ops_per_ms = 2560.0;
  cfg.min_group = 4;
  cfg.max_group = 24;
  const traffic::Workload mix =
      traffic::generate_workload(fabric.num_hosts(), fabric.chain(), cfg);
  std::vector<core::HostTree> copies;
  copies.reserve(2 * mix.ops.size());
  std::int64_t nodes = 0;
  // Copies hold exactly the heap of their originals; malloc's own count
  // of in-use bytes includes every chunk's header and rounding.
  const auto in_use0 = static_cast<std::int64_t>(mallinfo2().uordblks);
  for (const traffic::TrafficOp& op : mix.ops) {
    for (const core::HostTree* t : {&op.tree, &op.tree2}) {
      if (t->size() == 0) continue;
      copies.push_back(*t);
      nodes += t->size();
    }
  }
  const auto heap =
      static_cast<std::int64_t>(mallinfo2().uordblks) - in_use0;
  ASSERT_GT(nodes, 0);
  const double per_node =
      static_cast<double>(heap) / static_cast<double>(nodes);
  ::testing::Test::RecordProperty("bytes_per_node", std::to_string(per_node));
  std::printf("trees: %zu, nodes: %lld, heap: %lld bytes, %.1f B/node\n",
              copies.size(), static_cast<long long>(nodes),
              static_cast<long long>(heap), per_node);
  EXPECT_LE(per_node, 32.0);
}

}  // namespace
}  // namespace nimcast
