#include "core/kbinomial.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace nimcast::core {

RankTree make_kbinomial(std::int32_t n, std::int32_t k) {
  if (n < 1) throw std::invalid_argument("make_kbinomial: n < 1");
  if (k < 1) throw std::invalid_argument("make_kbinomial: k < 1");
  RankTree tree;
  tree.parent.assign(static_cast<std::size_t>(n), -1);
  tree.children.assign(static_cast<std::size_t>(n), {});
  if (n == 1) return tree;
  CoverageTable cov;

  // Chain segment [lo..hi] still to be covered from the node at `lo`,
  // which has `s` steps of budget; N(s, k) >= hi - lo + 1. Segments are
  // disjoint, so the order they are taken from the stack is immaterial.
  struct Segment {
    std::int32_t lo, hi, s;
  };
  std::vector<Segment> work{{0, n - 1, cov.min_steps(
                                           static_cast<std::uint64_t>(n), k)}};
  while (!work.empty()) {
    const auto [lo, hi, s] = work.back();
    work.pop_back();
    if (lo == hi) continue;
    // Child at send step i may root a subtree of up to N(s-i, k) nodes.
    // When the segment is smaller than N(s, k), the deficit is absorbed
    // by the *earliest* children (largest capacity, most slack): sizes
    // are assigned from the last child backward, each taking its full
    // capacity, and whatever remains goes to earlier children. This
    // keeps the root's child count maximal — no descendant ever has more
    // children than the root, which is what makes the Theorem 1 pipeline
    // gap equal c_R and matches the shapes of the paper's Fig. 9.
    //
    // Children in send order (step 1 first) take segments right to left,
    // per the Fig. 11 geometry, so walking the steps backward lays the
    // segments out left to right from lo + 1. Zero-size steps are
    // skipped; skipping only grants later children extra step budget,
    // never less. Taken backward, the full capacities N(0, k), N(1, k), ...
    // grow at least like Fibonacci for k >= 2 (k = 1 has one child), so
    // an int32 segment has fewer than 64 children.
    const std::int32_t max_children = std::min(k, s);
    if (max_children <= 0) {
      throw std::logic_error("make_kbinomial: budget exhausted (bug)");
    }
    std::array<std::int32_t, 64> placed;  // children, last send step first
    std::size_t count = 0;
    auto remaining = static_cast<std::uint64_t>(hi - lo);
    std::int32_t left = lo + 1;
    for (std::int32_t i = max_children; i >= 1 && remaining > 0; --i) {
      const auto take = static_cast<std::int32_t>(
          std::min(cov.coverage(s - i, k), remaining));
      remaining -= static_cast<std::uint64_t>(take);
      placed.at(count++) = left;
      tree.parent[static_cast<std::size_t>(left)] = lo;
      work.push_back(Segment{left, left + take - 1, s - i});
      left += take;
    }
    if (remaining != 0) {
      throw std::logic_error("make_kbinomial: segment not coverable (bug)");
    }
    tree.children[static_cast<std::size_t>(lo)].assign(
        std::make_reverse_iterator(placed.begin() + count),
        std::make_reverse_iterator(placed.begin()));
  }
  return tree;
}

RankTree make_binomial(std::int32_t n) {
  if (n < 1) throw std::invalid_argument("make_binomial: n < 1");
  const std::int32_t k =
      std::max<std::int32_t>(1, ceil_log2(static_cast<std::uint64_t>(n)));
  return make_kbinomial(n, k);
}

RankTree make_linear(std::int32_t n) { return make_kbinomial(n, 1); }

}  // namespace nimcast::core
