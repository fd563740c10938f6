#pragma once

#include <cstdint>
#include <vector>

namespace nimcast::core {

/// Saturation value for coverage counts: once a k-binomial tree covers
/// this many nodes it covers "everything we will ever ask about".
inline constexpr std::uint64_t kCoverageInfinity = UINT64_C(1) << 62;

/// N(s, k) and t_1(n, k) — the paper's Lemma 1 machinery.
///
/// N(s, k) is the number of nodes (source included) a k-binomial tree
/// covers in s steps:
///
///     N(s, k) = 2^s                               for s <= k
///     N(s, k) = 1 + sum_{i=1..k} N(s - i, k)      for s >  k
///
/// Values saturate at kCoverageInfinity, so callers can compare without
/// overflow. t_1(n, k) is the minimum s with N(s, k) >= n: the number of
/// steps a single-packet multicast over the k-binomial tree needs to
/// reach n - 1 destinations.
///
/// k = 1 uses the closed forms N(s, 1) = s + 1 and t_1(n, 1) = n - 1.
/// For k >= 2 the table keeps one flat row N(0..S, k) per k, extended
/// iteratively as far as calls ask and never past the first saturated
/// step: N(s, k) >= N(s, 2), which grows like Fibonacci, so a row holds
/// at most 89 entries. Rows for k >= 62 are identical (2^s up to
/// s = 61, then saturated) and shared.
class CoverageTable {
 public:
  /// N(s, k); requires s >= 0, k >= 1.
  [[nodiscard]] std::uint64_t coverage(std::int32_t s, std::int32_t k);

  /// t_1(n, k): minimum steps to cover a multicast set of size n
  /// (source included); requires n >= 1, k >= 1. Throws
  /// std::out_of_range when the answer is not representable: n - 1 above
  /// INT32_MAX for k = 1, or n beyond kCoverageInfinity.
  [[nodiscard]] std::int32_t min_steps(std::uint64_t n, std::int32_t k);

 private:
  /// k's row (k >= 2), as far as it has been extended.
  std::vector<std::uint64_t>& row(std::int32_t k);

  std::vector<std::vector<std::uint64_t>> rows_;  ///< indexed by min(k, 62)
};

/// ceil(log2(n)) for n >= 1; the step count of the unrestricted binomial
/// tree and the upper end of the paper's optimal-k search interval.
[[nodiscard]] std::int32_t ceil_log2(std::uint64_t n);

}  // namespace nimcast::core
