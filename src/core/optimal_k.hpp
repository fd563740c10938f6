#pragma once

#include <cstdint>
#include <vector>

#include "core/coverage.hpp"

namespace nimcast::core {

/// Result of the Theorem 3 optimization for one (n, m).
struct OptimalChoice {
  std::int32_t k = 1;            ///< optimal fan-out bound
  std::int32_t t1 = 0;           ///< steps for the first packet
  std::int64_t total_steps = 0;  ///< t1 + (m - 1) * k
};

/// Solves the paper's Theorem 3: over k in [1, ceil(log2 n)], minimize
/// total multicast steps t_1(n, k) + (m - 1) * k for a multicast set of
/// size `n` (source included, n >= 1) and `m` >= 1 packets.
///
/// No closed form exists (Section 4.3.1); the interval is scanned, one
/// t_1 lookup per k. Ties are broken toward the *larger* k, which (a)
/// matches the paper's observation that the plain binomial tree
/// (k = ceil(log2 n)) is optimal at m = 1 and (b) only arises when the
/// extra fan-out is free in steps.
[[nodiscard]] OptimalChoice optimal_k(std::int32_t n, std::int32_t m,
                                      CoverageTable& cov);

/// Convenience overload with a private table.
[[nodiscard]] OptimalChoice optimal_k(std::int32_t n, std::int32_t m);

/// Precomputed optimal-k lookup for all 2 <= n <= max_n, 1 <= m <= max_m —
/// the "table requiring less than O(n*m) memory" the paper proposes NIs
/// carry (Section 4.3.1). Exploits the paper's observation that the
/// optimal k is identical over ranges of m by storing, per n, the
/// breakpoints where k changes.
///
/// m enters the objective only through the lines
/// f_k(m) = t_1(n, k) + (m - 1) * k, so the breakpoints are those of
/// their lower envelope: per n the builder computes t_1(n, k) once per k
/// and walks the envelope from k = ceil(log2 n) at m = 1 down to smaller
/// slopes, O(log^2 n) per n and independent of max_m. Lookups binary
/// search the n's segments.
class OptimalKTable {
 public:
  OptimalKTable(std::int32_t max_n, std::int32_t max_m);

  [[nodiscard]] OptimalChoice lookup(std::int32_t n, std::int32_t m) const;
  [[nodiscard]] std::int32_t max_n() const { return max_n_; }
  [[nodiscard]] std::int32_t max_m() const { return max_m_; }

  /// Number of (m-breakpoint, k) pairs stored — the memory figure the
  /// paper's feasibility argument is about.
  [[nodiscard]] std::size_t stored_entries() const;

 private:
  struct Segment {
    std::int32_t m_from;  ///< this k applies for m >= m_from ...
    std::int32_t k;       ///< ... until the next segment's m_from
    std::int32_t t1;
  };

  std::int32_t max_n_;
  std::int32_t max_m_;
  /// All n's segments back to back, each n's ascending in m_from ...
  std::vector<Segment> segments_;
  /// ... n's being segments_[first_[n] .. first_[n + 1]).
  std::vector<std::uint32_t> first_;
};

}  // namespace nimcast::core
