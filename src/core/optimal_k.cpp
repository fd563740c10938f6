#include "core/optimal_k.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace nimcast::core {

OptimalChoice optimal_k(std::int32_t n, std::int32_t m, CoverageTable& cov) {
  if (n < 1) throw std::invalid_argument("optimal_k: n < 1");
  if (m < 1) throw std::invalid_argument("optimal_k: m < 1");
  if (n == 1) return OptimalChoice{1, 0, 0};
  const std::int32_t k_max = ceil_log2(static_cast<std::uint64_t>(n));
  OptimalChoice best;
  bool have = false;
  for (std::int32_t k = 1; k <= std::max<std::int32_t>(1, k_max); ++k) {
    const std::int32_t t1 = cov.min_steps(static_cast<std::uint64_t>(n), k);
    const std::int64_t total =
        t1 + static_cast<std::int64_t>(m - 1) * static_cast<std::int64_t>(k);
    // `<=` implements the larger-k tie-break (k ascends).
    if (!have || total <= best.total_steps) {
      best = OptimalChoice{k, t1, total};
      have = true;
    }
  }
  return best;
}

OptimalChoice optimal_k(std::int32_t n, std::int32_t m) {
  CoverageTable cov;
  return optimal_k(n, m, cov);
}

OptimalKTable::OptimalKTable(std::int32_t max_n, std::int32_t max_m)
    : max_n_{max_n}, max_m_{max_m} {
  if (max_n < 2 || max_m < 1) {
    throw std::invalid_argument("OptimalKTable: max_n >= 2, max_m >= 1");
  }
  CoverageTable cov;
  first_.reserve(static_cast<std::size_t>(max_n) + 2);
  first_.assign(3, 0);  // n = 0 and n = 1 have no segments
  std::array<std::int64_t, 64> t1{};  // t1[k] = t_1(n, k); k <= 31
  for (std::int32_t n = 2; n <= max_n; ++n) {
    const std::int32_t k_max = ceil_log2(static_cast<std::uint64_t>(n));
    for (std::int32_t k = 1; k <= k_max; ++k) {
      t1[static_cast<std::size_t>(k)] =
          cov.min_steps(static_cast<std::uint64_t>(n), k);
    }
    const auto t1_of = [&t1](std::int32_t k) {
      return t1[static_cast<std::size_t>(k)];
    };
    // t_1 is non-increasing in k, so at m = 1 the larger-k tie-break
    // picks k_max. Lines with larger slopes than the current k only fall
    // further behind as m grows; the current k holds until a smaller
    // slope's line strictly undercuts it.
    std::int32_t k = k_max;
    std::int64_t m = 1;
    for (;;) {
      segments_.push_back(Segment{static_cast<std::int32_t>(m), k,
                                  static_cast<std::int32_t>(t1_of(k))});
      // f_j(m') < f_k(m')  <=>  (m' - 1) * (k - j) > t1[j] - t1[k] >= 0.
      std::int64_t next = std::numeric_limits<std::int64_t>::max();
      for (std::int32_t j = 1; j < k; ++j) {
        next = std::min(next, (t1_of(j) - t1_of(k)) / (k - j) + 2);
      }
      if (next > max_m) break;
      // The largest minimiser at m = next (k itself is undercut there).
      std::int32_t best = 1;
      for (std::int32_t j = 2; j < k; ++j) {
        if (t1_of(j) + (next - 1) * j <= t1_of(best) + (next - 1) * best) {
          best = j;
        }
      }
      k = best;
      m = next;
    }
    first_.push_back(static_cast<std::uint32_t>(segments_.size()));
  }
}

OptimalChoice OptimalKTable::lookup(std::int32_t n, std::int32_t m) const {
  if (n < 2 || n > max_n_ || m < 1 || m > max_m_) {
    throw std::out_of_range("OptimalKTable::lookup: (n, m) outside table");
  }
  const auto begin = segments_.begin() + first_[static_cast<std::size_t>(n)];
  const auto end =
      segments_.begin() + first_[static_cast<std::size_t>(n) + 1];
  // The last segment starting at or before m; the first starts at m = 1.
  const Segment& chosen = *std::prev(std::upper_bound(
      begin, end, m,
      [](std::int32_t mm, const Segment& s) { return mm < s.m_from; }));
  OptimalChoice out;
  out.k = chosen.k;
  out.t1 = chosen.t1;
  out.total_steps = chosen.t1 + static_cast<std::int64_t>(m - 1) * chosen.k;
  return out;
}

std::size_t OptimalKTable::stored_entries() const { return segments_.size(); }

}  // namespace nimcast::core
