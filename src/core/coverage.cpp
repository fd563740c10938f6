#include "core/coverage.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace nimcast::core {
namespace {

/// Every k >= kSharedRowK has the row 2^0 .. 2^61 followed by saturation.
constexpr std::int32_t kSharedRowK = 62;
/// The longest row: N(s, 2) first saturates at s = 88.
constexpr std::size_t kMaxRowLength = 89;

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return (s >= kCoverageInfinity || s < a) ? kCoverageInfinity : s;
}

bool saturated(const std::vector<std::uint64_t>& row) {
  return !row.empty() && row.back() >= kCoverageInfinity;
}

/// Appends N(row.size(), k) to k's row. Any k >= kSharedRowK appends
/// the same values, so the rows those k share stay consistent.
void extend(std::vector<std::uint64_t>& row, std::int32_t k) {
  const auto s = static_cast<std::int32_t>(row.size());
  std::uint64_t covered = 1;
  if (s <= k) {
    covered = s >= 62 ? kCoverageInfinity : (UINT64_C(1) << s);
  } else {
    for (std::int32_t i = 1; i <= k; ++i) {
      covered = saturating_add(covered, row[static_cast<std::size_t>(s - i)]);
    }
  }
  if (row.empty()) row.reserve(kMaxRowLength);
  row.push_back(covered);
}

}  // namespace

std::vector<std::uint64_t>& CoverageTable::row(std::int32_t k) {
  const auto idx = static_cast<std::size_t>(std::min(k, kSharedRowK));
  if (rows_.size() <= idx) rows_.resize(idx + 1);
  return rows_[idx];
}

std::uint64_t CoverageTable::coverage(std::int32_t s, std::int32_t k) {
  if (s < 0) throw std::invalid_argument("coverage: s < 0");
  if (k < 1) throw std::invalid_argument("coverage: k < 1");
  if (k == 1) return static_cast<std::uint64_t>(s) + 1;
  auto& r = row(k);
  const auto i = static_cast<std::size_t>(s);
  while (r.size() <= i && !saturated(r)) extend(r, k);
  return i < r.size() ? r[i] : kCoverageInfinity;
}

std::int32_t CoverageTable::min_steps(std::uint64_t n, std::int32_t k) {
  if (n < 1) throw std::invalid_argument("min_steps: n < 1");
  if (k < 1) throw std::invalid_argument("min_steps: k < 1");
  if (k == 1) {
    if (n - 1 > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int32_t>::max())) {
      throw std::out_of_range("min_steps: n - 1 exceeds INT32_MAX");
    }
    return static_cast<std::int32_t>(n - 1);
  }
  auto& r = row(k);
  while ((r.empty() || r.back() < n) && !saturated(r)) extend(r, k);
  // Rows are non-decreasing, so this is the first s with N(s, k) >= n.
  const auto it = std::lower_bound(r.begin(), r.end(), n);
  if (it == r.end()) {
    throw std::out_of_range("min_steps: n exceeds kCoverageInfinity");
  }
  return static_cast<std::int32_t>(it - r.begin());
}

std::int32_t ceil_log2(std::uint64_t n) {
  if (n < 1) throw std::invalid_argument("ceil_log2: n < 1");
  return static_cast<std::int32_t>(std::bit_width(n - 1));
}

}  // namespace nimcast::core
