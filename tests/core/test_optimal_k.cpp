#include "core/optimal_k.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace nimcast::core {
namespace {

/// Theorem 3 by definition, independent of CoverageTable: N(s, k) from
/// the recurrence, t_1(n, k) as the first s with N(s, k) >= n, and the
/// argmin of t_1 + (m - 1) * k over k in [1, ceil(log2 n)] with ties to
/// the larger k. Covers 2 <= n <= max_n.
class ReferenceSolver {
 public:
  explicit ReferenceSolver(std::int32_t max_n) {
    while ((std::int64_t{1} << k_max_) < max_n) ++k_max_;
    t1_.assign(static_cast<std::size_t>(k_max_) + 1,
               std::vector<std::int32_t>(static_cast<std::size_t>(max_n) + 1));
    for (std::int32_t k = 1; k <= k_max_; ++k) {
      std::vector<std::int64_t> covered;  // N(0..s, k), until >= max_n
      for (std::int32_t s = 0; covered.empty() || covered.back() < max_n;
           ++s) {
        std::int64_t v = std::int64_t{1} << std::min(s, 62);
        if (s > k) {
          v = 1;
          for (std::int32_t i = 1; i <= k; ++i) {
            v += covered[static_cast<std::size_t>(s - i)];
          }
        }
        covered.push_back(v);
      }
      auto& row = t1_[static_cast<std::size_t>(k)];
      std::int32_t s = 0;
      for (std::int32_t n = 1; n <= max_n; ++n) {
        while (covered[static_cast<std::size_t>(s)] < n) ++s;
        row[static_cast<std::size_t>(n)] = s;
      }
    }
  }

  [[nodiscard]] OptimalChoice solve(std::int32_t n, std::int32_t m) const {
    std::int32_t k_max = 0;
    while ((std::int64_t{1} << k_max) < n) ++k_max;
    OptimalChoice best{0, 0, INT64_MAX};
    for (std::int32_t k = 1; k <= k_max; ++k) {
      const std::int32_t t1 =
          t1_[static_cast<std::size_t>(k)][static_cast<std::size_t>(n)];
      const std::int64_t total = t1 + std::int64_t{m - 1} * k;
      if (total <= best.total_steps) best = OptimalChoice{k, t1, total};
    }
    return best;
  }

 private:
  std::int32_t k_max_ = 0;
  std::vector<std::vector<std::int32_t>> t1_;  ///< [k][n]
};

bool same(const OptimalChoice& a, const OptimalChoice& b) {
  return a.k == b.k && a.t1 == b.t1 && a.total_steps == b.total_steps;
}

TEST(OptimalK, SinglePacketPrefersFullBinomial) {
  // Paper Fig. 12(a): for m = 1 the optimal k is ceil(log2 n).
  for (std::int32_t n : {4, 8, 15, 16, 31, 32, 48, 63, 64}) {
    const OptimalChoice c = optimal_k(n, 1);
    EXPECT_EQ(c.k, ceil_log2(static_cast<std::uint64_t>(n))) << "n=" << n;
    EXPECT_EQ(c.t1, ceil_log2(static_cast<std::uint64_t>(n)));
    EXPECT_EQ(c.total_steps, c.t1);
  }
}

TEST(OptimalK, MatchesExhaustiveSearch) {
  CoverageTable cov;
  for (std::int32_t n = 2; n <= 64; ++n) {
    for (std::int32_t m = 1; m <= 40; ++m) {
      const OptimalChoice c = optimal_k(n, m, cov);
      // Brute force over the full interval.
      std::int64_t best = INT64_MAX;
      for (std::int32_t k = 1;
           k <= ceil_log2(static_cast<std::uint64_t>(n)); ++k) {
        const std::int64_t total =
            cov.min_steps(static_cast<std::uint64_t>(n), k) +
            static_cast<std::int64_t>(m - 1) * k;
        best = std::min(best, total);
      }
      EXPECT_EQ(c.total_steps, best) << "n=" << n << " m=" << m;
      EXPECT_EQ(c.total_steps,
                c.t1 + static_cast<std::int64_t>(m - 1) * c.k);
      EXPECT_EQ(c.t1, cov.min_steps(static_cast<std::uint64_t>(n), c.k));
    }
  }
}

TEST(OptimalK, NonIncreasingInPacketCount) {
  // Paper Fig. 12(a): as m grows, optimal k comes down.
  CoverageTable cov;
  for (std::int32_t n : {8, 16, 32, 48, 64}) {
    std::int32_t prev = optimal_k(n, 1, cov).k;
    for (std::int32_t m = 2; m <= 64; ++m) {
      const std::int32_t k = optimal_k(n, m, cov).k;
      EXPECT_LE(k, prev) << "n=" << n << " m=" << m;
      prev = k;
    }
  }
}

TEST(OptimalK, ConvergesToLinearForManyPackets) {
  // Paper Section 5.1: after a crossover, k = 1 (linear) is optimal, and
  // the crossover comes earlier for smaller n.
  CoverageTable cov;
  std::int32_t prev_crossover = 0;
  for (std::int32_t n : {8, 16, 32, 64}) {
    std::int32_t crossover = -1;
    for (std::int32_t m = 1; m <= 2000; ++m) {
      if (optimal_k(n, m, cov).k == 1) {
        crossover = m;
        break;
      }
    }
    ASSERT_GT(crossover, 0) << "n=" << n << ": never reached k=1";
    EXPECT_GE(crossover, prev_crossover)
        << "crossover should come later for larger n";
    prev_crossover = crossover;
  }
}

TEST(OptimalK, MatchesReferenceUpTo4096Hosts) {
  const ReferenceSolver ref{4096};
  CoverageTable cov;
  for (std::int32_t n = 2; n <= 4096; ++n) {
    for (std::int32_t m = 1; m <= 64; ++m) {
      const OptimalChoice want = ref.solve(n, m);
      const OptimalChoice got = optimal_k(n, m, cov);
      ASSERT_TRUE(same(got, want))
          << "n=" << n << " m=" << m << ": k " << got.k << " vs " << want.k
          << ", t1 " << got.t1 << " vs " << want.t1;
    }
  }
}

TEST(OptimalK, LargeSetsPickTheBinomialTreeWithoutThrowing) {
  // k = 1 costs t_1 = n - 1 steps: closed form, no step-by-step search.
  for (const std::int32_t n : {1'000'001, 1'000'002, 1 << 24}) {
    const std::int32_t lg = ceil_log2(static_cast<std::uint64_t>(n));
    OptimalChoice c;
    ASSERT_NO_THROW(c = optimal_k(n, 1)) << "n=" << n;
    EXPECT_EQ(c.k, lg) << "n=" << n;
    EXPECT_EQ(c.t1, lg) << "n=" << n;
  }
}

TEST(OptimalK, DegenerateCases) {
  EXPECT_EQ(optimal_k(1, 5).k, 1);
  EXPECT_EQ(optimal_k(1, 5).total_steps, 0);
  EXPECT_EQ(optimal_k(2, 1).k, 1);
  EXPECT_EQ(optimal_k(2, 1).t1, 1);
}

TEST(OptimalK, RejectsBadArguments) {
  EXPECT_THROW((void)optimal_k(0, 1), std::invalid_argument);
  EXPECT_THROW((void)optimal_k(4, 0), std::invalid_argument);
}

TEST(OptimalKTable, AgreesWithDirectSolver) {
  const OptimalKTable table{64, 32};
  CoverageTable cov;
  for (std::int32_t n = 2; n <= 64; ++n) {
    for (std::int32_t m = 1; m <= 32; ++m) {
      const auto direct = optimal_k(n, m, cov);
      const auto looked = table.lookup(n, m);
      EXPECT_EQ(looked.k, direct.k) << "n=" << n << " m=" << m;
      EXPECT_EQ(looked.t1, direct.t1);
      EXPECT_EQ(looked.total_steps, direct.total_steps);
    }
  }
}

TEST(OptimalKTable, MatchesReferenceEverywhereAt1024x512) {
  // The table a Communicator on a 1024-host fabric builds: every lookup,
  // and the breakpoint count (a new segment wherever the reference's k
  // changes as m steps up to max_m).
  const OptimalKTable table{1024, 512};
  const ReferenceSolver ref{1024};
  std::size_t breakpoints = 0;
  for (std::int32_t n = 2; n <= 1024; ++n) {
    std::int32_t prev_k = 0;
    for (std::int32_t m = 1; m <= 512; ++m) {
      const OptimalChoice want = ref.solve(n, m);
      const OptimalChoice got = table.lookup(n, m);
      ASSERT_TRUE(same(got, want))
          << "n=" << n << " m=" << m << ": k " << got.k << " vs " << want.k;
      if (want.k != prev_k) ++breakpoints;
      prev_k = want.k;
    }
  }
  EXPECT_EQ(table.stored_entries(), breakpoints);
}

TEST(OptimalKTable, CompressedStorageIsSmall) {
  // The paper's feasibility argument (Section 4.3.1): optimal k is
  // constant over ranges of m, so breakpoint storage is far below the
  // dense n*m table.
  const OptimalKTable table{64, 32};
  EXPECT_LT(table.stored_entries(), 64u * 32u / 4u);
}

TEST(OptimalKTable, RejectsOutOfRangeLookups) {
  const OptimalKTable table{64, 32};
  EXPECT_THROW((void)table.lookup(1, 1), std::out_of_range);
  EXPECT_THROW((void)table.lookup(65, 1), std::out_of_range);
  EXPECT_THROW((void)table.lookup(10, 0), std::out_of_range);
  EXPECT_THROW((void)table.lookup(10, 33), std::out_of_range);
}

TEST(OptimalKTable, RejectsBadConstruction) {
  EXPECT_THROW((OptimalKTable{1, 4}), std::invalid_argument);
  EXPECT_THROW((OptimalKTable{8, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::core
