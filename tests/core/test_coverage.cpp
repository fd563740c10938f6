#include "core/coverage.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace nimcast::core {
namespace {

TEST(Coverage, BinomialRegimeIsPowersOfTwo) {
  CoverageTable cov;
  for (std::int32_t k = 1; k <= 8; ++k) {
    for (std::int32_t s = 0; s <= k; ++s) {
      EXPECT_EQ(cov.coverage(s, k), UINT64_C(1) << s)
          << "s=" << s << " k=" << k;
    }
  }
}

TEST(Coverage, RecurrenceHolds) {
  CoverageTable cov;
  for (std::int32_t k = 1; k <= 6; ++k) {
    for (std::int32_t s = k + 1; s <= 20; ++s) {
      std::uint64_t expected = 1;
      for (std::int32_t i = 1; i <= k; ++i) expected += cov.coverage(s - i, k);
      EXPECT_EQ(cov.coverage(s, k), expected);
    }
  }
}

TEST(Coverage, KnownValuesForK2) {
  CoverageTable cov;
  // N(s,2): 1, 2, 4, 7, 12, 20, 33, 54 (Fibonacci-like).
  const std::uint64_t expected[] = {1, 2, 4, 7, 12, 20, 33, 54};
  for (std::int32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(cov.coverage(s, 2), expected[s]);
  }
}

TEST(Coverage, LinearTreeCoversSPlusOne) {
  CoverageTable cov;
  for (std::int32_t s = 0; s <= 40; ++s) {
    EXPECT_EQ(cov.coverage(s, 1), static_cast<std::uint64_t>(s) + 1);
  }
}

TEST(Coverage, MonotoneInBothArguments) {
  CoverageTable cov;
  for (std::int32_t k = 1; k <= 6; ++k) {
    for (std::int32_t s = 0; s < 15; ++s) {
      EXPECT_LE(cov.coverage(s, k), cov.coverage(s + 1, k));
      if (k > 1) {
        EXPECT_LE(cov.coverage(s, k - 1), cov.coverage(s, k));
      }
    }
  }
}

TEST(Coverage, NeverExceedsBinomial) {
  CoverageTable cov;
  for (std::int32_t k = 1; k <= 8; ++k) {
    for (std::int32_t s = 0; s <= 30; ++s) {
      EXPECT_LE(cov.coverage(s, k), UINT64_C(1) << s);
    }
  }
}

TEST(Coverage, SaturatesInsteadOfOverflowing) {
  CoverageTable cov;
  EXPECT_EQ(cov.coverage(100, 8), kCoverageInfinity);
  EXPECT_EQ(cov.coverage(63, 63), kCoverageInfinity);
}

TEST(Coverage, MatchesSaturatingRecurrenceForEveryFanout) {
  // The recurrence with saturation, evaluated directly, for fan-outs
  // past the k >= 62 shared row and steps past every row's saturation.
  CoverageTable cov;
  for (std::int32_t k = 1; k <= 70; ++k) {
    std::vector<std::uint64_t> n;
    for (std::int32_t s = 0; s <= 130; ++s) {
      std::uint64_t v = s >= 62 ? kCoverageInfinity : (UINT64_C(1) << s);
      if (s > k) {
        v = 1;
        for (std::int32_t i = 1; i <= k; ++i) {
          v = std::min(kCoverageInfinity,
                       v + n[static_cast<std::size_t>(s - i)]);
        }
      }
      n.push_back(v);
      ASSERT_EQ(cov.coverage(s, k), v) << "s=" << s << " k=" << k;
    }
  }
}

TEST(Coverage, AnswersDoNotDependOnQueryOrder) {
  // Rows grow only as far as calls ask; a table that grew them in a
  // different order answers the same.
  for (std::int32_t k = 2; k <= 8; ++k) {
    CoverageTable up;
    CoverageTable down;
    CoverageTable mixed;
    for (std::int32_t s = 0; s <= 100; ++s) (void)up.coverage(s, k);
    for (std::int32_t s = 100; s >= 0; --s) {
      ASSERT_EQ(down.coverage(s, k), up.coverage(s, k)) << "k=" << k;
    }
    for (std::uint64_t n = UINT64_C(1) << 40; n >= 1; n /= 3) {
      const std::int32_t s = mixed.min_steps(n, k);
      ASSERT_GE(up.coverage(s, k), n) << "k=" << k << " n=" << n;
      if (s > 0) {
        ASSERT_LT(up.coverage(s - 1, k), n) << "k=" << k;
      }
      ASSERT_EQ(mixed.coverage(s, k), up.coverage(s, k));
    }
  }
}

TEST(Coverage, ColdTableAnswersDeepStepsDirectly) {
  // No recursion: a fresh table answers far-out steps at once.
  EXPECT_EQ(CoverageTable{}.coverage(1 << 20, 1), (UINT64_C(1) << 20) + 1);
  EXPECT_EQ(CoverageTable{}.coverage(1'000'000, 2), kCoverageInfinity);
  EXPECT_EQ(CoverageTable{}.coverage(INT32_MAX, 1),
            static_cast<std::uint64_t>(INT32_MAX) + 1);
  EXPECT_EQ(CoverageTable{}.coverage(INT32_MAX, INT32_MAX), kCoverageInfinity);
}

TEST(Coverage, RejectsBadArguments) {
  CoverageTable cov;
  EXPECT_THROW((void)cov.coverage(-1, 2), std::invalid_argument);
  EXPECT_THROW((void)cov.coverage(3, 0), std::invalid_argument);
}

TEST(MinSteps, MatchesDefinition) {
  CoverageTable cov;
  for (std::int32_t k = 1; k <= 6; ++k) {
    for (std::uint64_t n = 1; n <= 200; ++n) {
      const std::int32_t s = cov.min_steps(n, k);
      EXPECT_GE(cov.coverage(s, k), n);
      if (s > 0) {
        EXPECT_LT(cov.coverage(s - 1, k), n);
      }
    }
  }
}

TEST(MinSteps, BinomialFanoutGivesCeilLog2) {
  CoverageTable cov;
  for (std::uint64_t n = 2; n <= 1024; ++n) {
    const std::int32_t k = ceil_log2(n);
    EXPECT_EQ(cov.min_steps(n, k), k) << "n=" << n;
  }
}

TEST(MinSteps, LinearIsNMinusOne) {
  CoverageTable cov;
  for (std::uint64_t n = 1; n <= 100; ++n) {
    EXPECT_EQ(cov.min_steps(n, 1), static_cast<std::int32_t>(n) - 1);
  }
}

TEST(MinSteps, LargeSetsUseClosedFormsOrFullRows) {
  CoverageTable cov;
  EXPECT_EQ(cov.min_steps(1'000'002, 1), 1'000'001);
  EXPECT_EQ(cov.min_steps(UINT64_C(1) << 31, 1), INT32_MAX);
  EXPECT_EQ(cov.min_steps(UINT64_C(1) << 24, 24), 24);
  // N(s, 2) = F(s + 3) - 1 (Fibonacci, F(1) = F(2) = 1): F(32) = 2178309.
  EXPECT_EQ(cov.min_steps(2'178'308, 2), 29);
  EXPECT_EQ(cov.min_steps(2'178'309, 2), 30);
  // The longest row: N(s, 2) first saturates at s = 88.
  EXPECT_EQ(cov.min_steps(kCoverageInfinity, 2), 88);
  for (std::int32_t k : {2, 3, 40, 62, 1000}) {
    const std::int32_t s = cov.min_steps(kCoverageInfinity, k);
    EXPECT_EQ(cov.coverage(s, k), kCoverageInfinity) << "k=" << k;
    EXPECT_LT(cov.coverage(s - 1, k), kCoverageInfinity) << "k=" << k;
  }
}

TEST(MinSteps, RejectsUnrepresentableAnswers) {
  CoverageTable cov;
  EXPECT_THROW((void)cov.min_steps((UINT64_C(1) << 31) + 1, 1),
               std::out_of_range);
  EXPECT_THROW((void)cov.min_steps(kCoverageInfinity + 1, 2),
               std::out_of_range);
  EXPECT_THROW((void)cov.min_steps(0, 2), std::invalid_argument);
  EXPECT_THROW((void)cov.min_steps(4, 0), std::invalid_argument);
}

TEST(CeilLog2, KnownValues) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(64), 6);
  EXPECT_EQ(ceil_log2(65), 7);
  EXPECT_EQ(ceil_log2(UINT64_C(1) << 40), 40);
  EXPECT_EQ(ceil_log2((UINT64_C(1) << 40) + 1), 41);
  EXPECT_EQ(ceil_log2(UINT64_MAX), 64);
}

TEST(CeilLog2, RejectsZero) {
  EXPECT_THROW((void)ceil_log2(0), std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::core
