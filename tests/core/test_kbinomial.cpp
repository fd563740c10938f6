#include "core/kbinomial.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

namespace nimcast::core {
namespace {

TEST(KBinomial, SingleNodeTree) {
  const RankTree t = make_kbinomial(1, 3);
  t.validate();
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.root_children(), 0);
  EXPECT_EQ(t.steps_to_complete(), 0);
}

TEST(KBinomial, TwoNodes) {
  const RankTree t = make_kbinomial(2, 1);
  t.validate();
  EXPECT_EQ(t.children[0], (std::vector<std::int32_t>{1}));
}

TEST(KBinomial, LinearTreeIsChain) {
  const RankTree t = make_linear(5);
  t.validate();
  for (std::int32_t r = 0; r + 1 < 5; ++r) {
    EXPECT_EQ(t.children[static_cast<std::size_t>(r)],
              (std::vector<std::int32_t>{r + 1}));
  }
  EXPECT_EQ(t.steps_to_complete(), 4);
}

TEST(KBinomial, BinomialRecursiveHalving) {
  const RankTree t = make_binomial(8);
  t.validate();
  // Root's first child splits the chain in half, then quarters, ...
  EXPECT_EQ(t.children[0], (std::vector<std::int32_t>{4, 2, 1}));
  EXPECT_EQ(t.children[4], (std::vector<std::int32_t>{6, 5}));
  EXPECT_EQ(t.children[6], (std::vector<std::int32_t>{7}));
  EXPECT_EQ(t.steps_to_complete(), 3);
}

TEST(KBinomial, PaperFigure9Shapes) {
  // Fig. 9: 3-binomial and 4-binomial trees on multicast set size 16.
  const RankTree t3 = make_kbinomial(16, 3);
  t3.validate();
  EXPECT_EQ(t3.max_children(), 3);
  EXPECT_EQ(t3.steps_to_complete(), 5);  // N(4,3)=15 < 16 <= N(5,3)=28

  const RankTree t4 = make_kbinomial(16, 4);
  t4.validate();
  EXPECT_LE(t4.max_children(), 4);
  EXPECT_EQ(t4.steps_to_complete(), 4);  // 4-binomial == binomial for n=16
}

TEST(KBinomial, FanoutBoundRespected) {
  for (std::int32_t n = 1; n <= 150; ++n) {
    for (std::int32_t k = 1; k <= 7; ++k) {
      const RankTree t = make_kbinomial(n, k);
      t.validate();
      EXPECT_LE(t.max_children(), k) << "n=" << n << " k=" << k;
    }
  }
}

TEST(KBinomial, CompletesInExactlyMinSteps) {
  CoverageTable cov;
  for (std::int32_t n = 1; n <= 150; ++n) {
    for (std::int32_t k = 1; k <= 7; ++k) {
      const RankTree t = make_kbinomial(n, k);
      EXPECT_EQ(t.steps_to_complete(),
                cov.min_steps(static_cast<std::uint64_t>(n), k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(KBinomial, SubtreesOccupyContiguousChainSegmentsToTheRight) {
  // The Fig. 11 construction property that makes contention-freeness
  // work: each subtree covers a contiguous rank range starting at its
  // root, entirely to the right of (greater than) its parent.
  for (const auto& [n, k] : {std::pair{37, 2}, std::pair{64, 3},
                             std::pair{100, 4}, std::pair{48, 6}}) {
    const RankTree t = make_kbinomial(n, k);
    // Compute subtree [min,max] and size per node; verify contiguity.
    std::vector<std::int32_t> size(static_cast<std::size_t>(n), 1);
    std::vector<std::int32_t> maxr(static_cast<std::size_t>(n));
    for (std::int32_t r = n - 1; r >= 0; --r) {
      maxr[static_cast<std::size_t>(r)] = r;
      for (std::int32_t c : t.children[static_cast<std::size_t>(r)]) {
        EXPECT_GT(c, r) << "child left of parent";
        size[static_cast<std::size_t>(r)] += size[static_cast<std::size_t>(c)];
        maxr[static_cast<std::size_t>(r)] =
            std::max(maxr[static_cast<std::size_t>(r)],
                     maxr[static_cast<std::size_t>(c)]);
      }
      EXPECT_EQ(maxr[static_cast<std::size_t>(r)] - r + 1,
                size[static_cast<std::size_t>(r)])
          << "subtree of rank " << r << " not contiguous (n=" << n
          << ", k=" << k << ")";
    }
  }
}

TEST(KBinomial, FirstChildOwnsDeepestSubtree) {
  // Send order: earlier children get more steps, hence larger segments.
  const RankTree t = make_kbinomial(64, 3);
  const auto& kids = t.children[0];
  ASSERT_GE(kids.size(), 2u);
  for (std::size_t i = 0; i + 1 < kids.size(); ++i) {
    // Earlier child sits further right only if its segment is larger;
    // with the rightmost-first construction children descend in rank.
    EXPECT_GT(kids[i], kids[i + 1]);
  }
}

TEST(KBinomial, LargeKEqualsBinomial) {
  // k beyond ceil(log2 n) cannot help; the trees coincide.
  for (std::int32_t n : {5, 16, 33, 100}) {
    const RankTree a =
        make_kbinomial(n, ceil_log2(static_cast<std::uint64_t>(n)));
    const RankTree b = make_binomial(n);
    EXPECT_EQ(a.children, b.children);
  }
}

/// FNV-1a digests of every k-binomial tree for n = 1..1024, per k,
/// recorded from the recursive, unordered_map-memoised builder this
/// library started with: one over the parent arrays, one over the
/// children lists in send order (their sizes and entries). Any change to
/// a tree's shape or send order changes a digest.
struct KBinomialGolden {
  std::int32_t k;
  std::uint64_t parents;
  std::uint64_t shape;
};

void PrintTo(const KBinomialGolden& g, std::ostream* os) {
  *os << "k=" << g.k;
}

class KBinomialGoldens : public ::testing::TestWithParam<KBinomialGolden> {};

TEST_P(KBinomialGoldens, DigestsForEveryNUpTo1024) {
  const KBinomialGolden& g = GetParam();
  const auto mix = [](std::uint64_t& h, std::int32_t x) {
    const auto v = static_cast<std::uint32_t>(x);
    for (std::int32_t b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= UINT64_C(0x100000001b3);
    }
  };
  std::uint64_t parents = UINT64_C(0xcbf29ce484222325);
  std::uint64_t shape = parents;
  for (std::int32_t n = 1; n <= 1024; ++n) {
    const RankTree t = make_kbinomial(n, g.k);
    for (std::int32_t p : t.parent) mix(parents, p);
    for (std::int32_t p : t.parent) mix(shape, p);
    for (const auto& kids : t.children) {
      mix(shape, static_cast<std::int32_t>(kids.size()));
      for (std::int32_t c : kids) mix(shape, c);
    }
  }
  EXPECT_EQ(parents, g.parents);
  EXPECT_EQ(shape, g.shape);
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsOneToTen, KBinomialGoldens,
    ::testing::Values(
        KBinomialGolden{1, UINT64_C(0x1a807ce59139c225),
                        UINT64_C(0x99a7a16d0daabf25)},
        KBinomialGolden{2, UINT64_C(0x811c0056d8997f61),
                        UINT64_C(0xdee3004b3750085f)},
        KBinomialGolden{3, UINT64_C(0xa76f6f32eca24d2b),
                        UINT64_C(0xc72f5678b7cc3939)},
        KBinomialGolden{4, UINT64_C(0x081a21ae55e4d56e),
                        UINT64_C(0xe5684efc659698da)},
        KBinomialGolden{5, UINT64_C(0x72a31063eedc7e04),
                        UINT64_C(0xb98a99738a315c98)},
        KBinomialGolden{6, UINT64_C(0xa6a7e762d4fa7b89),
                        UINT64_C(0xd631fc0d4602b4db)},
        KBinomialGolden{7, UINT64_C(0xd876d9d3276bda92),
                        UINT64_C(0xc60b29a136629396)},
        KBinomialGolden{8, UINT64_C(0x5780502abbc452f6),
                        UINT64_C(0x19a3e33bc0965d38)},
        KBinomialGolden{9, UINT64_C(0x4eafc6f7919e9ed3),
                        UINT64_C(0xf562c5a55933b5cb)},
        KBinomialGolden{10, UINT64_C(0x5f367b1f29163d25),
                        UINT64_C(0xc64b9f847c564f25)}),
    [](const ::testing::TestParamInfo<KBinomialGolden>& pinfo) {
      std::string name = "k";
      name += std::to_string(pinfo.param.k);
      return name;
    });

TEST(KBinomial, DeepChainsBuildWithoutRecursion) {
  // The linear tree is n - 1 levels deep; building it must not need
  // n - 1 stack frames.
  constexpr std::int32_t n = 1 << 18;
  const RankTree t = make_linear(n);
  for (std::int32_t r = 1; r < n; ++r) {
    ASSERT_EQ(t.parent[static_cast<std::size_t>(r)], r - 1) << "r=" << r;
  }
  EXPECT_TRUE(t.children.back().empty());
}

TEST(KBinomial, RejectsBadArguments) {
  EXPECT_THROW((void)make_kbinomial(0, 2), std::invalid_argument);
  EXPECT_THROW((void)make_kbinomial(4, 0), std::invalid_argument);
  EXPECT_THROW((void)make_binomial(0), std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::core
