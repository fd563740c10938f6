#include "harness/testbed.hpp"

#include <gtest/gtest.h>

namespace nimcast::harness {
namespace {

TestbedSpec small_config() {
  TestbedSpec cfg;
  cfg.num_topologies = 2;
  cfg.sets_per_topology = 3;
  cfg.seed = 7;
  return cfg;
}

TEST(Testbed, SampleCountMatchesRepetitions) {
  const Testbed bed{small_config()};
  const auto p = bed.measure(8, 2, TreeSpec::binomial(),
                             mcast::NiStyle::kSmartFpfs);
  EXPECT_EQ(p.latency_us.count(), 6u);
  EXPECT_EQ(p.block_us.count(), 6u);
}

TEST(Testbed, DeterministicAcrossInstances) {
  const Testbed a{small_config()};
  const Testbed b{small_config()};
  const auto pa =
      a.measure(12, 4, TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs);
  const auto pb =
      b.measure(12, 4, TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs);
  EXPECT_DOUBLE_EQ(pa.latency_us.mean(), pb.latency_us.mean());
  EXPECT_DOUBLE_EQ(pa.latency_us.min(), pb.latency_us.min());
  EXPECT_DOUBLE_EQ(pa.latency_us.max(), pb.latency_us.max());
}

TEST(Testbed, SeedChangesResults) {
  auto cfg = small_config();
  const Testbed a{cfg};
  cfg.seed = 8;
  const Testbed b{cfg};
  const auto pa =
      a.measure(12, 4, TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs);
  const auto pb =
      b.measure(12, 4, TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs);
  EXPECT_NE(pa.latency_us.mean(), pb.latency_us.mean());
}

TEST(Testbed, PairedDrawsAcrossTreeSpecs) {
  // Different specs over the same testbed use identical participant
  // draws, so single-packet binomial == single-packet optimal (the
  // optimal k-binomial at m=1 IS the binomial tree).
  const Testbed bed{small_config()};
  const auto pb =
      bed.measure(16, 1, TreeSpec::binomial(), mcast::NiStyle::kSmartFpfs);
  const auto po =
      bed.measure(16, 1, TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs);
  EXPECT_DOUBLE_EQ(pb.latency_us.mean(), po.latency_us.mean());
}

TEST(Testbed, OptimalBeatsBinomialForManyPackets) {
  const Testbed bed{small_config()};
  const auto pb =
      bed.measure(16, 16, TreeSpec::binomial(), mcast::NiStyle::kSmartFpfs);
  const auto po =
      bed.measure(16, 16, TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs);
  EXPECT_LT(po.latency_us.mean(), pb.latency_us.mean());
}

TEST(Testbed, RandomOrderingUsuallyBlocksMore) {
  const Testbed bed{small_config()};
  const auto cco = bed.measure(24, 4, TreeSpec::optimal(),
                               mcast::NiStyle::kSmartFpfs,
                               OrderingKind::kCco);
  const auto rnd = bed.measure(24, 4, TreeSpec::optimal(),
                               mcast::NiStyle::kSmartFpfs,
                               OrderingKind::kRandom);
  EXPECT_LE(cco.block_us.mean(), rnd.block_us.mean());
}

TEST(Testbed, RejectsBadArguments) {
  const Testbed bed{small_config()};
  EXPECT_THROW((void)bed.measure(1, 1, TreeSpec::binomial(),
                                 mcast::NiStyle::kSmartFpfs),
               std::invalid_argument);
  EXPECT_THROW((void)bed.measure(65, 1, TreeSpec::binomial(),
                                 mcast::NiStyle::kSmartFpfs),
               std::invalid_argument);
  EXPECT_THROW((void)bed.measure(8, 0, TreeSpec::binomial(),
                                 mcast::NiStyle::kSmartFpfs),
               std::invalid_argument);
  TestbedSpec bad = small_config();
  bad.num_topologies = 0;
  EXPECT_THROW((Testbed{bad}), std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::harness
