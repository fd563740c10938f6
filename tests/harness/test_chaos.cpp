// Chaos soak: seeded randomized campaigns of (fabric x operation x fault
// schedule) — including mid-stream root kills and link flaps — asserting
// the robustness invariants end to end, plus byte-determinism of every
// campaign across reruns and engine shard counts. Registered under the
// `soak` ctest label; NIMCAST_QUICK=1 shrinks the campaign count.

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/chaos.hpp"

namespace nimcast::harness {
namespace {

std::int32_t soak_campaigns() {
  return std::getenv("NIMCAST_QUICK") != nullptr ? 12 : 50;
}

TEST(ChaosSoak, SoakIsCleanAndByteDeterministic) {
  ChaosConfig config;
  config.campaigns = soak_campaigns();
  const ChaosSoak soak{config};
  const ChaosReport report = soak.run();

  ASSERT_EQ(report.campaigns, config.campaigns);
  EXPECT_EQ(report.complete + report.partial + report.failed,
            report.campaigns);
  // run() already reran every campaign (and a 2-shard variant of every
  // shard_check_every-th) and folded any digest mismatch into
  // violations, so 0 here certifies both the invariants and the
  // byte-determinism of the whole soak.
  EXPECT_EQ(report.violations, 0) << [&] {
    std::string all;
    for (const auto& msg : report.violation_messages) {
      all += msg;
      all += '\n';
    }
    return all;
  }();
  // The mix must actually exercise the fail-over machinery.
  EXPECT_GT(report.root_kills, 0);
  EXPECT_GT(report.root_handoffs, 0);
  EXPECT_GT(report.repairs + report.replans, 0);

  // A second full soak from the same seed is byte-identical.
  const ChaosReport again = soak.run();
  EXPECT_EQ(report.digest, again.digest);
}

TEST(ChaosSoak, CampaignIsPureInConfigAndIndex) {
  const ChaosConfig config;
  for (const std::int32_t index : {0, 1, 5}) {
    const auto a = ChaosSoak::campaign(config, index, 1, 0);
    const auto b = ChaosSoak::campaign(config, index, 1, 0);
    EXPECT_EQ(a.digest, b.digest) << "campaign " << index;
    EXPECT_EQ(a.outcome, b.outcome);
    // And independent of how the simulation is sharded.
    const auto sharded = ChaosSoak::campaign(config, index, 2, 2);
    EXPECT_EQ(a.digest, sharded.digest) << "campaign " << index;
  }
}

TEST(ChaosSoak, DifferentSeedsDrawDifferentCampaigns) {
  ChaosConfig a;
  a.campaigns = 6;
  ChaosConfig b = a;
  b.seed ^= 0xdeadbeef;
  const auto ra = ChaosSoak{a}.run();
  const auto rb = ChaosSoak{b}.run();
  EXPECT_NE(ra.digest, rb.digest);
}

TEST(ChaosSoak, CampaignDigestGoldens) {
  // Campaign digests fold every observable of a run, so these pin the
  // drawn fabrics, their routes, the participant and fault draws that
  // follow on the same generator, and the simulation itself.
  const ChaosConfig config;
  const auto digest = [&config](std::int32_t index) {
    return ChaosSoak::campaign(config, index, 1, 0).digest;
  };
  EXPECT_EQ(digest(0), 0x49ffd178acefb84fu);
  EXPECT_EQ(digest(1), 0x3c40574a257499bcu);
  EXPECT_EQ(digest(2), 0xd0202714b33594b7u);
  EXPECT_EQ(digest(3), 0xd9c3d0a22570992bu);
  EXPECT_EQ(digest(4), 0x6824c6a096fe48fbu);
  EXPECT_EQ(digest(5), 0xf98774d8748a5e4au);
  EXPECT_EQ(digest(6), 0xdaf1b184105585deu);
  EXPECT_EQ(digest(7), 0x354683b6e7853f16u);
}

}  // namespace
}  // namespace nimcast::harness
