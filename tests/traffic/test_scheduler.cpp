#include "traffic/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace nimcast::traffic {
namespace {

/// Telemetry-hot threshold every scheduler here is built with.
constexpr std::int64_t kHotBlockNs = 1000;

SchedulerConfig paced(std::int32_t tolerance_x1000 = 200) {
  SchedulerConfig cfg;
  cfg.policy = Policy::kPaced;
  cfg.overlap_tolerance_x1000 = tolerance_x1000;
  cfg.max_defer_ticks = 4;
  return cfg;
}

TEST(GroupScheduler, FifoAlwaysAdmits) {
  SchedulerConfig cfg = paced();
  cfg.policy = Policy::kFifo;
  GroupScheduler sched{cfg, 8, kHotBlockNs};
  sched.admit({0, 1, 2});
  EXPECT_TRUE(sched.would_admit({0, 1, 2}, 0));
  EXPECT_TRUE(sched.would_admit({0, 1, 2, 3, 4}, 0));
}

TEST(GroupScheduler, EmptyFabricAlwaysAdmits) {
  GroupScheduler sched{paced(0), 8, kHotBlockNs};
  EXPECT_EQ(sched.in_flight(), 0);
  EXPECT_TRUE(sched.would_admit({0, 1, 2, 3, 4, 5, 6, 7}, 0));
}

TEST(GroupScheduler, DefersOverlapAdmitsDisjoint) {
  GroupScheduler sched{paced(200), 8, kHotBlockNs};
  sched.admit({0, 1, 2, 3});
  // 4/4 channels busy: 4000 > 200 * 4 — defer.
  EXPECT_FALSE(sched.would_admit({0, 1, 2, 3}, 0));
  // 1/5 busy: 1000 <= 200 * 5 — boundary admits.
  EXPECT_TRUE(sched.would_admit({0, 4, 5, 6, 7}, 0));
  // Disjoint always scores 0.
  EXPECT_TRUE(sched.would_admit({4, 5, 6, 7}, 0));
  sched.release({0, 1, 2, 3});
  EXPECT_EQ(sched.in_flight(), 0);
  EXPECT_TRUE(sched.would_admit({0, 1, 2, 3}, 0));
}

TEST(GroupScheduler, AgingForceAdmits) {
  GroupScheduler sched{paced(0), 8, kHotBlockNs};
  sched.admit({0, 1});
  EXPECT_FALSE(sched.would_admit({0, 1}, 0));
  EXPECT_FALSE(sched.would_admit({0, 1}, 3));
  EXPECT_TRUE(sched.would_admit({0, 1}, 4));  // max_defer_ticks reached
}

TEST(GroupScheduler, TelemetryMarksHotChannels) {
  GroupScheduler sched{paced(0), 4, kHotBlockNs};
  sched.admit({0});  // something in flight so scoring applies
  EXPECT_EQ(sched.busy_channels({1, 2, 3}), 0);
  // Channel 2 accumulated 5000 ns of fresh block time > kHotBlockNs.
  sched.refresh_telemetry({0, 0, 5000, 0});
  EXPECT_EQ(sched.busy_channels({1, 2, 3}), 1);
  EXPECT_FALSE(sched.would_admit({2}, 0));
  EXPECT_TRUE(sched.would_admit({1, 3}, 0));
  // No new block time since the last refresh: the delta cools off.
  sched.refresh_telemetry({0, 0, 5000, 0});
  EXPECT_EQ(sched.busy_channels({1, 2, 3}), 0);
  EXPECT_TRUE(sched.would_admit({2}, 0));
}

TEST(GroupScheduler, InFlightFootprintCountsAsBusy) {
  GroupScheduler sched{paced(500), 10, kHotBlockNs};
  sched.admit({0, 1, 2});
  sched.admit({3, 4});
  EXPECT_EQ(sched.in_flight(), 2);
  EXPECT_EQ(sched.busy_channels({0, 3, 5, 6}), 2);
  // 2/4 busy: 2000 <= 500 * 4 — boundary admits at 50% tolerance.
  EXPECT_TRUE(sched.would_admit({0, 3, 5, 6}, 0));
  // 2/3 busy: 2000 > 500 * 3.
  EXPECT_FALSE(sched.would_admit({0, 3, 5}, 0));
}

TEST(GroupScheduler, RejectsBadConfig) {
  EXPECT_THROW(GroupScheduler(paced(-1), 4, kHotBlockNs),
               std::invalid_argument);
  EXPECT_THROW(GroupScheduler(paced(1001), 4, kHotBlockNs),
               std::invalid_argument);
  SchedulerConfig cfg = paced();
  cfg.max_defer_ticks = 0;
  EXPECT_THROW(GroupScheduler(cfg, 4, kHotBlockNs), std::invalid_argument);
  EXPECT_THROW(GroupScheduler(paced(), -1, kHotBlockNs),
               std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::traffic
