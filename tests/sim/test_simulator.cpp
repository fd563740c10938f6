#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nimcast::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator s;
  std::vector<Time> seen;
  s.schedule_at(Time::us(5.0), [&] { seen.push_back(s.now()); });
  s.schedule_at(Time::us(2.0), [&] { seen.push_back(s.now()); });
  const auto fired = s.run();
  EXPECT_EQ(fired, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Time::us(2.0));
  EXPECT_EQ(seen[1], Time::us(5.0));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  Time fired_at;
  s.schedule_at(Time::us(10.0), [&] {
    s.schedule_in(Time::us(2.5), [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, Time::us(12.5));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_at(Time::us(5.0), [&] {
    EXPECT_THROW(s.schedule_at(Time::us(1.0), [] {}), std::logic_error);
  });
  s.run();
}

TEST(Simulator, ZeroDelayFollowUpAllowed) {
  Simulator s;
  int order = 0;
  int first = 0;
  int second = 0;
  s.schedule_at(Time::us(1.0), [&] {
    first = ++order;
    s.schedule_in(Time::zero(), [&] { second = ++order; });
  });
  s.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.schedule_at(Time::us(1.0), [&] { ++fired; });
  s.schedule_at(Time::us(10.0), [&] { ++fired; });
  s.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::us(5.0));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_at(Time::us(5.0), [&] { ++fired; });
  s.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 1);
}

// run_until is *inclusive*: an event re-entrantly scheduled at exactly
// the boundary (zero delay from a boundary event) must still fire in the
// same call — run_until(W) drains every event chain that stays <= W.
TEST(Simulator, RunUntilRunsReentrantEventsAtBoundary) {
  Simulator s;
  std::vector<int> seen;
  s.schedule_at(Time::us(5.0), [&] {
    seen.push_back(1);
    s.schedule_in(Time::zero(), [&] {
      seen.push_back(2);
      s.schedule_in(Time::zero(), [&] { seen.push_back(3); });
    });
  });
  const auto fired = s.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.now(), Time::us(5.0));
}

// ...but an event the boundary event schedules *past* the boundary stays
// pending, and the clock still lands exactly on `until`.
TEST(Simulator, RunUntilLeavesPostBoundaryFollowUpsPending) {
  Simulator s;
  int late = 0;
  s.schedule_at(Time::us(5.0), [&] {
    s.schedule_in(Time::ns(1), [&] { ++late; });
  });
  const auto fired = s.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.now(), Time::us(5.0));
  s.run();
  EXPECT_EQ(late, 1);
}

// Multiple events pinned at the boundary instant all fire, in schedule
// (FIFO) order — the same tie-break contract as run().
TEST(Simulator, RunUntilFiresAllBoundaryEventsInScheduleOrder) {
  Simulator s;
  std::vector<int> seen;
  s.schedule_at(Time::us(5.0), [&] { seen.push_back(1); });
  s.schedule_at(Time::us(5.0), [&] { seen.push_back(2); });
  s.schedule_at(Time::us(5.0), [&] { seen.push_back(3); });
  const auto fired = s.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

// An empty window still advances the clock (and never moves it backward
// when `until` is already in the past).
TEST(Simulator, RunUntilOnEmptyQueueAdvancesClockMonotonically) {
  Simulator s;
  EXPECT_EQ(s.run_until(Time::us(3.0)), 0u);
  EXPECT_EQ(s.now(), Time::us(3.0));
  EXPECT_EQ(s.run_until(Time::us(1.0)), 0u);  // until < now: no-op
  EXPECT_EQ(s.now(), Time::us(3.0));
}

TEST(Simulator, StepRunsOneEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(Time::us(1.0), [&] { ++fired; });
  s.schedule_at(Time::us(2.0), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventNeverRuns) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(Time::us(1.0), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventLimitCatchesRunawayLoops) {
  Simulator s;
  // A self-rescheduling zero-delay event would spin forever.
  std::function<void()> loop = [&] { s.schedule_in(Time::zero(), loop); };
  s.schedule_at(Time::zero(), loop);
  EXPECT_THROW(s.run(1000), std::runtime_error);
}

TEST(Simulator, DispatchCountAccumulates) {
  Simulator s;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(Time::us(static_cast<double>(i)), [] {});
  }
  s.run();
  EXPECT_EQ(s.events_dispatched(), 5u);
}

}  // namespace
}  // namespace nimcast::sim
