#include "netif/serial_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace nimcast::netif {
namespace {

TEST(SerialServer, ExecutesTasksFifoBackToBack) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<std::pair<int, sim::Time>> done;
  for (int i = 0; i < 3; ++i) {
    server.enqueue(sim::Time::us(2.0),
                   [&, i] { done.emplace_back(i, simctx.now()); });
  }
  simctx.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], (std::pair{0, sim::Time::us(2.0)}));
  EXPECT_EQ(done[1], (std::pair{1, sim::Time::us(4.0)}));
  EXPECT_EQ(done[2], (std::pair{2, sim::Time::us(6.0)}));
}

TEST(SerialServer, IdleServerStartsImmediately) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  sim::Time done_at;
  simctx.schedule_at(sim::Time::us(5.0), [&] {
    server.enqueue(sim::Time::us(1.0), [&] { done_at = simctx.now(); });
  });
  simctx.run();
  EXPECT_EQ(done_at, sim::Time::us(6.0));
}

TEST(SerialServer, CompletionActionMayEnqueueMoreWork) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  sim::Time second_done;
  server.enqueue(sim::Time::us(1.0), [&] {
    server.enqueue(sim::Time::us(3.0), [&] { second_done = simctx.now(); });
  });
  simctx.run();
  EXPECT_EQ(second_done, sim::Time::us(4.0));
}

TEST(SerialServer, WorkEnqueuedByActionGoesBehindQueuedWork) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<int> order;
  server.enqueue(sim::Time::us(1.0), [&] {
    order.push_back(0);
    server.enqueue(sim::Time::us(1.0), [&] { order.push_back(2); });
  });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(1); });
  simctx.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SerialServer, EnqueueFrontJumpsQueue) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<int> order;
  server.enqueue(sim::Time::us(1.0), [&] {
    order.push_back(0);
    server.enqueue_front(sim::Time::us(1.0), [&] { order.push_back(1); });
  });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(2); });
  simctx.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SerialServer, BusyAndQueuedObservable) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  server.enqueue(sim::Time::us(1.0), [] {});
  server.enqueue(sim::Time::us(1.0), [] {});
  EXPECT_TRUE(server.busy());
  EXPECT_EQ(server.queued(), 1u);
  simctx.run();
  EXPECT_FALSE(server.busy());
  EXPECT_EQ(server.queued(), 0u);
}

TEST(SerialServer, BusyTimeAccumulates) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  server.enqueue(sim::Time::us(1.5), [] {});
  server.enqueue(sim::Time::us(2.5), [] {});
  simctx.run();
  EXPECT_EQ(server.busy_time(), sim::Time::us(4.0));
}

TEST(SerialServer, ZeroDurationTaskCompletesAtEnqueueTime) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  sim::Time done_at = sim::Time::us(99.0);
  server.enqueue(sim::Time::zero(), [&] { done_at = simctx.now(); });
  simctx.run();
  EXPECT_EQ(done_at, sim::Time::zero());
}

// --- task rings: wrap-around, growth, captures ----------------------------

TEST(SerialServer, EnqueueFrontOntoWrappedHead) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<char> order;
  const auto task = [&](char c) {
    return [&order, c] { order.push_back(c); };
  };
  // A starts at once, which leaves the ring's head one slot in; B then
  // takes the slot before it and C wraps the head past the ring's start.
  server.enqueue(sim::Time::us(1.0), task('A'));
  server.enqueue_front(sim::Time::us(1.0), task('B'));
  server.enqueue_front(sim::Time::us(1.0), task('C'));
  server.enqueue(sim::Time::us(1.0), task('D'));
  server.enqueue_front(sim::Time::us(1.0), task('E'));
  EXPECT_EQ(server.queued(), 4u);
  simctx.run();
  EXPECT_EQ(std::string(order.begin(), order.end()), "AECBD");
}

TEST(SerialServer, GrowthWhileWrappedKeepsFifoOrder) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<int> order;
  const auto task = [&](int i) { return [&order, i] { order.push_back(i); }; };
  // Task 0 starts at once and leaves the ring's head one slot in, so the
  // next tasks fill the ring with its tail wrapped past the end, and the
  // rest grow it, several times, from that wrapped state. The low lane
  // grows the same way, behind every normal task.
  for (int i = 0; i < 5; ++i) server.enqueue(sim::Time::us(1.0), task(i));
  for (int i = 100; i < 120; ++i) {
    server.enqueue_low(sim::Time::us(1.0), task(i));
  }
  for (int i = 5; i < 20; ++i) server.enqueue(sim::Time::us(1.0), task(i));
  simctx.run();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) expected.push_back(i);
  for (int i = 100; i < 120; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(simctx.now(), sim::Time::us(40.0));
}

TEST(SerialServer, MoveOnlyCaptureRuns) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  server.enqueue(sim::Time::us(1.0), [&server] {
    server.enqueue(sim::Time::us(1.0), [] {});
  });
  // Queued behind the first task, so it moves through the ring into the
  // worker slot before it runs.
  server.enqueue(sim::Time::us(1.0),
                 [p = std::move(payload), &seen] { seen = *p; });
  simctx.run();
  EXPECT_EQ(seen, 42);
}

TEST(SerialServer, OversizedCaptureRunsAndIsDestroyedOnce) {
  // Counts destructions of the live (not moved-from) copy.
  struct Probe {
    int* destroyed;
    bool live = true;
    explicit Probe(int* d) : destroyed{d} {}
    Probe(Probe&& o) noexcept : destroyed{o.destroyed}, live{o.live} {
      o.live = false;
    }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (live) ++*destroyed;
    }
  };
  int destroyed = 0;
  int ran = 0;
  std::array<int, 32> big{};
  big[31] = 7;
  {
    sim::Simulator simctx;
    SerialServer server{simctx};
    auto action = [probe = Probe{&destroyed}, big, &ran] { ran += big[31]; };
    static_assert(sizeof(action) > sim::EventCallback::kInlineCapacity);
    server.enqueue(sim::Time::us(1.0), [] {});
    // Waits in the ring, moves to the worker slot, runs, and is destroyed
    // when its task finishes.
    server.enqueue(sim::Time::us(1.0), std::move(action));
    EXPECT_EQ(destroyed, 0);
    simctx.run();
    EXPECT_EQ(ran, 7);
    EXPECT_EQ(destroyed, 1);
    // A task still queued when the server dies is destroyed with it, once.
    server.enqueue(sim::Time::us(1.0), [] {});
    server.enqueue(sim::Time::us(1.0),
                   [probe = Probe{&destroyed}, big, &ran] { ran += big[31]; });
  }
  EXPECT_EQ(ran, 7);
  EXPECT_EQ(destroyed, 2);
}

// --- multi-worker (multi-engine NI) behaviour -----------------------------

TEST(SerialServerMultiWorker, TasksOverlapUpToWorkerCount) {
  sim::Simulator simctx;
  SerialServer server{simctx, 2};
  std::vector<std::pair<int, sim::Time>> done;
  for (int i = 0; i < 4; ++i) {
    server.enqueue(sim::Time::us(2.0),
                   [&, i] { done.emplace_back(i, simctx.now()); });
  }
  simctx.run();
  ASSERT_EQ(done.size(), 4u);
  // Pairs complete together: {0,1} at 2us, {2,3} at 4us.
  EXPECT_EQ(done[0].second, sim::Time::us(2.0));
  EXPECT_EQ(done[1].second, sim::Time::us(2.0));
  EXPECT_EQ(done[2].second, sim::Time::us(4.0));
  EXPECT_EQ(done[3].second, sim::Time::us(4.0));
}

TEST(SerialServerMultiWorker, FifoStartOrderPreserved) {
  sim::Simulator simctx;
  SerialServer server{simctx, 3};
  std::vector<int> order;
  // Different durations: starts remain FIFO even though completions
  // reorder.
  server.enqueue(sim::Time::us(5.0), [&] { order.push_back(0); });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(1); });
  server.enqueue(sim::Time::us(3.0), [&] { order.push_back(2); });
  simctx.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(SerialServerMultiWorker, SlotsReusedWhenCompletionsComeOutOfOrder) {
  sim::Simulator simctx;
  SerialServer server{simctx, 3};
  std::vector<std::pair<char, sim::Time>> done;
  const auto task = [&](char c) {
    // A move-only capture: each worker slot holds its own task's state.
    return [&done, &simctx, c = std::make_unique<char>(c)] {
      done.emplace_back(*c, simctx.now());
    };
  };
  // A (5 us), B (1 us) and C (3 us) take the three slots. B's slot frees
  // first and runs D then E while A and C still run; at 4 us F and G take
  // the slots B and C left, A's frees at 5 us and takes H, and F's takes
  // I at 6 us.
  server.enqueue(sim::Time::us(5.0), task('A'));
  server.enqueue(sim::Time::us(1.0), task('B'));
  server.enqueue(sim::Time::us(3.0), task('C'));
  server.enqueue(sim::Time::us(1.0), task('D'));
  server.enqueue(sim::Time::us(1.0), task('E'));
  simctx.schedule_at(sim::Time::us(4.0), [&] {
    server.enqueue(sim::Time::us(2.0), task('F'));
    server.enqueue(sim::Time::us(2.0), task('G'));
    server.enqueue(sim::Time::us(2.0), task('H'));
    server.enqueue(sim::Time::us(1.0), task('I'));
  });
  simctx.run();
  const std::vector<std::pair<char, sim::Time>> expected{
      {'B', sim::Time::us(1.0)}, {'D', sim::Time::us(2.0)},
      {'C', sim::Time::us(3.0)}, {'E', sim::Time::us(3.0)},
      {'A', sim::Time::us(5.0)}, {'F', sim::Time::us(6.0)},
      {'G', sim::Time::us(6.0)}, {'H', sim::Time::us(7.0)},
      {'I', sim::Time::us(7.0)}};
  EXPECT_EQ(done, expected);
  EXPECT_EQ(server.busy_time(), sim::Time::us(18.0));
  EXPECT_FALSE(server.busy());
}

TEST(SerialServerMultiWorker, BusyTimeSumsAllWorkers) {
  sim::Simulator simctx;
  SerialServer server{simctx, 4};
  for (int i = 0; i < 4; ++i) server.enqueue(sim::Time::us(1.0), [] {});
  simctx.run();
  EXPECT_EQ(server.busy_time(), sim::Time::us(4.0));
}

TEST(SerialServerMultiWorker, SingleWorkerDefaultUnchanged) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  EXPECT_EQ(server.workers(), 1);
}

TEST(SerialServerMultiWorker, RejectsZeroWorkers) {
  sim::Simulator simctx;
  EXPECT_THROW((SerialServer{simctx, 0}), std::invalid_argument);
}

TEST(SerialServerMultiWorker, LowPriorityStillYieldsToNormalLane) {
  sim::Simulator simctx;
  SerialServer server{simctx, 2};
  std::vector<int> order;
  // Saturate both workers, then queue one low and one normal task: the
  // normal one must start first when a worker frees.
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(0); });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(1); });
  server.enqueue_low(sim::Time::us(1.0), [&] { order.push_back(3); });
  server.enqueue(sim::Time::us(0.5), [&] { order.push_back(2); });
  simctx.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_LT(std::find(order.begin(), order.end(), 2) - order.begin(),
            std::find(order.begin(), order.end(), 3) - order.begin());
}

}  // namespace
}  // namespace nimcast::netif
