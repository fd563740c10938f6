#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace nimcast::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::us(3.0), [&] { fired.push_back(3); });
  q.schedule(Time::us(1.0), [&] { fired.push_back(1); });
  q.schedule(Time::us(2.0), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::us(5.0), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(Time::us(7.0), [] {});
  q.schedule(Time::us(4.0), [] {});
  EXPECT_EQ(q.next_time(), Time::us(4.0));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(Time::us(1.0), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(Time::us(1.0), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledEventSkippedByNextTime) {
  EventQueue q;
  const EventId early = q.schedule(Time::us(1.0), [] {});
  q.schedule(Time::us(2.0), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Time::us(2.0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReturnsTimeAndCallback) {
  EventQueue q;
  int hits = 0;
  q.schedule(Time::us(9.0), [&] { ++hits; });
  auto fired = q.pop();
  EXPECT_EQ(fired.time, Time::us(9.0));
  fired();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, ManyInterleavedScheduleCancel) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        q.schedule(Time::us(static_cast<double>(i)), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, 50);
}

TEST(EventQueue, CancelFreesSlotImmediately) {
  // Regression: the seed implementation kept cancelled heap entries
  // queued until popped, so schedule/cancel churn (retry timers in
  // reliable_ni) grew the queue unboundedly within a run. The slab must
  // recycle the slot at cancel time.
  EventQueue q;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = q.schedule(Time::us(1e6), [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // One live event at a time -> one slot, ever.
  EXPECT_EQ(q.slot_capacity(), 1u);
  // The recurring delay rides a lane; each cancel drops the lane's tail
  // at once, so the lane never outgrows its first ring.
  EXPECT_LE(q.lane_capacity(), 8u);
}

TEST(EventQueue, ChurnWithPendingFloorKeepsSlabBounded) {
  EventQueue q;
  std::vector<EventId> pending;
  for (int i = 0; i < 64; ++i) {
    pending.push_back(q.schedule(Time::us(static_cast<double>(i)), [] {}));
  }
  for (int round = 0; round < 10'000; ++round) {
    const EventId id =
        q.schedule(Time::us(1000.0 + static_cast<double>(round)), [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 64u);
  EXPECT_LE(q.slot_capacity(), 65u);
  // Every delay here occurs once: none earns a lane.
  EXPECT_EQ(q.lane_capacity(), 0u);
  for (const EventId id : pending) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdFromRecycledSlotIsRejected) {
  EventQueue q;
  const EventId first = q.schedule(Time::us(1.0), [] {});
  ASSERT_TRUE(q.cancel(first));
  // The slot is recycled for the next event; the old id must stay dead.
  const EventId second = q.schedule(Time::us(2.0), [] {});
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, LargeCallbackRoundTrips) {
  // Callables beyond the inline small-buffer go to the queue's pool;
  // behaviour must be identical.
  EventQueue q;
  std::array<std::uint64_t, 32> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  static_assert(sizeof(payload) > EventCallback::kInlineCapacity);
  std::uint64_t got = 0;
  q.schedule(Time::us(1.0), [payload, &got] {
    for (const std::uint64_t v : payload) got += v;
  });
  q.pop()();
  EXPECT_EQ(got, 32u * 33u / 2u);

  // Cancelled oversize callbacks release their pool chunk cleanly.
  const EventId id = q.schedule(Time::us(1.0), [payload, &got] {
    got += payload[0];
  });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReserveDoesNotDisturbPending) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.schedule(Time::us(static_cast<double>(8 - i)), [&fired, i] {
      fired.push_back(i);
    });
  }
  q.reserve(1024);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(EventQueue, FuzzAgainstMultimapModel) {
  // Random schedule/cancel/pop interleavings checked against a
  // std::multimap reference ordered by (time, insertion order) — the
  // documented FIFO tie-break for same-time events.
  using Key = std::pair<Time::rep, std::uint64_t>;
  Rng rng{20260806};
  EventQueue q;
  std::multimap<Key, int> model;
  struct Live {
    EventId id;
    Key key;
  };
  std::vector<Live> live;
  int next_tag = 0;
  std::vector<int> fired;
  std::uint64_t order = 0;

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 5 || live.empty()) {
      // Schedule. A small time range forces frequent same-time ties.
      const auto t = static_cast<Time::rep>(rng.next_below(64));
      const int tag = next_tag++;
      const Key key{t, order++};
      const EventId id =
          q.schedule(Time::ns(t), [tag, &fired] { fired.push_back(tag); });
      model.emplace(key, tag);
      live.push_back(Live{id, key});
    } else if (op < 7) {
      // Cancel a random live event.
      const std::size_t pick = rng.next_below(live.size());
      ASSERT_TRUE(q.cancel(live[pick].id));
      ASSERT_FALSE(q.cancel(live[pick].id)) << "double cancel succeeded";
      auto [lo, hi] = model.equal_range(live[pick].key);
      ASSERT_TRUE(lo != hi);
      model.erase(lo);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Pop the earliest; must match the model's front exactly.
      ASSERT_EQ(q.size(), model.size());
      auto front = model.begin();
      auto fired_event = q.pop();
      ASSERT_EQ(fired_event.time, Time::ns(front->first.first));
      const std::size_t before = fired.size();
      fired_event();
      ASSERT_EQ(fired.size(), before + 1);
      ASSERT_EQ(fired.back(), front->second);
      const Key popped_key = front->first;
      model.erase(front);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].key == popped_key) {
          // Popped ids must be dead for cancellation.
          EXPECT_FALSE(q.cancel(live[i].id));
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  // Drain what's left; order must match the model exactly.
  while (!model.empty()) {
    ASSERT_EQ(q.size(), model.size());
    auto front = model.begin();
    auto fired_event = q.pop();
    ASSERT_EQ(fired_event.time, Time::ns(front->first.first));
    fired_event();
    ASSERT_EQ(fired.back(), front->second);
    model.erase(front);
  }
  EXPECT_TRUE(q.empty());
}

/// A typed event that appends its tag to the vector it targets.
void push_tag(void* fired, std::uint64_t tag) {
  static_cast<std::vector<int>*>(fired)->push_back(static_cast<int>(tag));
}

// Simulator-shaped interleavings: pop the earliest event, then schedule
// at now plus a delay drawn mostly from a few fixed costs (delay lanes)
// and sometimes at random (heap), cancel lane heads, middles and tails,
// and replay a reserved FIFO key at distinct times the way a
// coordinator chain does. Checked against a std::multimap ordered by
// the full (time, order) firing key. With `mixed`, every other plain
// event is a typed one, so typed and generic events share lanes, heap
// and same-time FIFO runs.
void lane_fuzz(std::uint64_t seed, bool mixed) {
  using Key = std::tuple<Time::rep, std::uint64_t>;
  constexpr std::array<Time::rep, 5> kFixed{100, 500, 2000, 3000, 12500};
  Rng rng{seed};
  EventQueue q;
  std::multimap<Key, int> model;
  struct Live {
    EventId id;
    Key key;
  };
  std::vector<Live> live;  // in schedule order
  std::vector<int> fired;
  std::uint64_t counter = 1;  // mirrors the queue's insertion counter
  Time::rep now = 0;
  int next_tag = 0;
  std::uint64_t chain_key = 0;
  bool chain_pending = false;
  std::size_t peak = 0;

  const auto erase_live = [&](const Key& key) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].key == key) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "key not live";
  };
  const auto schedule = [&](Time::rep when) {
    const int tag = next_tag++;
    const Key key{when, counter++};
    const EventId id =
        mixed && tag % 2 == 1
            ? q.schedule(Time::ns(when), &push_tag, &fired,
                         static_cast<std::uint64_t>(tag), EventKind::kNetwork)
            : q.schedule(Time::ns(when),
                         [tag, &fired] { fired.push_back(tag); });
    model.emplace(key, tag);
    live.push_back(Live{id, key});
  };
  const auto cancel_at = [&](std::size_t pick) {
    const Live victim = live[pick];
    ASSERT_TRUE(q.cancel(victim.id));
    ASSERT_FALSE(q.cancel(victim.id)) << "double cancel succeeded";
    auto it = model.find(victim.key);
    ASSERT_TRUE(it != model.end());
    model.erase(it);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    if (std::get<1>(victim.key) == chain_key) chain_pending = false;
  };

  for (int step = 0; step < 40'000; ++step) {
    if (!model.empty()) {
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.next_time(), Time::ns(std::get<0>(model.begin()->first)));
      const auto front = model.begin();
      auto ev = q.pop();
      ASSERT_EQ(ev.time, Time::ns(std::get<0>(front->first)));
      ASSERT_EQ(ev.order, std::get<1>(front->first));
      ev();
      ASSERT_EQ(fired.back(), front->second);
      now = std::get<0>(front->first);
      if (ev.order == chain_key) chain_pending = false;
      const Key key = front->first;
      model.erase(front);
      erase_live(key);
    }
    // Keep the pending depth wandering between ~50 and ~400.
    const std::uint64_t want =
        model.size() < 50 ? 3 : (model.size() > 400 ? 0 : rng.next_below(3));
    for (std::uint64_t k = 0; k < want; ++k) {
      const std::uint64_t roll = rng.next_below(20);
      Time::rep delay = kFixed[rng.next_below(kFixed.size())];
      if (roll == 0) {
        delay = 0;
      } else if (roll < 4) {
        delay = static_cast<Time::rep>(rng.next_below(20'000));
      }
      schedule(now + delay);
    }
    if (!chain_pending && rng.next_below(8) == 0) {
      // Coordinator chain: one reserved key replayed at successive times.
      if (chain_key == 0 || rng.next_below(4) == 0) {
        chain_key = q.reserve_order();
        ASSERT_EQ(chain_key, counter++);
      }
      const Time::rep when =
          now + static_cast<Time::rep>(rng.next_below(4)) * 500;
      const int tag = next_tag++;
      const Key key{when, chain_key};
      const EventId id = q.schedule_keyed(
          Time::ns(when), chain_key, [tag, &fired] { fired.push_back(tag); });
      model.emplace(key, tag);
      live.push_back(Live{id, key});
      chain_pending = true;
    }
    if (!live.empty() && rng.next_below(4) == 0) {
      switch (rng.next_below(3)) {
        case 0:  // the newest event: a lane's tail
          cancel_at(live.size() - 1);
          break;
        case 1: {  // the earliest event: a lane's head
          const Key first = model.begin()->first;
          for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].key == first) {
              cancel_at(i);
              break;
            }
          }
          break;
        }
        default:  // anywhere, mostly mid-lane
          cancel_at(rng.next_below(live.size()));
          break;
      }
    }
    peak = std::max(peak, model.size());
  }

  while (!model.empty()) {
    ASSERT_EQ(q.size(), model.size());
    const auto front = model.begin();
    auto ev = q.pop();
    ASSERT_EQ(ev.time, Time::ns(std::get<0>(front->first)));
    ASSERT_EQ(ev.order, std::get<1>(front->first));
    ev();
    ASSERT_EQ(fired.back(), front->second);
    model.erase(front);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.slot_capacity(), peak + 4);
}

TEST(EventQueue, LaneFuzzAgainstMultimapModel) { lane_fuzz(20261017, false); }

TEST(EventQueue, TypedAndGenericFuzzAgainstMultimapModel) {
  lane_fuzz(20261020, true);
}

TEST(EventQueue, RetryTimerChurnKeepsLaneStorageBounded) {
  // The reliable NI's pattern: every send arms a retransmit timer one RTO
  // ahead and the acks cancel nearly all of them long before they fire —
  // the newest at once (a lane's tail), older ones from mid-lane. An RTO
  // window here spans ~80k armed timers; lane storage must track the
  // ~64 live ones, not everything cancelled since the oldest.
  constexpr Time::rep kHop = 100;
  constexpr Time::rep kRto = 1'000'000;
  constexpr std::size_t kLiveTimers = 64;
  Rng rng{7};
  EventQueue q;
  bool traffic = false;
  for (int i = 0; i < 8; ++i) {
    q.schedule(Time::ns(kHop), [&traffic] { traffic = true; });
  }
  std::vector<EventId> timers;
  std::size_t capacity_after_warmup = 0;
  for (int step = 0; step < 200'000; ++step) {
    traffic = false;
    auto ev = q.pop();
    ev();
    ASSERT_TRUE(traffic) << "a retransmit timer fired";
    const Time now = ev.time;
    q.schedule(now + Time::ns(kHop), [&traffic] { traffic = true; });
    timers.push_back(q.schedule(now + Time::ns(kRto), [] {}));
    if (rng.next_below(4) == 0) {
      ASSERT_TRUE(q.cancel(timers.back()));
      timers.pop_back();
    } else if (timers.size() > kLiveTimers) {
      const std::size_t pick = rng.next_below(timers.size() - 1);
      ASSERT_TRUE(q.cancel(timers[pick]));
      timers[pick] = timers.back();
      timers.pop_back();
    }
    if (step == 20'000) capacity_after_warmup = q.lane_capacity();
  }
  EXPECT_EQ(q.size(), 8 + timers.size());
  EXPECT_LE(q.slot_capacity(), 8 + kLiveTimers + 2);
  // Dead entries never outnumber live ones in a lane, so each ring holds
  // at most ~2x its live events, rounded up to a power of two.
  EXPECT_LE(q.lane_capacity(), 8 * (8 + kLiveTimers));
  EXPECT_EQ(q.lane_capacity(), capacity_after_warmup);
  for (const EventId id : timers) EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 8u);
}

TEST(EventQueue, DrainedLaneIsHandedToANewDelay) {
  // Occupy every lane the queue will create with far-future delays, then
  // show (1) a further recurring delay finds no lane while they are busy,
  // and (2) it gets one — in order — once they drain.
  EventQueue q;
  std::vector<EventId> parked;
  for (Time::rep d = 0; d < 64; ++d) {
    for (int twice = 0; twice < 2; ++twice) {
      parked.push_back(q.schedule(Time::ns(1'000'000 + d), [] {}));
    }
  }
  const std::size_t occupied = q.lane_capacity();
  ASSERT_GT(occupied, 0u);

  // All lanes busy: the new delay stays on the heap, lane storage is flat.
  std::vector<int> fired;
  for (int i = 0; i < 40; ++i) {
    q.schedule(Time::ns(10), [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(q.lane_capacity(), occupied);
  for (int i = 0; i < 40; ++i) q.pop()();
  EXPECT_EQ(fired.size(), 40u);

  // Drain every lane; a new recurring delay now takes one over, and its
  // 40 events grow that lane's ring past the 8 entries it started with.
  for (const EventId id : parked) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  fired.clear();
  for (int i = 0; i < 40; ++i) {
    q.schedule(Time::ns(10 + 777), [&fired, i] { fired.push_back(i); });
  }
  EXPECT_GT(q.lane_capacity(), occupied);
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, TypedEventRoundTrips) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::us(2.0), [&fired] { fired.push_back(2); });
  q.schedule(Time::us(1.0), &push_tag, &fired, 1, EventKind::kNi);
  auto first = q.pop();
  EXPECT_EQ(first.time, Time::us(1.0));
  EXPECT_EQ(first.kind, EventKind::kNi);
  EXPECT_EQ(first.target, &fired);
  EXPECT_EQ(first.arg, 1u);
  first();
  auto second = q.pop();
  EXPECT_EQ(second.kind, EventKind::kGeneric);
  second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, TypedEventCancelsAtLaneHeadMiddleAndTail) {
  // Seven typed events at one instant: the first takes the heap, the
  // rest share the lane of their delay. Cancel the lane's head (tag 1),
  // a middle entry (tag 3) and its tail (tag 6).
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int tag = 0; tag < 7; ++tag) {
    ids.push_back(q.schedule(Time::ns(100), &push_tag, &fired,
                             static_cast<std::uint64_t>(tag),
                             EventKind::kNetwork));
  }
  ASSERT_GT(q.lane_capacity(), 0u);
  for (const int tag : {1, 3, 6}) {
    EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(tag)]));
    EXPECT_FALSE(q.cancel(ids[static_cast<std::size_t>(tag)]));
  }
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 4, 5}));
  EXPECT_EQ(q.callback_capacity(), 0u) << "typed events use no side store";
}

TEST(EventQueue, PoppedGenericEventsReturnTheirStorageUninvoked) {
  // Popping without invoking is how benchmarks and tests drain a queue:
  // the popped event owns its callback and frees it when dropped, so
  // neither the slots nor the side store nor the pool grow, and a
  // capture's destructor runs exactly once.
  EventQueue q;
  const auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 16> big{};
  static_assert(sizeof(big) > EventCallback::kInlineCapacity);
  Time now = Time::zero();
  for (int i = 0; i < 8; ++i) q.schedule(Time::ns(100 + i), [token] {});
  for (int step = 0; step < 100'000; ++step) {
    {
      auto ev = q.pop();
      now = ev.time;
      EXPECT_EQ(ev.kind, EventKind::kGeneric);
    }
    if (step % 2 == 0) {
      q.schedule(now + Time::ns(100), [token] {});
    } else {
      q.schedule(now + Time::ns(100), [token, big] { (void)big; });
    }
  }
  EXPECT_EQ(q.size(), 8u);
  EXPECT_LE(q.slot_capacity(), 9u);
  EXPECT_LE(q.callback_capacity(), 64u);
  EXPECT_LE(q.pool().bytes_reserved(), std::size_t{64} * 1024);
  EXPECT_EQ(token.use_count(), 9);  // ours + one per pending callback
  while (!q.empty()) q.pop();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace nimcast::sim
