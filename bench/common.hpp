#pragma once

// Shared scaffolding for the figure-regeneration benches. Each bench
// binary reproduces one table/figure of the paper, prints it in the
// harness::Table format, optionally writes CSV next to the binary, and
// self-checks the qualitative *shape* the paper reports (who wins, how
// trends move). A failed shape check exits non-zero so CI catches drift.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fabric.hpp"
#include "core/rotation.hpp"
#include "harness/report.hpp"
#include "harness/testbed.hpp"
#include "sim/event_queue.hpp"

namespace nimcast::bench {

/// The paper's evaluation rig (Section 5.2): 64 hosts, 16 eight-port
/// switches, 10 random topologies x 30 random destination sets, default
/// system parameters. NIMCAST_QUICK=1 shrinks repetitions for smoke runs.
inline harness::TestbedSpec paper_testbed_config() {
  harness::TestbedSpec cfg;
  if (std::getenv("NIMCAST_QUICK") != nullptr) {
    cfg.num_topologies = 2;
    cfg.sets_per_topology = 5;
  }
  return cfg;
}

/// One random topology of the paper's 64-host, 16-switch rig, drawn from
/// a fresh generator seeded with `seed`.
inline core::Fabric paper_fabric(std::uint64_t seed) {
  sim::Rng rng{seed};
  return core::Fabric::irregular(topo::IrregularConfig{}, rng);
}

/// Atomic so shape checks may run from testbed worker threads.
inline std::atomic<int> g_shape_failures{0};

/// Records a qualitative expectation from the paper's figure. Prints and
/// counts failures instead of aborting so the full table still appears.
inline void expect_shape(bool ok, const std::string& what) {
  if (!ok) {
    g_shape_failures.fetch_add(1, std::memory_order_relaxed);
    std::printf("SHAPE-CHECK FAILED: %s\n", what.c_str());
  }
}

/// Call at the end of main().
inline int finish(const char* bench_name) {
  const int failures = g_shape_failures.load(std::memory_order_relaxed);
  if (failures == 0) {
    std::printf("\n[%s] all shape checks passed\n", bench_name);
    return 0;
  }
  std::printf("\n[%s] %d shape check(s) FAILED\n", bench_name, failures);
  return 1;
}

// ---------------------------------------------------------------------------
// Event-core churn microbench: a simulator-shaped loop keeping `depth`
// events pending; each fired event reschedules itself ahead, and every
// fourth event also schedules-then-cancels a retry timer (the reliable_ni
// pattern that exercises cancellation). bench_sim_core_throughput runs it
// on sim::EventQueue and on the frozen seed queue below (events/sec and
// speedup); bench_scale runs it on the frozen seed queue only, as a
// machine-speed probe that normalizes recorded baselines to the current
// box before gating — a probe that ran the queue under test would move
// the gate with every event-core change.

struct ChurnResult {
  double events_per_sec = 0.0;
  std::uint64_t checksum = 0;  // defeats dead-code elimination
};

template <typename Queue, typename Schedule, typename Cancel, typename Pop>
ChurnResult churn(Queue& q, std::uint64_t total_events, int depth,
                  Schedule schedule, Cancel cancel, Pop pop) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t checksum = 0;
  std::uint64_t fired = 0;
  std::uint64_t t = 0;
  for (int i = 0; i < depth; ++i) {
    const std::uint64_t offset = 17 * (static_cast<std::uint64_t>(i) + 1);
    schedule(q, sim::Time::ns(static_cast<sim::Time::rep>(t + offset)),
             [&checksum, i] { checksum += static_cast<std::uint64_t>(i); });
  }
  const auto start = Clock::now();
  while (fired < total_events) {
    auto [when, cb] = pop(q);
    cb();
    ++fired;
    t = static_cast<std::uint64_t>(when.count_ns());
    // Reschedule ahead; the delta pattern produces frequent time ties so
    // the FIFO tie-break path is exercised too.
    const std::uint64_t delta = 13 + (fired * 7) % 64;
    schedule(q, sim::Time::ns(static_cast<sim::Time::rep>(t + delta)),
             [&checksum, fired] { checksum += fired; });
    if (fired % 4 == 0) {
      auto id = schedule(
          q, sim::Time::ns(static_cast<sim::Time::rep>(t + 100000)),
          [&checksum] { checksum += 1; });
      cancel(q, id);
    }
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return ChurnResult{static_cast<double>(fired) / (elapsed_ms / 1000.0),
                     checksum};
}

/// The seed's event queue, kept verbatim: the events/sec baseline and the
/// machine-speed probe. Frozen — never optimize it.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  std::uint64_t schedule(sim::Time when, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{when, seq});
    callbacks_.emplace(seq, std::move(cb));
    return seq;
  }

  bool cancel(std::uint64_t seq) { return callbacks_.erase(seq) > 0; }

  [[nodiscard]] bool empty() const { return callbacks_.empty(); }

  std::pair<sim::Time, Callback> pop() {
    while (!callbacks_.contains(heap_.top().seq)) heap_.pop();
    const Entry top = heap_.top();
    heap_.pop();
    auto it = callbacks_.find(top.seq);
    std::pair<sim::Time, Callback> fired{top.time, std::move(it->second)};
    callbacks_.erase(it);
    return fired;
  }

 private:
  struct Entry {
    sim::Time time;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<std::uint64_t, Callback> callbacks_;
  std::uint64_t next_seq_ = 1;
};

inline ChurnResult churn_legacy(std::uint64_t total_events, int depth) {
  LegacyEventQueue q;
  return churn(
      q, total_events, depth,
      [](LegacyEventQueue& qq, sim::Time when, auto cb) {
        return qq.schedule(when, std::move(cb));
      },
      [](LegacyEventQueue& qq, std::uint64_t id) { return qq.cancel(id); },
      [](LegacyEventQueue& qq) { return qq.pop(); });
}

inline ChurnResult churn_new(std::uint64_t total_events, int depth) {
  sim::EventQueue q;
  q.reserve(static_cast<std::size_t>(depth) + 2);
  return churn(
      q, total_events, depth,
      [](sim::EventQueue& qq, sim::Time when, auto cb) {
        return qq.schedule(when, std::move(cb));
      },
      [](sim::EventQueue& qq, sim::EventId id) { return qq.cancel(id); },
      [](sim::EventQueue& qq) {
        auto fired = qq.pop();
        return std::pair<sim::Time, sim::EventQueue::Fired>{
            fired.time, std::move(fired)};
      });
}

/// JSON object describing a rotation set's measured channel overlap —
/// how decorrelated the planner actually got the member trees. Fixed
/// formatting so bench JSON stays byte-identical across runs.
inline std::string overlap_json(const core::RotationPlan& plan) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"rotation_requested\": %d, \"rotation_planned\": %d, "
                "\"overlap_mean\": %.6f, \"overlap_max\": %.6f}",
                plan.requested, plan.size(), plan.overlap_mean(),
                plan.overlap_max());
  return std::string{buf};
}

/// Short git revision for bench JSON provenance ("unknown" off-repo).
inline std::string git_rev() {
  std::string rev = "unknown";
  if (FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (fgets(buf, sizeof(buf), pipe) != nullptr) {
      rev = buf;
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
    }
    pclose(pipe);
    if (rev.empty()) rev = "unknown";
  }
  return rev;
}

}  // namespace nimcast::bench
