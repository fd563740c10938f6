#include "harness/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/testbed.hpp"

namespace nimcast::harness {
namespace {

TEST(ConfiguredThreads, RespectsEnvironment) {
  setenv("NIMCAST_THREADS", "3", 1);
  EXPECT_EQ(configured_threads(), 3);
  setenv("NIMCAST_THREADS", "1", 1);
  EXPECT_EQ(configured_threads(), 1);
  setenv("NIMCAST_THREADS", "bogus", 1);
  EXPECT_GE(configured_threads(), 1);
  unsetenv("NIMCAST_THREADS");
  EXPECT_GE(configured_threads(), 1);
}

TEST(ParallelForEach, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for_each(
        hits.size(),
        [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
        threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForEach, EmptyBatchIsNoop) {
  parallel_for_each(
      0, [](std::size_t) { FAIL() << "job ran"; }, 4);
}

TEST(ParallelForEach, PropagatesExceptions) {
  EXPECT_THROW(parallel_for_each(
                   64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelForEach, ThrowSurfacesOnCallingThreadAfterEveryJobRan) {
  // A replication that throws inside a worker must surface as a normal
  // catchable exception on the calling thread, and only after every
  // other job of the loop has run.
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  bool caught = false;
  try {
    parallel_for_each(
        32,
        [&](std::size_t i) {
          if (i == 7) throw std::logic_error("replication 7 failed");
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        4);
  } catch (const std::logic_error& e) {
    caught = true;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_STREQ(e.what(), "replication 7 failed");
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(ran.load(), 31);
}

TEST(ParallelForEach, FirstErrorWinsOnTheInlinePath) {
  // One thread runs inline in index order, so "first one wins" is
  // deterministic: the earliest throwing index is the one reported.
  try {
    parallel_for_each(
        64,
        [](std::size_t i) {
          if (i == 5 || i == 13) {
            throw std::runtime_error("job " + std::to_string(i));
          }
        },
        1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 5");
  }
}

TEST(ParallelForEach, ExactlyOneOfManyConcurrentErrorsSurvives) {
  // Every job throws; exactly one of those exceptions must surface,
  // intact, and the rest are swallowed.
  try {
    parallel_for_each(
        64,
        [](std::size_t i) {
          throw std::runtime_error("job " + std::to_string(i));
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}.rfind("job ", 0), 0u)
        << "surviving error must be one of the thrown ones, unmangled";
  }
}

TEST(ParallelForEach, SerialFallbackRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_each(
      10, [&](std::size_t i) { order.push_back(i); }, 1);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// --- Determinism contract: parallel testbed == serial testbed, bit for
// bit, for every thread count. ---

TestbedSpec stress_config() {
  TestbedSpec cfg;
  cfg.num_topologies = 3;
  cfg.sets_per_topology = 7;
  cfg.seed = 20260806;
  return cfg;
}

void expect_identical(const sim::Summary& a, const sim::Summary& b) {
  ASSERT_EQ(a.count(), b.count());
  // Exact equality on purpose: the parallel path folds samples in
  // replication order, so there is no floating-point wiggle room.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

void expect_identical(const MeasurePoint& a, const MeasurePoint& b) {
  expect_identical(a.latency_us, b.latency_us);
  expect_identical(a.block_us, b.block_us);
  expect_identical(a.peak_buffer, b.peak_buffer);
  expect_identical(a.buffer_integral, b.buffer_integral);
}

void expect_identical(const StreamingPoint& a, const StreamingPoint& b) {
  expect_identical(a.flits_per_us, b.flits_per_us);
  expect_identical(a.makespan_us, b.makespan_us);
  expect_identical(a.p99_gap_us, b.p99_gap_us);
  expect_identical(a.overlap_mean, b.overlap_mean);
  expect_identical(a.rotation_used, b.rotation_used);
  expect_identical(a.member_imbalance, b.member_imbalance);
  expect_identical(a.telemetry_snapshots, b.telemetry_snapshots);
}

TEST(ParallelTestbed, BitIdenticalAcrossThreadCounts) {
  const Testbed bed{stress_config()};
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> counts{1, 4};
  if (hw > 1) counts.push_back(static_cast<int>(hw));

  for (const std::int32_t n : {8, 24}) {
    for (const auto style :
         {mcast::NiStyle::kSmartFcfs, mcast::NiStyle::kSmartFpfs}) {
      const auto serial =
          bed.measure(n, 4, TreeSpec::optimal(), style,
                      OrderingKind::kCco, /*threads=*/1);
      for (const int threads : counts) {
        const auto parallel = bed.measure(n, 4, TreeSpec::optimal(), style,
                                          OrderingKind::kCco, threads);
        expect_identical(serial, parallel);
      }
    }
  }
}

TEST(ParallelTestbed, RandomOrderingAlsoBitIdentical) {
  // kRandom draws the base chain from the per-replication stream; the
  // parallel path must preserve those draws exactly.
  const Testbed bed{stress_config()};
  const auto serial = bed.measure(12, 2, TreeSpec::binomial(),
                                  mcast::NiStyle::kSmartFpfs,
                                  OrderingKind::kRandom, /*threads=*/1);
  const auto parallel = bed.measure(12, 2, TreeSpec::binomial(),
                                    mcast::NiStyle::kSmartFpfs,
                                    OrderingKind::kRandom, /*threads=*/4);
  expect_identical(serial, parallel);
}

TEST(ParallelTestbed, AdaptiveStreamingIdenticalAcrossThreadCounts) {
  // The adaptive selector scores telemetry snapshots inside each
  // replication; the sweep must fold to the same point serially, on
  // four workers, and on a rerun.
  const Testbed bed{stress_config()};
  const auto sweep = [&bed](int threads) {
    return bed.measure_streaming(/*stream_packets=*/24, /*rotation_trees=*/3,
                                 /*fanout_bound=*/2, threads,
                                 mcast::Selection::kAdaptive);
  };
  const auto serial = sweep(1);
  EXPECT_GT(serial.telemetry_snapshots.sum(), 0.0);  // adaptive engaged
  const auto parallel = sweep(4);
  expect_identical(serial, parallel);
  expect_identical(parallel, sweep(4));
}

TEST(ParallelMeasurePoint, BitIdenticalAcrossThreadCounts) {
  // A 1-topology bed exercises the repetition-level parallel split that
  // measure_point also uses.
  TestbedSpec cfg = stress_config();
  cfg.num_topologies = 1;
  cfg.sets_per_topology = 13;
  const Testbed one{cfg};
  const auto serial = one.measure(16, 3, TreeSpec::kbinomial(2),
                                  mcast::NiStyle::kSmartFpfs,
                                  OrderingKind::kCco, /*threads=*/1);
  for (const int threads : {2, 4, 7}) {
    const auto parallel = one.measure(16, 3, TreeSpec::kbinomial(2),
                                      mcast::NiStyle::kSmartFpfs,
                                      OrderingKind::kCco, threads);
    expect_identical(serial, parallel);
  }
}

class ConfiguredThreadsTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("NIMCAST_THREADS"); }

  static int with_env(const char* value) {
    setenv("NIMCAST_THREADS", value, 1);
    return configured_threads();
  }

  static int fallback() {
    unsetenv("NIMCAST_THREADS");
    return configured_threads();
  }
};

TEST_F(ConfiguredThreadsTest, ValidValuesAreUsedVerbatim) {
  EXPECT_EQ(with_env("1"), 1);
  EXPECT_EQ(with_env("7"), 7);
  EXPECT_EQ(with_env(" 12 "), 12);  // surrounding whitespace tolerated
}

TEST_F(ConfiguredThreadsTest, ZeroAndNegativeFallBackToAuto) {
  const int expected = fallback();
  EXPECT_GE(expected, 1);
  EXPECT_EQ(with_env("0"), expected);
  EXPECT_EQ(with_env("-3"), expected);
}

TEST_F(ConfiguredThreadsTest, NonNumericFallsBackToAuto) {
  const int expected = fallback();
  EXPECT_EQ(with_env(""), expected);
  EXPECT_EQ(with_env("lots"), expected);
  EXPECT_EQ(with_env("4abc"), expected);  // no silent stoi truncation
  EXPECT_EQ(with_env("3.5"), expected);
  EXPECT_EQ(with_env("0x10"), expected);
}

TEST_F(ConfiguredThreadsTest, AbsurdValuesAreClamped) {
  EXPECT_EQ(with_env("100000"), kMaxThreads);
  EXPECT_EQ(with_env("99999999999999999999"), fallback());  // overflow
  EXPECT_EQ(with_env("512"), kMaxThreads);
}

// pick_shards survives only for the benchmark in perfbench/: every
// simulation runs on one serial simulator, whatever the inputs.
TEST(PickShards, IsAlwaysOne) {
  EXPECT_EQ(pick_shards(16, 60, 1), 1);
  EXPECT_EQ(pick_shards(8, 1024, 8), 1);
  EXPECT_EQ(pick_shards(64, 1024, 1), 1);
  EXPECT_EQ(pick_shards(1, 2048, 1), 1);
}

TEST(ParallelTestbed, EnvVariableSelectsThreadCount) {
  // threads=0 defers to NIMCAST_THREADS; both must match the explicit
  // serial result.
  const Testbed bed{stress_config()};
  const auto serial = bed.measure(10, 2, TreeSpec::optimal(),
                                  mcast::NiStyle::kSmartFpfs,
                                  OrderingKind::kCco, /*threads=*/1);
  setenv("NIMCAST_THREADS", "4", 1);
  const auto via_env = bed.measure(10, 2, TreeSpec::optimal(),
                                   mcast::NiStyle::kSmartFpfs,
                                   OrderingKind::kCco, /*threads=*/0);
  unsetenv("NIMCAST_THREADS");
  expect_identical(serial, via_env);
}

}  // namespace
}  // namespace nimcast::harness
