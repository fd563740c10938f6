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

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    WorkerPool pool{threads};
    std::vector<std::atomic<int>> hits(257);
    pool.for_each_index(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, ReusableAcrossBatches) {
  WorkerPool pool{4};
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.for_each_index(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(WorkerPool, EmptyBatchIsNoop) {
  WorkerPool pool{4};
  pool.for_each_index(0, [](std::size_t) { FAIL() << "job ran"; });
}

TEST(WorkerPool, PropagatesExceptions) {
  WorkerPool pool{4};
  EXPECT_THROW(pool.for_each_index(64,
                                   [](std::size_t i) {
                                     if (i == 13) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> ran{0};
  pool.for_each_index(8, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, ThrowSurfacesOnCallingThreadAndPoolDrains) {
  // A replication that throws inside a worker must surface as a normal
  // catchable exception on the thread that called for_each_index, with
  // the batch fully drained before control returns.
  WorkerPool pool{4};
  const auto caller = std::this_thread::get_id();
  bool caught = false;
  try {
    pool.for_each_index(32, [](std::size_t i) {
      if (i == 7) throw std::logic_error("replication 7 failed");
    });
  } catch (const std::logic_error& e) {
    caught = true;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_STREQ(e.what(), "replication 7 failed");
  }
  EXPECT_TRUE(caught);
  // Drained: the very next batch runs to completion on the same pool.
  std::atomic<int> ran{0};
  pool.for_each_index(16, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 16);
}

TEST(WorkerPool, FirstErrorWinsOnTheInlinePath) {
  // threads <= 1 runs inline in index order, so "first one wins" is
  // deterministic: the earliest throwing index is the one reported.
  WorkerPool pool{1};
  try {
    pool.for_each_index(64, [](std::size_t i) {
      if (i == 5 || i == 13) {
        throw std::runtime_error("job " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 5");
  }
}

TEST(WorkerPool, ExactlyOneOfManyConcurrentErrorsSurvives) {
  // Every job throws; exactly one of those exceptions must surface,
  // intact, and the rest are swallowed without corrupting the pool.
  WorkerPool pool{4};
  try {
    pool.for_each_index(64, [](std::size_t i) {
      throw std::runtime_error("job " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}.rfind("job ", 0), 0u)
        << "surviving error must be one of the thrown ones, unmangled";
  }
  std::atomic<int> ran{0};
  pool.for_each_index(8, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelForEach, SerialFallbackRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_each(
      10, [&](std::size_t i) { order.push_back(i); }, 1);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// --- Determinism contract: parallel testbed == serial testbed, bit for
// bit, for every thread count. ---

IrregularTestbed::Config stress_config() {
  IrregularTestbed::Config cfg;
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

TEST(ParallelTestbed, BitIdenticalAcrossThreadCounts) {
  const IrregularTestbed bed{stress_config()};
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
  const IrregularTestbed bed{stress_config()};
  const auto serial = bed.measure(12, 2, TreeSpec::binomial(),
                                  mcast::NiStyle::kSmartFpfs,
                                  OrderingKind::kRandom, /*threads=*/1);
  const auto parallel = bed.measure(12, 2, TreeSpec::binomial(),
                                    mcast::NiStyle::kSmartFpfs,
                                    OrderingKind::kRandom, /*threads=*/4);
  expect_identical(serial, parallel);
}

TEST(ParallelMeasurePoint, BitIdenticalAcrossThreadCounts) {
  // A 1-topology bed exercises the repetition-level parallel split that
  // measure_point also uses.
  IrregularTestbed::Config cfg = stress_config();
  cfg.num_topologies = 1;
  cfg.sets_per_topology = 13;
  const IrregularTestbed one{cfg};
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

class ConfiguredSelectionTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("NIMCAST_SELECTION"); }

  static SelectionOverride with_env(const char* value) {
    setenv("NIMCAST_SELECTION", value, 1);
    return configured_selection();
  }
};

TEST_F(ConfiguredSelectionTest, UnsetKeepsTheConfiguredPolicy) {
  unsetenv("NIMCAST_SELECTION");
  EXPECT_EQ(configured_selection(), SelectionOverride::kUnset);
}

TEST_F(ConfiguredSelectionTest, ParsesTheTwoPolicies) {
  EXPECT_EQ(with_env("static"), SelectionOverride::kStatic);
  EXPECT_EQ(with_env("adaptive"), SelectionOverride::kAdaptive);
  EXPECT_EQ(with_env(" adaptive "), SelectionOverride::kAdaptive);
  EXPECT_EQ(with_env("\tstatic\n"), SelectionOverride::kStatic);
}

TEST_F(ConfiguredSelectionTest, RejectsMalformedValues) {
  EXPECT_EQ(with_env(""), SelectionOverride::kUnset);
  EXPECT_EQ(with_env("Adaptive"), SelectionOverride::kUnset);  // exact match
  EXPECT_EQ(with_env("adaptive extra"), SelectionOverride::kUnset);
  EXPECT_EQ(with_env("adaptivex"), SelectionOverride::kUnset);
  EXPECT_EQ(with_env("1"), SelectionOverride::kUnset);
}

TEST(ParallelTestbed, EnvVariableSelectsThreadCount) {
  // threads=0 defers to NIMCAST_THREADS; both must match the explicit
  // serial result.
  const IrregularTestbed bed{stress_config()};
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
