// Chaos soak: seeded randomized campaigns of (fabric x operation x fault
// schedule) — including mid-stream root kills and link flaps — asserting
// the robustness invariants end to end, plus byte-determinism of every
// campaign across reruns. Registered under the
// `soak` ctest label; NIMCAST_QUICK=1 shrinks the campaign count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fabric.hpp"
#include "harness/chaos.hpp"
#include "harness/testbed.hpp"
#include "network/fault_plan.hpp"
#include "sim/rng.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

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
  // run() already reran every campaign and folded any digest mismatch
  // into violations, so 0 here certifies both the invariants and the
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
  }
}

// The shard arguments survive only for the benchmark in perfbench/; any
// value but (1, 0) asks for the removed sharded engine and must fail
// loudly instead of silently running serial.
TEST(ChaosSoak, CampaignRejectsShardedArguments) {
  const ChaosConfig config;
  for (const auto& [shards, threads] :
       {std::pair{2, 0}, std::pair{2, 2}, std::pair{1, 2}, std::pair{0, 0}}) {
    try {
      (void)ChaosSoak::campaign(config, 0, shards, threads);
      ADD_FAILURE() << "accepted shards=" << shards
                    << " shard_threads=" << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("sharded engine was removed"),
                std::string::npos)
          << e.what();
    }
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

/// The chaos-soak delivery invariants for one traffic op: no duplicate
/// completion, one completion per delivered destination, every reachable
/// destination delivered unless the op failed outright, and an outcome
/// that agrees with the delivery count.
std::vector<std::string> op_violations(const traffic::OpRecord& op) {
  std::vector<std::string> out;
  std::set<topo::HostId> seen;
  for (const auto& [host, at] : op.completions) {
    if (!seen.insert(host).second) {
      out.push_back("duplicate completion at host " + std::to_string(host));
    }
  }
  const std::int32_t delivered = op.delivered_count();
  if (static_cast<std::size_t>(delivered) != op.completions.size()) {
    out.push_back("completions disagree with delivered verdicts");
  }
  for (const auto& st : op.destinations) {
    if (op.outcome != mcast::Outcome::kFailed && st.reachable &&
        !st.delivered) {
      out.push_back("reachable host " + std::to_string(st.host) +
                    " undelivered on a non-failed operation");
    }
  }
  const auto n = static_cast<std::int32_t>(op.destinations.size());
  const bool consistent =
      (op.outcome == mcast::Outcome::kComplete && delivered == n) ||
      (op.outcome == mcast::Outcome::kFailed && delivered == 0) ||
      (op.outcome == mcast::Outcome::kPartial && delivered > 0 &&
       delivered < n);
  if (!consistent) {
    out.push_back(std::string{"outcome "} + mcast::to_string(op.outcome) +
                  " inconsistent with delivered=" + std::to_string(delivered));
  }
  return out;
}

// Traffic under chaos: seeded FIFO and paced mixes of multicasts and
// plain streams sharing one fabric, either under a random link/switch/
// host fault plan that also kills the roots of the first ops mid-run,
// or under 10% loss on reliable NIs. Every op must keep the chaos-soak
// invariants, a lossy mix must still complete, and a rerun must be
// identical.
TEST(ChaosSoak, TrafficMixesUnderFaultsAndLossAreClean) {
  constexpr std::int32_t kHosts = 32;
  const std::int32_t campaigns = soak_campaigns() / 2;
  std::int32_t root_handoffs = 0;
  std::int32_t repairs = 0;
  for (std::int32_t c = 0; c < campaigns; ++c) {
    SCOPED_TRACE("campaign " + std::to_string(c));
    sim::Rng rng{UINT64_C(0x7aff1c) + static_cast<std::uint64_t>(c)};
    const core::Fabric fabric =
        c % 2 == 1 ? core::Fabric::fat_tree(
                         TestbedSpec::make_fat_tree(kHosts).fat_tree)
                   : core::Fabric::irregular(
                         TestbedSpec::make_irregular(kHosts).irregular, rng);
    traffic::WorkloadConfig wcfg;
    wcfg.num_ops = 12;
    wcfg.ops_per_ms = 40.0;
    wcfg.min_group = 3;
    wcfg.max_group = 12;
    wcfg.stream_fraction = 0.3;
    wcfg.collective_fraction = 0.0;
    wcfg.churn_probability = 0.0;
    wcfg.seed = rng.next_u64();
    const traffic::Workload mix =
        traffic::generate_workload(kHosts, fabric.chain(), wcfg);

    traffic::TrafficConfig cfg;
    cfg.scheduler.policy =
        c % 4 < 2 ? traffic::Policy::kFifo : traffic::Policy::kPaced;
    const bool lossy = c % 3 == 2;
    if (lossy) {
      cfg.network.loss_rate = 0.1;
      cfg.style = mcast::NiStyle::kReliableFpfs;
    } else {
      net::FaultPlan::RandomConfig fr;
      fr.link_fail_prob = 0.08;
      fr.switch_fail_prob = 0.02;
      fr.host_fail_prob = 0.04;
      fr.window_start = sim::Time::us(1.0);
      fr.window_end = sim::Time::us(150.0);
      cfg.network.faults = net::FaultPlan::random(
          fabric.topology().switches(), kHosts, fr, rng);
      for (std::size_t op = 0; op < 3; ++op) {
        cfg.network.faults.host_down(
            mix.ops[op].arrival +
                sim::Time::us(static_cast<double>(rng.next_in(5, 80))),
            mix.ops[op].tree.root);
      }
    }
    const traffic::TrafficEngine engine{fabric.topology(), fabric.routes(),
                                        cfg};
    traffic::TrafficResult r;
    ASSERT_NO_THROW(r = engine.run(mix));
    for (std::size_t op = 0; op < r.ops.size(); ++op) {
      for (const auto& v : op_violations(r.ops[op])) {
        ADD_FAILURE() << "op " << op << ": " << v;
      }
      if (lossy) {
        EXPECT_EQ(r.ops[op].outcome, mcast::Outcome::kComplete);
      }
      root_handoffs += r.ops[op].root_handoffs;
      repairs += r.ops[op].repairs;
    }
    const traffic::TrafficResult again = engine.run(mix);
    EXPECT_EQ(again.digest, r.digest);
    EXPECT_EQ(again.events_dispatched, r.events_dispatched);
    ASSERT_EQ(again.ops.size(), r.ops.size());
    for (std::size_t op = 0; op < r.ops.size(); ++op) {
      EXPECT_EQ(again.ops[op].outcome, r.ops[op].outcome) << "op " << op;
      EXPECT_EQ(again.ops[op].completions, r.ops[op].completions);
    }
  }
  // The campaigns must actually exercise repair and root fail-over.
  EXPECT_GT(repairs, 0);
  EXPECT_GT(root_handoffs, 0);
}

}  // namespace
}  // namespace nimcast::harness
