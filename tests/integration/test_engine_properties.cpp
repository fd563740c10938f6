// Parameterized property sweep of the full multicast engine on a
// single-switch (star) system, where contention is provably absent for
// tree traffic (each node has one parent, so no two worms ever share an
// injection or ejection channel at overlapping times given the NI's
// send serialization). Properties hold for every (n, m, k, style).

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/latency_model.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "mcast/multicast_engine.hpp"
#include "mcast/step_model.hpp"
#include "routing/up_down.hpp"

namespace nimcast {
namespace {

using Params = std::tuple<std::int32_t, std::int32_t, std::int32_t,
                          mcast::NiStyle>;  // n, m, k, style

class EngineSweep : public ::testing::TestWithParam<Params> {
 protected:
  static constexpr std::int32_t kHosts = 24;

  EngineSweep()
      : topology_{topo::Graph{1, {}},
                  std::vector<topo::SwitchId>(kHosts, 0), "star"},
        router_{topology_.switches()},
        routes_{topology_, router_} {}

  mcast::MulticastResult run(std::int32_t n, std::int32_t m, std::int32_t k,
                             mcast::NiStyle style,
                             bool reverse_hosts = false) const {
    core::Chain order;
    for (std::int32_t i = 0; i < n; ++i) {
      order.push_back(reverse_hosts ? kHosts - 1 - i : i);
    }
    const auto tree = core::HostTree::bind(core::make_kbinomial(n, k), order);
    const mcast::MulticastEngine engine{
        topology_, routes_,
        mcast::MulticastEngine::Config{netif::SystemParams{},
                                       net::NetworkConfig{}, style}};
    return engine.run(tree, m);
  }

  topo::Topology topology_;
  routing::UpDownRouter router_;
  routing::RouteTable routes_;
};

TEST_P(EngineSweep, CompletesEveryDestinationExactlyOnceWithoutContention) {
  const auto [n, m, k, style] = GetParam();
  const auto result = run(n, m, k, style);
  EXPECT_EQ(result.completions.size(), static_cast<std::size_t>(n - 1));
  std::set<topo::HostId> seen;
  for (const auto& [h, t] : result.completions) {
    EXPECT_TRUE(seen.insert(h).second) << "host completed twice";
    EXPECT_GT(t, sim::Time::zero());
    EXPECT_LE(t, result.latency);
  }
  EXPECT_EQ(result.packets_delivered,
            static_cast<std::int64_t>(n - 1) * m);
  // Tree traffic on one switch never blocks (see header comment).
  EXPECT_EQ(result.total_channel_block_time, sim::Time::zero());
}

TEST_P(EngineSweep, LatencyWithinAnalyticBounds) {
  const auto [n, m, k, style] = GetParam();
  if (style == mcast::NiStyle::kConventional) return;
  const auto result = run(n, m, k, style);
  const netif::SystemParams p;
  const net::NetworkConfig netcfg;
  const sim::Time net_time = netcfg.t_hop * 2 + netcfg.serialization_time();
  const sim::Time t_step = p.t_snd + net_time + p.t_rcv;
  const auto tree = core::make_kbinomial(n, k);
  const auto discipline = style == mcast::NiStyle::kSmartFpfs
                              ? mcast::Discipline::kFpfs
                              : mcast::Discipline::kFcfs;
  const auto steps = mcast::step_schedule(tree, m, discipline).total_steps;
  // Upper bound: the fully synchronous step model (no overlap at all).
  EXPECT_LE(result.latency,
            p.t_s + t_step * steps + p.t_r + sim::Time::us(0.001));
  // Lower bound: the first packet must cross every tree level and the
  // source must emit every copy of the first packet serially.
  const auto depth = tree.steps_to_complete();
  EXPECT_GE(result.latency,
            p.t_s + (p.t_snd + net_time + p.t_rcv) +
                p.t_snd * (depth > 1 ? 1 : 0) + p.t_r);
  (void)depth;
}

TEST_P(EngineSweep, MorePacketsNeverFaster) {
  const auto [n, m, k, style] = GetParam();
  if (m == 1) return;
  const auto less = run(n, m - 1, k, style);
  const auto more = run(n, m, k, style);
  EXPECT_GE(more.latency, less.latency);
}

TEST_P(EngineSweep, HostRelabelingInvariance) {
  // The engine must not care which concrete host ids participate when
  // they are topologically equivalent (all on one switch).
  const auto [n, m, k, style] = GetParam();
  const auto fwd = run(n, m, k, style, false);
  const auto rev = run(n, m, k, style, true);
  EXPECT_EQ(fwd.latency, rev.latency);
  EXPECT_EQ(fwd.ni_latency, rev.ni_latency);
}

TEST_P(EngineSweep, BufferPeakBounds) {
  const auto [n, m, k, style] = GetParam();
  const auto result = run(n, m, k, style);
  // No NI ever buffers more than the whole message.
  EXPECT_LE(result.peak_buffer(), static_cast<double>(m));
  if (style == mcast::NiStyle::kSmartFcfs && n > 2 &&
      core::make_kbinomial(n, k).max_children() >= 2 && m >= 2) {
    // Some fan-out node buffered the entire message under FCFS — unless
    // only the source fans out (its buffer also holds all m).
    EXPECT_EQ(result.peak_buffer(), static_cast<double>(m));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweep,
    ::testing::Combine(::testing::Values(2, 5, 8, 16, 24),   // n
                       ::testing::Values(1, 3, 8),            // m
                       ::testing::Values(1, 2, 4),            // k
                       ::testing::Values(mcast::NiStyle::kSmartFpfs,
                                         mcast::NiStyle::kSmartFcfs,
                                         mcast::NiStyle::kConventional)),
    [](const ::testing::TestParamInfo<Params>& pinfo) {
      // Note: no structured bindings here — commas inside [] would split
      // the macro arguments.
      const std::string style_name = mcast::to_string(std::get<3>(pinfo.param));
      std::string tag = style_name == "smart-fpfs"
                            ? "fpfs"
                            : (style_name == "smart-fcfs" ? "fcfs" : "conv");
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_m";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_k";
      name += std::to_string(std::get<2>(pinfo.param));
      name += "_";
      name += tag;
      return name;
    });

}  // namespace
}  // namespace nimcast
