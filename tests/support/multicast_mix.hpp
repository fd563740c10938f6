#pragma once

// The paper's "multiple multicast" workload as a traffic mix: one plain
// multicast op per (tree, packets, start), run on a FIFO
// traffic::TrafficEngine, which launches every op at its start.

#include <cstdint>
#include <vector>

#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "sim/sim_time.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace nimcast::test {

struct Multicast {
  core::HostTree tree;
  std::int32_t packets = 1;
  sim::Time start = sim::Time::zero();
};

inline traffic::Workload multicast_mix(const std::vector<Multicast>& ops) {
  traffic::Workload workload;
  for (const Multicast& m : ops) {
    traffic::TrafficOp& op = workload.ops.emplace_back();
    op.arrival = m.start;
    op.tree = m.tree;
    op.packets = m.packets;
  }
  return workload;
}

inline traffic::TrafficConfig fifo_config(
    mcast::NiStyle style = mcast::NiStyle::kSmartFpfs) {
  traffic::TrafficConfig config;
  config.scheduler.policy = traffic::Policy::kFifo;
  config.style = style;
  return config;
}

}  // namespace nimcast::test
