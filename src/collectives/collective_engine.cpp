#include "collectives/collective_engine.hpp"

#include <utility>

#include "traffic/traffic_engine.hpp"

namespace nimcast::collectives {

std::int32_t CollectiveResult::delivered_count() const {
  std::int32_t n = 0;
  for (const auto& p : participants) n += p.delivered ? 1 : 0;
  return n;
}

double CollectiveResult::delivery_ratio() const {
  if (participants.empty()) return 1.0;
  return static_cast<double>(delivered_count()) /
         static_cast<double>(participants.size());
}

std::vector<topo::HostId> CollectiveResult::survivors() const {
  std::vector<topo::HostId> out;
  for (const auto& p : participants) {
    if (p.reachable) out.push_back(p.host);
  }
  return out;
}

CollectiveResult CollectiveEngine::run(CollectiveKind kind,
                                       const core::HostTree& tree,
                                       std::int32_t m) const {
  traffic::Workload workload;
  traffic::TrafficOp& op = workload.ops.emplace_back();
  op.cls = traffic::OpClass::kCollective;
  op.kind = kind;
  op.tree = tree;
  op.packets = m;
  traffic::TrafficConfig tcfg{config_.params, config_.network, {},
                              mcast::NiStyle::kSmartFpfs, {}, config_.repair};
  tcfg.scheduler.policy = traffic::Policy::kFifo;
  traffic::TrafficResult r =
      traffic::TrafficEngine{topology_, routes_, tcfg, trace_}.run(workload);

  traffic::OpRecord& rec = r.ops.front();
  CollectiveResult result;
  result.latency = rec.fct();
  result.completions = std::move(rec.completions);
  result.packets_injected = rec.packets_delivered;
  result.total_channel_block_time = r.total_channel_block_time;
  result.peak_ni_buffer = r.peak_buffer();
  result.outcome = rec.outcome;
  result.repairs = rec.repairs;
  result.root_handoffs = rec.root_handoffs;
  result.effective_root = rec.effective_root;
  // Fault-free runs keep no per-participant bookkeeping.
  if (config_.network.faults.empty()) return result;
  result.participants = std::move(rec.destinations);
  result.contributors = std::move(rec.contributors);
  result.faults_applied = r.faults_applied;
  result.route_epoch = r.route_epoch;
  result.root_alive = rec.root_alive;
  return result;
}

}  // namespace nimcast::collectives
