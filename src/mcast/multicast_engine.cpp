#include "mcast/multicast_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "traffic/traffic_engine.hpp"

namespace nimcast::mcast {

const char* to_string(NiStyle s) {
  switch (s) {
    case NiStyle::kConventional: return "conventional";
    case NiStyle::kSmartFcfs: return "smart-fcfs";
    case NiStyle::kSmartFpfs: return "smart-fpfs";
    case NiStyle::kReliableFpfs: return "reliable-fpfs";
  }
  return "?";
}

const char* to_string(Selection s) {
  switch (s) {
    case Selection::kStatic: return "static";
    case Selection::kAdaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kComplete: return "complete";
    case Outcome::kPartial: return "partial";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

std::int32_t Delivery::delivered_count() const {
  std::int32_t n = 0;
  for (const auto& d : destinations) n += d.delivered ? 1 : 0;
  return n;
}

double Delivery::delivery_ratio() const {
  if (destinations.empty()) return 1.0;
  return static_cast<double>(delivered_count()) /
         static_cast<double>(destinations.size());
}

double RunCounters::peak_buffer() const {
  double best = 0.0;
  for (const auto& b : buffers) best = std::max(best, b.peak_packets);
  return best;
}

double RunCounters::max_buffer_integral() const {
  double best = 0.0;
  for (const auto& b : buffers) best = std::max(best, b.packet_us_integral);
  return best;
}

double StreamingResult::member_imbalance() const {
  std::int64_t total = 0;
  std::int64_t peak = 0;
  for (const std::int64_t n : member_packets) {
    total += n;
    peak = std::max(peak, n);
  }
  if (total <= 0) return 1.0;
  return static_cast<double>(peak) *
         static_cast<double>(member_packets.size()) /
         static_cast<double>(total);
}

MulticastEngine::MulticastEngine(const topo::Topology& topology,
                                 const routing::RouteTable& routes,
                                 Config config, sim::Trace* trace)
    : topology_{topology}, routes_{routes}, config_{config}, trace_{trace} {
  if (config_.shards != 1) {
    throw std::invalid_argument(
        "MulticastEngine: Config::shards must be 1 (the sharded engine was "
        "removed; every run uses the serial simulator)");
  }
}

MulticastResult MulticastEngine::run(const core::HostTree& tree,
                                     std::int32_t packet_count) const {
  MultiMulticastResult batch = run_many({MulticastSpec{tree, packet_count}});
  MulticastResult result = std::move(batch.operations.front());
  static_cast<RunCounters&>(result) = std::move(batch);
  return result;
}

MultiMulticastResult MulticastEngine::run_many(
    const std::vector<MulticastSpec>& specs) const {
  traffic::Workload workload;
  for (const MulticastSpec& spec : specs) {
    traffic::TrafficOp& op = workload.ops.emplace_back();
    op.arrival = spec.start;
    op.tree = spec.tree;
    op.packets = spec.packet_count;
  }
  traffic::TrafficConfig tcfg{config_.params, config_.network,   {},
                              config_.style,  config_.reliability,
                              config_.repair};
  tcfg.scheduler.policy = traffic::Policy::kFifo;
  traffic::TrafficResult r =
      traffic::TrafficEngine{topology_, routes_, tcfg, trace_}.run(workload);

  MultiMulticastResult batch;
  for (traffic::OpRecord& rec : r.ops) {
    MulticastResult& op = batch.operations.emplace_back();
    op.latency = rec.fct();
    op.ni_latency = rec.ni_completed - rec.arrival;
    static_cast<Delivery&>(op) = std::move(rec);
    for (const auto& [host, at] : op.completions) {
      batch.makespan = std::max(batch.makespan, at);
    }
  }
  static_cast<RunCounters&>(batch) = std::move(r);
  return batch;
}

}  // namespace nimcast::mcast
