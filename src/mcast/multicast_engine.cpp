#include "mcast/multicast_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mcast/session.hpp"
#include "netif/reliable_ni.hpp"

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

std::int32_t MulticastResult::delivered_count() const {
  std::int32_t n = 0;
  for (const auto& d : destinations) n += d.delivered ? 1 : 0;
  return n;
}

double MulticastResult::delivery_ratio() const {
  if (destinations.empty()) return 1.0;
  return static_cast<double>(delivered_count()) /
         static_cast<double>(destinations.size());
}

double MulticastResult::peak_buffer() const {
  double best = 0.0;
  for (const auto& b : buffers) best = std::max(best, b.peak_packets);
  return best;
}

double MulticastResult::max_buffer_integral() const {
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
  MultiMulticastResult batch =
      run_many({MulticastSpec{tree, packet_count, sim::Time::zero()}});
  MulticastResult result = std::move(batch.operations.front());
  result.buffers = std::move(batch.buffers);
  result.total_channel_block_time = batch.total_channel_block_time;
  result.retransmissions = batch.retransmissions;
  result.events_dispatched = batch.events_dispatched;
  return result;
}

namespace {

/// Every host the batch touches, ascending. Throws std::invalid_argument
/// on a malformed batch.
std::vector<topo::HostId> batch_participants(
    const topo::Topology& topology, const std::vector<MulticastSpec>& specs) {
  if (specs.empty()) {
    throw std::invalid_argument("run_many: no operations");
  }
  std::vector<topo::HostId> hosts;
  for (const auto& spec : specs) {
    if (spec.packet_count < 1) {
      throw std::invalid_argument("run_many: packet_count < 1");
    }
    if (spec.tree.size() < 1) {
      throw std::invalid_argument("run_many: empty tree");
    }
    hosts.insert(hosts.end(), spec.tree.nodes.begin(), spec.tree.nodes.end());
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  if (hosts.front() < 0 || hosts.back() >= topology.num_hosts()) {
    throw std::invalid_argument("run_many: host out of range");
  }
  return hosts;
}

/// The reliability parameters a batch runs with: a zero retx_timeout
/// asks for the derived default, sized to the deepest tree edge and the
/// widest fan-out actually in the batch.
netif::ReliabilityParams batch_reliability(
    const MulticastEngine::Config& config, const routing::RouteTable& routes,
    const std::vector<MulticastSpec>& specs) {
  netif::ReliabilityParams reliability = config.reliability;
  if (config.style != NiStyle::kReliableFpfs ||
      reliability.retx_timeout != sim::Time::zero()) {
    return reliability;
  }
  std::size_t max_hops = 1;
  std::int32_t max_fanout = 1;
  for (const auto& spec : specs) {
    for (topo::HostId h : spec.tree.nodes) {
      const auto& kids = spec.tree.children.at(h);
      max_fanout = std::max(max_fanout, static_cast<std::int32_t>(kids.size()));
      for (topo::HostId c : kids) {
        max_hops = std::max(max_hops, routes.hops(h, c));
      }
    }
  }
  reliability.retx_timeout = netif::derived_retx_timeout(
      config.params, config.network, max_hops, max_fanout, reliability.t_ack);
  return reliability;
}

/// Tree repair for a batch: each round re-parents every operation's
/// still-missing, still-reachable destinations into a fresh k-binomial
/// tree in their contention-free (nodes) order — failed hosts are simply
/// excised — and resends under a fresh message id of the same ledger
/// key. When an operation's root died, the lowest-ranked surviving
/// destination already holding the full payload is elected (at most
/// once: every fault fires during the first drain) and drives the
/// rounds from then on; `eff_root` tracks it.
void repair_batch(Session& session, const std::vector<MulticastSpec>& specs,
                  const RepairPolicy& policy, MultiMulticastResult& batch,
                  std::vector<topo::HostId>& eff_root) {
  session.repair_rounds([&](sim::Time start_at) {
    bool scheduled_any = false;
    for (std::size_t op = 0; op < specs.size(); ++op) {
      const MulticastSpec& spec = specs[op];
      const auto holds = [&](topo::HostId h) { return session.arrived(op, h); };
      topo::HostId root = eff_root[op];
      if (!session.network().host_alive(root)) {
        if (!policy.root_handoff) continue;
        // Nothing to hand off when every destination already holds the
        // message: the root died after finishing its work.
        const bool missing = std::any_of(
            spec.tree.nodes.begin(), spec.tree.nodes.end(),
            [&](topo::HostId h) { return h != spec.tree.root && !holds(h); });
        if (!missing) continue;
        root = session.elect(spec.tree.nodes, spec.tree.root, holds);
        // Nobody holds the payload: it died with the root.
        if (root == topo::kInvalidId) continue;
        eff_root[op] = root;
        ++batch.operations[op].root_handoffs;
      }
      const auto rtree = session.repair_tree(
          root, spec.tree.nodes, [&](topo::HostId h) { return !holds(h); },
          spec.tree.root_children());
      if (!rtree) continue;
      const net::MessageId message = session.new_message(op);
      session.install_tree(message, *rtree, spec.packet_count);
      ++batch.operations[op].repairs;
      session.start_at(start_at, root, message);
      scheduled_any = true;
    }
    return scheduled_any;
  });
}

}  // namespace

MultiMulticastResult MulticastEngine::run_many(
    const std::vector<MulticastSpec>& specs) const {
  const std::vector<topo::HostId> participants =
      batch_participants(topology_, specs);
  Session session{topology_,       routes_,        config_.params,
                  config_.network, config_.repair, "MulticastEngine", trace_};
  const netif::ReliabilityParams reliability =
      batch_reliability(config_, routes_, specs);
  for (topo::HostId h : participants) {
    session.add_ni(h, config_.style, reliability);
  }
  for (std::size_t op = 0; op < specs.size(); ++op) {
    session.install_tree(session.new_message(op), specs[op].tree,
                         specs[op].packet_count);
  }
  MultiMulticastResult batch;
  batch.operations.resize(specs.size());
  session.track_completions(specs.size(), [&](std::size_t op) {
    auto& ni_latency = batch.operations[op].ni_latency;
    ni_latency = std::max(ni_latency, session.sim().now() - specs[op].start);
  });
  for (std::size_t op = 0; op < specs.size(); ++op) {
    session.start_at(specs[op].start, specs[op].tree.root,
                     static_cast<net::MessageId>(op + 1));
  }
  session.drain();
  std::vector<topo::HostId> eff_root;
  for (const auto& spec : specs) eff_root.push_back(spec.tree.root);
  if (session.faulty()) {
    repair_batch(session, specs, config_.repair, batch, eff_root);
  }

  for (const auto& c : session.host_completions()) {
    batch.operations[c.key].completions.emplace_back(c.host, c.at);
  }
  for (std::size_t op = 0; op < specs.size(); ++op) {
    auto& result = batch.operations[op];
    const auto& spec = specs[op];
    const auto expected = static_cast<std::size_t>(spec.tree.size() - 1);
    if (!session.faulty() && result.completions.size() != expected) {
      throw std::runtime_error(
          "MulticastEngine: not every destination completed (op " +
          std::to_string(op) + ")");
    }
    result.effective_root = eff_root[op];
    result.destinations = session.verdicts(spec.tree.nodes, spec.tree.root,
                                           eff_root[op], result.completions);
    result.outcome = outcome_of(result.destinations);
    for (const auto& [h, t] : result.completions) {
      result.latency = std::max(result.latency, t - spec.start);
      batch.makespan = std::max(batch.makespan, t);
    }
    result.packets_delivered =
        static_cast<std::int64_t>(result.completions.size()) *
        spec.packet_count;
  }
  session.for_each_ni([&](const netif::NetworkInterface& ni) {
    batch.buffers.push_back(
        BufferStat{ni.id(), ni.buffer().peak(), ni.buffer().integral()});
    if (config_.style == NiStyle::kReliableFpfs) {
      const auto& rni = static_cast<const netif::ReliableFpfsNi&>(ni);
      batch.retransmissions += rni.retransmissions();
      batch.deliveries_failed += rni.deliveries_failed();
    }
  });
  const net::WormholeNetwork& network = session.network();
  batch.total_channel_block_time = network.total_block_time();
  batch.packets_killed = network.packets_killed();
  batch.faults_applied = network.faults_applied();
  batch.events_dispatched =
      static_cast<std::int64_t>(session.sim().events_dispatched());
  return batch;
}

}  // namespace nimcast::mcast
