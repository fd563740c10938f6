#include "mcast/multicast_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "core/kbinomial.hpp"
#include "mcast/tree_repair.hpp"
#include "netif/conventional_ni.hpp"
#include "netif/reliable_ni.hpp"
#include "netif/host.hpp"
#include "netif/smart_ni.hpp"
#include "network/wormhole_network.hpp"
#include "routing/repair.hpp"
#include "routing/route_alternatives.hpp"
#include "sim/simulator.hpp"

namespace nimcast::mcast {

namespace {

/// Directed switch-channel ids condemned by the current fault state, in
/// the numbering routing::edge_channel_footprint uses — so a footprint
/// intersection against this set tells whether a rotation member's
/// static routes dodge every dead link and switch. Sorted by
/// construction (link id ascending, then direction, then VC).
std::vector<std::int32_t> dead_switch_channels(const topo::Topology& topology,
                                               const topo::SubgraphMask& mask,
                                               std::int32_t vcs) {
  std::vector<std::int32_t> dead;
  if (!mask.any_dead()) return dead;
  const topo::Graph& g = topology.switches();
  for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    if (mask.link_alive(e) && mask.switch_alive(edge.a) &&
        mask.switch_alive(edge.b)) {
      continue;
    }
    for (std::int32_t dir = 0; dir < 2; ++dir) {
      for (std::int32_t v = 0; v < vcs; ++v) {
        dead.push_back((2 * e + dir) * vcs + v);
      }
    }
  }
  return dead;
}

}  // namespace

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

MultiMulticastResult MulticastEngine::run_many(
    const std::vector<MulticastSpec>& specs) const {
  if (specs.empty()) {
    throw std::invalid_argument("run_many: no operations");
  }
  std::unordered_set<topo::HostId> participants;
  for (const auto& spec : specs) {
    if (spec.packet_count < 1) {
      throw std::invalid_argument("run_many: packet_count < 1");
    }
    if (spec.tree.size() < 1) {
      throw std::invalid_argument("run_many: empty tree");
    }
    for (topo::HostId h : spec.tree.nodes) {
      if (h < 0 || h >= topology_.num_hosts()) {
        throw std::invalid_argument("run_many: host out of range");
      }
      participants.insert(h);
    }
  }

  const bool faulty = !config_.network.faults.empty();

  // One simulator drives the network, every NI, every host and their
  // timers.
  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology_, routes_, config_.network,
                               trace_};

  // Fault-time route repair: rebuild up*/down* on the surviving subgraph
  // and rebind. The hook fires on *every* fault event — failures AND
  // kLinkUp recoveries — each with a fresh epoch, so a recovered link
  // rejoins the routes immediately instead of staying excised until the
  // next failure. Multi-VC tables (dateline tori) cannot be rebuilt —
  // rebuild_updown emits a single-VC table, which would change channel
  // numbering under the fabric's feet — so requesting reroute there is a
  // loud error instead of a silently stale table.
  std::vector<std::unique_ptr<routing::RouteTable>> repaired_tables;
  if (faulty && config_.repair.reroute) {
    if (routes_.virtual_channels() != 1) {
      throw std::invalid_argument(
          "MulticastEngine: fault-time reroute cannot rebuild a multi-VC "
          "route table (dateline torus); set RepairPolicy::reroute = false "
          "to run degraded on the original routes");
    }
    network.on_fault = [&](const net::FaultEvent& ev) {
      // A host death leaves the switch graph (and thus every route)
      // unchanged — no rebuild needed.
      if (ev.kind == net::FaultKind::kHostDown) return;
      auto table = routing::rebuild_updown(
          topology_, network.fault_state(),
          static_cast<std::int32_t>(repaired_tables.size()) + 1);
      network.rebind_routes(*table);
      repaired_tables.push_back(std::move(table));
    };
  }

  // A zero retx_timeout asks for the derived default: size it to the
  // deepest tree edge and widest fan-out actually in this batch.
  netif::ReliabilityParams reliability = config_.reliability;
  if (config_.style == NiStyle::kReliableFpfs &&
      reliability.retx_timeout == sim::Time::zero()) {
    std::size_t max_hops = 1;
    std::int32_t max_fanout = 1;
    for (const auto& spec : specs) {
      for (topo::HostId h : spec.tree.nodes) {
        const auto& kids = spec.tree.children.at(h);
        max_fanout =
            std::max(max_fanout, static_cast<std::int32_t>(kids.size()));
        for (topo::HostId c : kids) {
          max_hops = std::max(max_hops, routes_.hops(h, c));
        }
      }
    }
    reliability.retx_timeout = netif::derived_retx_timeout(
        config_.params, config_.network, max_hops, max_fanout,
        reliability.t_ack);
  }

  std::unordered_map<topo::HostId, std::unique_ptr<netif::NetworkInterface>>
      nis;
  std::unordered_map<topo::HostId, std::unique_ptr<netif::Host>> hosts;
  for (topo::HostId h : participants) {
    switch (config_.style) {
      case NiStyle::kConventional:
        nis.emplace(h, std::make_unique<netif::ConventionalNi>(
                           simctx, network, config_.params, h, trace_));
        break;
      case NiStyle::kSmartFcfs:
        nis.emplace(h, std::make_unique<netif::FcfsNi>(
                           simctx, network, config_.params, h, trace_));
        break;
      case NiStyle::kSmartFpfs:
        nis.emplace(h, std::make_unique<netif::FpfsNi>(
                           simctx, network, config_.params, h, trace_));
        break;
      case NiStyle::kReliableFpfs:
        nis.emplace(h, std::make_unique<netif::ReliableFpfsNi>(
                           simctx, network, config_.params, reliability, h,
                           trace_));
        break;
    }
    hosts.emplace(h, std::make_unique<netif::Host>(simctx, h, config_.params));
  }

  // Forwarding state: one message id per operation.
  for (std::size_t op = 0; op < specs.size(); ++op) {
    const auto message = static_cast<net::MessageId>(op + 1);
    const auto& spec = specs[op];
    for (topo::HostId h : spec.tree.nodes) {
      netif::ForwardingEntry entry;
      entry.children = spec.tree.children.at(h);
      entry.packet_count = spec.packet_count;
      entry.is_destination = (h != spec.tree.root);
      nis.at(h)->install(message, entry);
    }
  }

  MultiMulticastResult batch;
  batch.operations.resize(specs.size());

  // Message id -> operation index. Repair rounds mint fresh message ids
  // for the same operation, so the map grows past specs.size().
  std::vector<std::size_t> msg_op(specs.size());
  for (std::size_t op = 0; op < specs.size(); ++op) msg_op[op] = op;
  // Destinations whose NI has completed the operation (under any of its
  // message ids) — guards against a repair resend double-counting a host
  // that made it through after all. Flat per-host bytes, not a set.
  std::vector<std::vector<std::uint8_t>> arrived(
      specs.size(),
      std::vector<std::uint8_t>(static_cast<std::size_t>(topology_.num_hosts()),
                                0));

  // Completion records, sorted by (time, host, op) once the run is over.
  // (op, dest, time) at NI completion (before the host receive t_r).
  std::vector<std::tuple<std::size_t, topo::HostId, sim::Time>> ni_done;
  // (op, dest, time) at host-level completion.
  std::vector<std::tuple<std::size_t, topo::HostId, sim::Time>> host_done;

  for (auto& [h, ni] : nis) {
    ni->on_message_at_ni = [&](topo::HostId dest, net::MessageId msg) {
      const auto op = msg_op[static_cast<std::size_t>(msg - 1)];
      auto& seen = arrived[op][static_cast<std::size_t>(dest)];
      if (seen != 0) return;
      seen = 1;
      ni_done.emplace_back(op, dest, simctx.now());
      auto& host = *hosts.at(dest);
      host.software_receive([&, dest, msg, op] {
        host_done.emplace_back(op, dest, simctx.now());
        nis.at(dest)->after_host_receive(msg, *hosts.at(dest));
      });
    };
  }

  for (std::size_t op = 0; op < specs.size(); ++op) {
    const auto message = static_cast<net::MessageId>(op + 1);
    const topo::HostId root = specs[op].tree.root;
    simctx.schedule_at(specs[op].start, [&nis, &hosts, root, message] {
      nis.at(root)->start_from_host(message, *hosts.at(root));
    });
  }
  simctx.run();

  if (network.in_flight() != 0) {
    throw std::runtime_error(
        "MulticastEngine: network deadlock (worms still in flight)");
  }

  // The initiator each operation's repair rounds (and final reachability
  // verdicts) run from: the original root until it dies, then the elected
  // replacement. All fault events fire during the first drain (plans are
  // scheduled up front), so an election happens at most once per op.
  std::vector<topo::HostId> eff_root(specs.size());
  for (std::size_t op = 0; op < specs.size(); ++op) {
    eff_root[op] = specs[op].tree.root;
  }

  // Tree repair: re-parent destinations orphaned by faults. Each round
  // rebuilds a k-binomial tree over the still-missing, still-reachable
  // destinations in their contention-free (nodes) order — failed hosts
  // are simply excised — and resends under a fresh message id. When the
  // root itself died, elect the lowest-ranked surviving destination that
  // already holds the full payload and hand the schedule to it.
  if (faulty && config_.repair.max_attempts > 0) {
    auto next_message = static_cast<std::int32_t>(specs.size()) + 1;
    for (std::int32_t round = 1; round <= config_.repair.max_attempts;
         ++round) {
      bool scheduled_any = false;
      for (std::size_t op = 0; op < specs.size(); ++op) {
        const auto& spec = specs[op];
        topo::HostId root = eff_root[op];
        if (!network.host_alive(root)) {
          if (!config_.repair.root_handoff) continue;
          // Nothing to hand off when every destination already holds the
          // message: the root died after finishing its work.
          bool missing = false;
          for (topo::HostId h : spec.tree.nodes) {
            if (h != spec.tree.root &&
                arrived[op][static_cast<std::size_t>(h)] == 0) {
              missing = true;
              break;
            }
          }
          if (!missing) continue;
          topo::HostId elected = topo::kInvalidId;
          for (topo::HostId h : spec.tree.nodes) {
            if (h == spec.tree.root) continue;
            if (arrived[op][static_cast<std::size_t>(h)] != 0 &&
                network.host_alive(h)) {
              elected = h;
              break;
            }
          }
          // Nobody holds the payload: it died with the root.
          if (elected == topo::kInvalidId) continue;
          root = elected;
          eff_root[op] = elected;
          ++batch.operations[op].root_handoffs;
        }
        const auto rtree = plan_repair_tree(
            root, spec.tree.nodes,
            [&](topo::HostId h) {
              return arrived[op][static_cast<std::size_t>(h)] == 0;
            },
            [&](topo::HostId h) { return network.reachable(root, h); },
            spec.tree.root_children());
        if (!rtree) continue;
        const auto message = static_cast<net::MessageId>(next_message++);
        msg_op.push_back(op);
        for (topo::HostId h : rtree->nodes) {
          netif::ForwardingEntry entry;
          entry.children = rtree->children.at(h);
          entry.packet_count = spec.packet_count;
          entry.is_destination = (h != root);
          nis.at(h)->install(message, entry);
        }
        ++batch.operations[op].repairs;
        const sim::Time wait =
            config_.repair.backoff * (sim::Time::rep{1} << (round - 1));
        simctx.schedule_at(simctx.now() + wait, [&nis, &hosts, root, message] {
          nis.at(root)->start_from_host(message, *hosts.at(root));
        });
        scheduled_any = true;
      }
      if (!scheduled_any) break;
      simctx.run();
      if (network.in_flight() != 0) {
        throw std::runtime_error(
            "MulticastEngine: network deadlock (worms still in flight)");
      }
    }
  }

  // Report order: completions sorted by (time, host, op). Dispatch order
  // already sorts distinct completion events by time; the sort fixes the
  // order of same-instant ties.
  {
    const auto by_time_host_op = [](const auto& a, const auto& b) {
      return std::make_tuple(std::get<2>(a), std::get<1>(a), std::get<0>(a)) <
             std::make_tuple(std::get<2>(b), std::get<1>(b), std::get<0>(b));
    };
    std::sort(host_done.begin(), host_done.end(), by_time_host_op);
    for (const auto& [op, h, t] : host_done) {
      batch.operations[op].completions.emplace_back(h, t);
    }
    for (const auto& [op, h, t] : ni_done) {
      batch.operations[op].ni_latency =
          std::max(batch.operations[op].ni_latency, t - specs[op].start);
    }
  }

  for (std::size_t op = 0; op < specs.size(); ++op) {
    auto& result = batch.operations[op];
    const auto& spec = specs[op];
    const auto expected = static_cast<std::size_t>(spec.tree.size() - 1);
    if (!faulty && result.completions.size() != expected) {
      throw std::runtime_error(
          "MulticastEngine: not every destination completed (op " +
          std::to_string(op) + ")");
    }
    result.effective_root = eff_root[op];
    std::unordered_map<topo::HostId, sim::Time> done;
    for (const auto& [h, t] : result.completions) done.emplace(h, t);
    for (topo::HostId h : spec.tree.nodes) {
      if (h == spec.tree.root) continue;
      DestinationStatus st;
      st.host = h;
      st.reachable = network.reachable(eff_root[op], h);
      if (auto it = done.find(h); it != done.end()) {
        st.delivered = true;
        st.completed_at = it->second;
      }
      result.destinations.push_back(st);
    }
    const auto delivered = static_cast<std::size_t>(result.delivered_count());
    result.outcome = (expected == 0 || delivered == expected)
                         ? Outcome::kComplete
                         : (delivered == 0 ? Outcome::kFailed
                                           : Outcome::kPartial);
    for (const auto& [h, t] : result.completions) {
      result.latency = std::max(result.latency, t - spec.start);
      batch.makespan = std::max(batch.makespan, t);
    }
    result.packets_delivered =
        static_cast<std::int64_t>(result.completions.size()) *
        spec.packet_count;
  }
  for (topo::HostId h : participants) {
    const auto& buf = nis.at(h)->buffer();
    batch.buffers.push_back(BufferStat{h, buf.peak(), buf.integral()});
  }
  batch.total_channel_block_time = network.total_block_time();
  batch.packets_killed = network.packets_killed();
  batch.faults_applied = network.faults_applied();
  batch.events_dispatched =
      static_cast<std::int64_t>(simctx.events_dispatched());
  if (config_.style == NiStyle::kReliableFpfs) {
    for (const auto& [h, ni] : nis) {
      const auto* rni = static_cast<const netif::ReliableFpfsNi*>(ni.get());
      batch.retransmissions += rni->retransmissions();
      batch.deliveries_failed += rni->deliveries_failed();
    }
  }
  return batch;
}

StreamingResult MulticastEngine::run_streaming(
    const core::RotationPlan& plan, std::int32_t stream_packets) const {
  if (config_.style != NiStyle::kSmartFpfs) {
    throw std::invalid_argument(
        "run_streaming: rotation streaming requires NiStyle::kSmartFpfs");
  }
  if (stream_packets < 1) {
    throw std::invalid_argument("run_streaming: stream_packets < 1");
  }
  if (plan.members.empty()) {
    throw std::invalid_argument("run_streaming: empty rotation plan");
  }
  const core::HostTree& base = plan.members.front().tree;
  const topo::HostId root = base.root;
  std::vector<topo::HostId> base_sorted = base.nodes;
  std::sort(base_sorted.begin(), base_sorted.end());
  for (topo::HostId h : base_sorted) {
    if (h < 0 || h >= topology_.num_hosts()) {
      throw std::invalid_argument("run_streaming: host out of range");
    }
  }
  for (const auto& member : plan.members) {
    if (member.tree.root != root) {
      throw std::invalid_argument("run_streaming: members disagree on root");
    }
    std::vector<topo::HostId> nodes = member.tree.nodes;
    std::sort(nodes.begin(), nodes.end());
    if (nodes != base_sorted) {
      throw std::invalid_argument(
          "run_streaming: members disagree on participants");
    }
  }

  const std::int32_t S = stream_packets;
  // Classes that actually carry packets: packet g rides class g mod R.
  const std::int32_t R = std::min(plan.size(), S);

  for (const auto& flow : config_.background) {
    if (flow.src < 0 || flow.src >= topology_.num_hosts() || flow.dst < 0 ||
        flow.dst >= topology_.num_hosts() || flow.src == flow.dst) {
      throw std::invalid_argument("run_streaming: bad background flow");
    }
    if (flow.packets < 1) {
      throw std::invalid_argument(
          "run_streaming: background flow packets < 1");
    }
  }

  const bool faulty = !config_.network.faults.empty();
  const bool lossy = config_.network.loss_rate > 0.0;
  // An R = 1 plan degrades adaptive to static: nothing to choose.
  const bool adaptive = config_.selection == Selection::kAdaptive && R > 1;

  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology_, routes_, config_.network,
                               trace_};

  // Rotation members ride their decorrelated routes via route classes;
  // member 0 (and any member planned on the primary table) stays on
  // class 0, so an R = 1 plan leaves the network untouched.
  for (std::int32_t r = 1; r < R; ++r) {
    const auto& member = plan.members[static_cast<std::size_t>(r)];
    if (member.table) network.bind_route_class(r, *member.table);
  }

  // Fault-time primary-route repair, as in run_many (including the loud
  // multi-VC refusal). Class tables go stale on purpose: their worms die
  // at dead channels and the incremental replan below redelivers.
  std::vector<std::unique_ptr<routing::RouteTable>> repaired_tables;
  if (faulty && config_.repair.reroute) {
    if (routes_.virtual_channels() != 1) {
      throw std::invalid_argument(
          "MulticastEngine: fault-time reroute cannot rebuild a multi-VC "
          "route table (dateline torus); set RepairPolicy::reroute = false "
          "to run degraded on the original routes");
    }
    network.on_fault = [&](const net::FaultEvent& ev) {
      if (ev.kind == net::FaultKind::kHostDown) return;
      auto table = routing::rebuild_updown(
          topology_, network.fault_state(),
          static_cast<std::int32_t>(repaired_tables.size()) + 1);
      network.rebind_routes(*table);
      repaired_tables.push_back(std::move(table));
    };
  }

  std::unordered_map<topo::HostId, std::unique_ptr<netif::NetworkInterface>>
      nis;
  std::unordered_map<topo::HostId, std::unique_ptr<netif::Host>> hosts;
  const auto add_host = [&](topo::HostId h) {
    nis.emplace(h, std::make_unique<netif::FpfsNi>(simctx, network,
                                                   config_.params, h, trace_));
    hosts.emplace(h, std::make_unique<netif::Host>(simctx, h, config_.params));
  };
  for (topo::HostId h : base.nodes) add_host(h);
  for (const auto& flow : config_.background) {
    for (topo::HostId h : {flow.src, flow.dst}) {
      if (!nis.contains(h)) add_host(h);
    }
  }

  // One message per streaming class; member r's tree carries class r.
  // Static: class r holds the stream packets congruent to r mod R, with
  // per-class packet indices. Adaptive: any packet may ride any class,
  // so every class is installed with the full stream as packet_count and
  // the *global* stream index as packet index — a class carries the
  // sparse index subset the selector routes to it.
  for (std::int32_t r = 0; r < R; ++r) {
    const auto message = static_cast<net::MessageId>(r + 1);
    const auto& member = plan.members[static_cast<std::size_t>(r)];
    const std::int32_t count = adaptive ? S : (S - r + R - 1) / R;
    for (topo::HostId h : member.tree.nodes) {
      netif::ForwardingEntry entry;
      entry.children = member.tree.children.at(h);
      entry.packet_count = count;
      entry.is_destination = (h != root);
      entry.route_class = r;
      nis.at(h)->install(message, entry);
    }
  }

  // Stream index of message m's packet j. Streaming classes interleave
  // affinely (mul R, add r); repair and handoff messages carry an
  // explicit index list — an arbitrary subset of the stream.
  struct MsgMap {
    std::int32_t mul = 1;
    std::int32_t add = 0;
    std::vector<std::int32_t> indices;  ///< non-empty: j -> indices[j]
    bool background = false;  ///< not part of the stream; skip accounting
  };
  std::vector<MsgMap> msg_stream;
  for (std::int32_t r = 0; r < R; ++r) {
    msg_stream.push_back(adaptive ? MsgMap{1, 0, {}, false}
                                  : MsgMap{R, r, {}, false});
  }

  // Background unicast flows: one message per flow, a two-node chain on
  // the primary table. Their packets contend for wires and coprocessors
  // but never enter stream accounting.
  const auto F = static_cast<std::int32_t>(config_.background.size());
  for (std::int32_t f = 0; f < F; ++f) {
    const auto& flow = config_.background[static_cast<std::size_t>(f)];
    const auto message = static_cast<net::MessageId>(R + 1 + f);
    netif::ForwardingEntry at_src;
    at_src.children = {flow.dst};
    at_src.packet_count = flow.packets;
    at_src.is_destination = false;
    nis.at(flow.src)->install(message, at_src);
    netif::ForwardingEntry at_dst;
    at_dst.packet_count = flow.packets;
    at_dst.is_destination = false;
    nis.at(flow.dst)->install(message, at_dst);
    msg_stream.push_back(MsgMap{1, 0, {}, true});
  }

  // Per-destination reassembly state, in flat per-host arrays.
  std::vector<std::vector<std::uint8_t>> seen(
      static_cast<std::size_t>(topology_.num_hosts()));
  std::vector<std::int32_t> seen_count(
      static_cast<std::size_t>(topology_.num_hosts()), 0);
  for (topo::HostId h : base.nodes) {
    if (h != root) seen[static_cast<std::size_t>(h)].assign(
        static_cast<std::size_t>(S), 0);
  }

  // Completion records, sorted after the run like run_many's.
  // (dest, stream index, time) at first receive-processing.
  std::vector<std::tuple<topo::HostId, std::int32_t, sim::Time>> packets_all;
  // (dest, time) at host-level completion of the whole stream.
  std::vector<std::pair<topo::HostId, sim::Time>> host_all;

  for (auto& [h, ni] : nis) {
    ni->on_packet_at_ni = [&](topo::HostId dest, const net::Packet& p) {
      const MsgMap& mm = msg_stream[static_cast<std::size_t>(p.message - 1)];
      if (mm.background || dest == root) return;
      const std::int32_t g =
          mm.indices.empty()
              ? p.packet_index * mm.mul + mm.add
              : mm.indices[static_cast<std::size_t>(p.packet_index)];
      auto& bit =
          seen[static_cast<std::size_t>(dest)][static_cast<std::size_t>(g)];
      if (bit != 0) return;  // repair resend of a packet already seen
      bit = 1;
      packets_all.emplace_back(dest, g, simctx.now());
      if (++seen_count[static_cast<std::size_t>(dest)] == S) {
        hosts.at(dest)->software_receive(
            [&, dest] { host_all.emplace_back(dest, simctx.now()); });
      }
    };
  }

  // Adaptive selector state. All scores are integer nanoseconds; member
  // r's snapshot score snap[r] is the block-time delta over its channel
  // footprint since the previous snapshot, plus its forwarders' current
  // injection-queue backlog, plus a penalty for members a fault broke.
  // The stream's own wake shows up in these scores too — footprints
  // overlap only partially and forwarders momentarily hold copies in
  // their queues — so raw argmin over snap would drift off the static
  // rotation even on an otherwise idle fabric. The selector therefore
  // splits detection from choice: a member is *hot* only on a decisive
  // signal (a fault broke it, or its forwarders' queued sends exceed
  // kHotQueueFactor × participants — the stream itself can never queue
  // more than about one copy per participant, while a backed-up
  // coprocessor holds hundreds), and the full score only arbitrates
  // *which* clean member covers for a hot one. A clean home member is
  // always kept, which makes an idle fabric byte-identical to the
  // static g mod R rotation.
  struct Selector {
    std::vector<std::vector<std::int32_t>> footprint;  ///< sorted chan ids
    std::vector<std::vector<topo::HostId>> senders;    ///< forwarders
    std::vector<std::int64_t> snap;
    std::vector<std::int64_t> queue_ns;  ///< backlog term of snap
    std::vector<std::int64_t> sent;
    std::vector<std::uint8_t> dead_member;
    std::vector<std::int64_t> prev_block;  ///< per channel, last snapshot
    std::vector<std::int32_t> union_channels;
    std::int64_t issued = 0;
    std::int64_t snapshots = 0;
    std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
    std::int32_t faults_seen = 0;
  } sel;
  const std::int64_t t_snd_ns = config_.params.t_snd.count_ns();
  const std::int64_t w_pkt =
      config_.params.t_rcv.count_ns() +
      static_cast<std::int64_t>(std::max(plan.fanout_bound, 1)) * t_snd_ns;
  if (adaptive) {
    sel.footprint.resize(static_cast<std::size_t>(R));
    sel.senders.resize(static_cast<std::size_t>(R));
    sel.snap.assign(static_cast<std::size_t>(R), 0);
    sel.queue_ns.assign(static_cast<std::size_t>(R), 0);
    sel.sent.assign(static_cast<std::size_t>(R), 0);
    sel.dead_member.assign(static_cast<std::size_t>(R), 0);
    sel.prev_block.assign(static_cast<std::size_t>(network.num_channels()),
                          0);
    std::vector<std::uint8_t> in_union(
        static_cast<std::size_t>(network.num_channels()), 0);
    for (std::int32_t r = 0; r < R; ++r) {
      const auto& member = plan.members[static_cast<std::size_t>(r)];
      auto& foot = sel.footprint[static_cast<std::size_t>(r)];
      foot = member.footprint;
      // The member's congestion is felt on its switch footprint plus
      // its forwarders' injection channels. The root's injection
      // channel and every ejection channel are member-independent
      // (same source, same destinations) and would only add common-mode
      // noise to every score.
      for (topo::HostId h : member.tree.nodes) {
        if (h == root || member.tree.children.at(h).empty()) continue;
        sel.senders[static_cast<std::size_t>(r)].push_back(h);
        foot.push_back(network.injection_channel_id(h));
      }
      std::sort(foot.begin(), foot.end());
      foot.erase(std::unique(foot.begin(), foot.end()), foot.end());
      for (std::int32_t c : foot) {
        if (in_union[static_cast<std::size_t>(c)] == 0) {
          in_union[static_cast<std::size_t>(c)] = 1;
          sel.union_channels.push_back(c);
        }
      }
    }
  }

  // A member is dead once a fault killed one of its hosts or condemned
  // a channel its static routes cross; the penalty steers every
  // subsequent packet to surviving members (repair still redelivers
  // what was lost before the fault landed). Re-derived only when the
  // applied-fault count moves.
  constexpr std::int64_t kDeadPenalty = std::int64_t{1} << 50;
  const auto refresh_dead_members = [&] {
    if (network.faults_applied() == sel.faults_seen) return;
    sel.faults_seen = network.faults_applied();
    const auto dead = dead_switch_channels(topology_, network.fault_state(),
                                           routes_.virtual_channels());
    for (std::int32_t r = 0; r < R; ++r) {
      const auto& member = plan.members[static_cast<std::size_t>(r)];
      bool broken = false;
      for (topo::HostId h : member.tree.nodes) {
        if (!network.host_alive(h)) {
          broken = true;
          break;
        }
      }
      if (!broken) {
        // Both lists are sorted: linear intersection test.
        const auto& foot = sel.footprint[static_cast<std::size_t>(r)];
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < foot.size() && j < dead.size()) {
          if (foot[i] == dead[j]) {
            broken = true;
            break;
          }
          foot[i] < dead[j] ? ++i : ++j;
        }
      }
      sel.dead_member[static_cast<std::size_t>(r)] = broken ? 1 : 0;
    }
  };

  const auto score_snapshot = [&] {
    refresh_dead_members();
    for (std::int32_t r = 0; r < R; ++r) {
      std::int64_t s = 0;
      for (std::int32_t c : sel.footprint[static_cast<std::size_t>(r)]) {
        s += network.channel_block_ns(c) -
             sel.prev_block[static_cast<std::size_t>(c)];
      }
      std::int64_t backlog = 0;
      for (topo::HostId h : sel.senders[static_cast<std::size_t>(r)]) {
        backlog += nis.at(h)->injection_queue_depth() * t_snd_ns;
      }
      sel.queue_ns[static_cast<std::size_t>(r)] = backlog;
      s += backlog;
      if (sel.dead_member[static_cast<std::size_t>(r)] != 0) {
        s += kDeadPenalty;
      }
      sel.snap[static_cast<std::size_t>(r)] = s;
      for (std::int32_t b = 0; b < 64; b += 8) {
        sel.digest ^= static_cast<std::uint64_t>(s >> b) & 0xffu;
        sel.digest *= 1099511628211ull;  // FNV-1a prime
      }
    }
    for (std::int32_t c : sel.union_channels) {
      sel.prev_block[static_cast<std::size_t>(c)] =
          network.channel_block_ns(c);
    }
    ++sel.snapshots;
  };

  // Hotness threshold on the forwarder backlog: the stream's own copies
  // never queue more than about one send per participant fabric-wide
  // (each in-flight packet occupies one coprocessor at a time), so a
  // member whose forwarders hold kHotQueueFactor × participants' worth
  // of queued sends is buried under exogenous traffic, not its own.
  constexpr std::int64_t kHotQueueFactor = 2;
  const std::int64_t hot_queue_ns =
      kHotQueueFactor * static_cast<std::int64_t>(base.size()) * t_snd_ns;
  const auto member_hot = [&](std::size_t r) {
    return sel.dead_member[r] != 0 || sel.queue_ns[r] > hot_queue_ns;
  };
  const auto select_member = [&](std::int32_t g) -> std::size_t {
    const auto home = static_cast<std::size_t>(g % R);
    std::size_t best = home;
    if (member_hot(home)) {
      // The static member is decisively congested or broken: cover with
      // the cheapest clean member — score plus a sent-count balance
      // term, strict-< argmin over the (g + i) mod R probe order so
      // covering work round-robins when scores tie. If every member is
      // hot there is nothing better to do than stay on the rotation.
      std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
      for (std::int32_t i = 0; i < R; ++i) {
        const auto r = static_cast<std::size_t>((g + i) % R);
        if (member_hot(r)) continue;
        const std::int64_t score = sel.snap[r] + sel.sent[r] * w_pkt;
        if (score < best_score) {
          best = r;
          best_score = score;
        }
      }
    }
    ++sel.sent[best];
    ++sel.issued;
    return best;
  };

  // Telemetry snapshots: a self-rescheduling chain with one steady-state
  // packet period between samples — long enough for fresh block-time
  // deltas, short enough to react within a handful of packets. The chain
  // replays one FIFO key reserved during setup, so each sample fires
  // before every same-instant event the run schedules and sees the state
  // as of the start of that instant. It stops once the stream has fully
  // issued or the root died, after at most one trailing no-op snapshot.
  const sim::Time snap_period = sim::Time::ns(w_pkt);
  std::function<void()> snapshot_tick;
  sim::Time next_snap = snap_period;
  std::uint64_t snap_key = 0;
  if (adaptive) snap_key = simctx.reserve_order();
  const auto schedule_snapshot = [&] {
    simctx.schedule_at_keyed(next_snap, snap_key, snapshot_tick);
  };
  snapshot_tick = [&] {
    if (sel.issued >= S || !network.host_alive(root)) return;
    score_snapshot();
    next_snap = next_snap + snap_period;
    schedule_snapshot();
  };
  if (adaptive) schedule_snapshot();

  std::vector<net::MessageId> stream_messages;
  for (std::int32_t r = 0; r < R; ++r) {
    stream_messages.push_back(static_cast<net::MessageId>(r + 1));
  }
  if (adaptive) {
    simctx.schedule_at(
        sim::Time::zero(),
        [&nis, &hosts, &select_member, stream_messages, root, S] {
          static_cast<netif::FpfsNi&>(*nis.at(root))
              .start_streaming_adaptive(stream_messages, S, *hosts.at(root),
                                        select_member);
        });
  } else {
    simctx.schedule_at(
        sim::Time::zero(), [&nis, &hosts, stream_messages, root] {
          static_cast<netif::FpfsNi&>(*nis.at(root))
              .start_streaming(stream_messages, *hosts.at(root));
        });
  }
  for (std::int32_t f = 0; f < F; ++f) {
    const auto& flow = config_.background[static_cast<std::size_t>(f)];
    const auto message = static_cast<net::MessageId>(R + 1 + f);
    simctx.schedule_at(flow.start, [&nis, &hosts, src = flow.src, message] {
      nis.at(src)->start_from_host(message, *hosts.at(src));
    });
  }
  simctx.run();
  if (network.in_flight() != 0) {
    throw std::runtime_error(
        "MulticastEngine: network deadlock (worms still in flight)");
  }

  StreamingResult result;
  result.stream_packets = S;
  result.rotation_requested = plan.requested;
  result.rotation_used = R;
  result.overlap_mean = plan.overlap_mean();
  result.overlap_max = plan.overlap_max();

  // Repair. All fault events fire during the first drain (plans are
  // scheduled up front), so the dead set below is final.
  //
  // Root alive: patch the rotation set incrementally (replan_rotation —
  // members untouched by the dead set survive verbatim, broken members
  // are re-planned over their surviving chain) and resend only the
  // *missing* stream indices, round-robin across the patched members, so
  // the repair phase keeps R-way rotation throughput instead of
  // collapsing to one whole-stream resend down a single surviving tree.
  //
  // Root dead: per-packet initiator handoff — for every missing index
  // the lowest-ranked surviving destination that holds it becomes that
  // packet's initiator; indices group by initiator into handoff
  // messages. Indices no survivor holds died with the root (honest
  // partial). Repair and handoff messages ride route class 0: the
  // primary table is the one rebuilt around the faults, and a repair
  // tree's edges are not the edges a member's salted footprint cleared.
  topo::HostId eff_root = root;
  if ((faulty || lossy) && config_.repair.max_attempts > 0) {
    std::int32_t next_message = R + F + 1;
    const auto dead = dead_switch_channels(
        topology_, network.fault_state(), routes_.virtual_channels());
    std::vector<topo::HostId> dead_hosts;
    for (topo::HostId h : base.nodes) {
      if (!network.host_alive(h)) dead_hosts.push_back(h);
    }
    core::RotationPlan live;
    if (network.host_alive(root)) {
      auto patched = core::replan_rotation(topology_, network.routes(), plan,
                                           dead, dead_hosts);
      live = std::move(patched.plan);
      result.replans = patched.rebuilt;
    }
    const std::int32_t fanout = std::max(plan.fanout_bound, 1);
    const auto needs = [&](topo::HostId h) {
      return h != root && seen_count[static_cast<std::size_t>(h)] < S;
    };
    for (std::int32_t round = 1; round <= config_.repair.max_attempts;
         ++round) {
      const sim::Time wait =
          config_.repair.backoff * (sim::Time::rep{1} << (round - 1));
      const sim::Time start_at = simctx.now() + wait;
      bool scheduled = false;
      const auto launch = [&](topo::HostId initiator,
                              const std::vector<topo::HostId>& order,
                              std::vector<std::int32_t> share) {
        const auto rtree = plan_repair_tree(
            initiator, order, needs,
            [&](topo::HostId h) { return network.reachable(initiator, h); },
            fanout);
        if (!rtree) return false;
        const auto message = static_cast<net::MessageId>(next_message++);
        const auto count = static_cast<std::int32_t>(share.size());
        for (topo::HostId h : rtree->nodes) {
          netif::ForwardingEntry entry;
          entry.children = rtree->children.at(h);
          entry.packet_count = count;
          entry.is_destination = (h != initiator);
          entry.route_class = 0;
          nis.at(h)->install(message, entry);
        }
        result.packets_resent += count;
        msg_stream.push_back(MsgMap{1, 0, std::move(share)});
        simctx.schedule_at(start_at, [&nis, &hosts, initiator, message] {
          nis.at(initiator)->start_from_host(message, *hosts.at(initiator));
        });
        return true;
      };
      if (network.host_alive(root)) {
        // Union of missing indices over still-needy reachable dests.
        std::vector<std::uint8_t> miss(static_cast<std::size_t>(S), 0);
        for (topo::HostId h : base.nodes) {
          if (!needs(h) || !network.reachable(root, h)) continue;
          const auto& bits = seen[static_cast<std::size_t>(h)];
          for (std::int32_t g = 0; g < S; ++g) {
            if (bits[static_cast<std::size_t>(g)] == 0) {
              miss[static_cast<std::size_t>(g)] = 1;
            }
          }
        }
        std::vector<std::int32_t> missing;
        for (std::int32_t g = 0; g < S; ++g) {
          if (miss[static_cast<std::size_t>(g)] != 0) missing.push_back(g);
        }
        if (missing.empty()) break;
        const std::int32_t M = std::max(live.size(), 1);
        // Adaptive: rescore the patched members — rank them by the
        // cumulative block time their footprints absorbed (stable by
        // index), so the larger round-robin shares land on the members
        // the fabric treated best. Static keeps plan order.
        std::vector<std::size_t> rank(static_cast<std::size_t>(M));
        for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
        if (adaptive && !live.members.empty()) {
          std::vector<std::int64_t> cost(live.members.size(), 0);
          for (std::size_t i = 0; i < live.members.size(); ++i) {
            for (std::int32_t c : live.members[i].footprint) {
              cost[i] += network.channel_block_ns(c);
            }
          }
          std::stable_sort(rank.begin(), rank.end(),
                           [&cost](std::size_t a, std::size_t b) {
                             return cost[a] < cost[b];
                           });
        }
        for (std::int32_t i = 0; i < M; ++i) {
          std::vector<std::int32_t> share;
          for (std::size_t j = static_cast<std::size_t>(i);
               j < missing.size(); j += static_cast<std::size_t>(M)) {
            share.push_back(missing[j]);
          }
          if (share.empty()) continue;
          const std::size_t mi = rank[static_cast<std::size_t>(i)];
          const std::vector<topo::HostId>& order =
              live.members.empty() ? base.nodes
                                   : live.members[mi].tree.nodes;
          if (launch(root, order, std::move(share))) {
            ++result.repairs;
            scheduled = true;
          }
        }
      } else if (config_.repair.root_handoff) {
        // The reachability reference after the root died: the
        // lowest-ranked surviving destination holding any packet.
        if (eff_root == root) {
          for (topo::HostId h : base.nodes) {
            if (h != root && network.host_alive(h) &&
                seen_count[static_cast<std::size_t>(h)] > 0) {
              eff_root = h;
              break;
            }
          }
          if (eff_root == root) break;  // the stream died with the root
        }
        // Per-packet election over surviving holders, grouped by
        // initiator. base.nodes order makes the election deterministic.
        std::vector<std::pair<topo::HostId, std::vector<std::int32_t>>>
            groups;
        std::vector<std::uint8_t> miss(static_cast<std::size_t>(S), 0);
        for (topo::HostId h : base.nodes) {
          if (!needs(h) || !network.host_alive(h)) continue;
          const auto& bits = seen[static_cast<std::size_t>(h)];
          for (std::int32_t g = 0; g < S; ++g) {
            if (bits[static_cast<std::size_t>(g)] == 0) {
              miss[static_cast<std::size_t>(g)] = 1;
            }
          }
        }
        for (std::int32_t g = 0; g < S; ++g) {
          if (miss[static_cast<std::size_t>(g)] == 0) continue;
          topo::HostId init = topo::kInvalidId;
          for (topo::HostId h : base.nodes) {
            if (h == root || !network.host_alive(h)) continue;
            if (seen[static_cast<std::size_t>(h)]
                    [static_cast<std::size_t>(g)] != 0) {
              init = h;
              break;
            }
          }
          if (init == topo::kInvalidId) continue;  // died with the root
          auto it = std::find_if(groups.begin(), groups.end(),
                                 [init](const auto& grp) {
                                   return grp.first == init;
                                 });
          if (it == groups.end()) {
            groups.emplace_back(init, std::vector<std::int32_t>{});
            it = groups.end() - 1;
          }
          it->second.push_back(g);
        }
        if (groups.empty()) break;
        for (auto& [init, share] : groups) {
          if (launch(init, base.nodes, std::move(share))) {
            ++result.root_handoffs;
            scheduled = true;
          }
        }
      }
      if (!scheduled) break;
      simctx.run();
      if (network.in_flight() != 0) {
        throw std::runtime_error(
            "MulticastEngine: network deadlock (worms still in flight)");
      }
    }
  }
  result.effective_root = eff_root;

  // (time, host, index) keys are unique, so the sorts give one total
  // order.
  std::sort(packets_all.begin(), packets_all.end(),
            [](const auto& a, const auto& b) {
              return std::make_tuple(std::get<2>(a), std::get<0>(a),
                                     std::get<1>(a)) <
                     std::make_tuple(std::get<2>(b), std::get<0>(b),
                                     std::get<1>(b));
            });
  std::sort(host_all.begin(), host_all.end(),
            [](const auto& a, const auto& b) {
              return std::make_tuple(a.second, a.first) <
                     std::make_tuple(b.second, b.first);
            });

  if (!packets_all.empty()) {
    result.ni_makespan = std::get<2>(packets_all.back());
  }
  if (!host_all.empty()) result.makespan = host_all.back().second;
  result.packets_delivered = static_cast<std::int64_t>(packets_all.size());

  // Per-destination in-order completion: packet g completes once
  // packets 0..g have all arrived, i.e. at the running max of their
  // arrival times along the stream. The gaps between consecutive
  // in-order completions are what an in-order consumer stalls on; p99
  // is pooled over every destination's gap sequence.
  {
    std::unordered_map<topo::HostId, std::vector<sim::Time>> arrival;
    for (topo::HostId h : base.nodes) {
      if (h != root &&
          seen_count[static_cast<std::size_t>(h)] == S) {
        arrival.emplace(h, std::vector<sim::Time>(static_cast<std::size_t>(S)));
      }
    }
    for (const auto& [h, g, t] : packets_all) {
      if (auto it = arrival.find(h); it != arrival.end()) {
        it->second[static_cast<std::size_t>(g)] = t;
      }
    }
    std::vector<sim::Time> gaps;
    for (topo::HostId h : base.nodes) {
      const auto it = arrival.find(h);
      if (it == arrival.end()) continue;
      sim::Time inorder = it->second.front();
      for (std::int32_t g = 1; g < S; ++g) {
        const sim::Time next =
            std::max(inorder, it->second[static_cast<std::size_t>(g)]);
        gaps.push_back(next - inorder);
        inorder = next;
      }
    }
    if (!gaps.empty()) {
      std::sort(gaps.begin(), gaps.end());
      const auto n = gaps.size();
      const std::size_t ix = std::min(n - 1, (n * 99 + 99) / 100 - 1);
      result.p99_gap = gaps[ix];
    }
  }

  std::unordered_map<topo::HostId, sim::Time> done;
  for (const auto& [h, t] : host_all) done.emplace(h, t);
  for (topo::HostId h : base.nodes) {
    if (h == root) continue;
    DestinationStatus st;
    st.host = h;
    st.reachable = network.reachable(eff_root, h);
    if (auto it = done.find(h); it != done.end()) {
      st.delivered = true;
      st.completed_at = it->second;
    }
    result.destinations.push_back(st);
  }
  const auto expected = result.destinations.size();
  if (!faulty && !lossy &&
      static_cast<std::size_t>(
          std::count_if(result.destinations.begin(),
                        result.destinations.end(),
                        [](const DestinationStatus& d) {
                          return d.delivered;
                        })) != expected) {
    throw std::runtime_error(
        "MulticastEngine: streaming broadcast did not complete");
  }
  {
    std::size_t delivered = 0;
    for (const auto& d : result.destinations) delivered += d.delivered ? 1 : 0;
    result.outcome = (expected == 0 || delivered == expected)
                         ? Outcome::kComplete
                         : (delivered == 0 ? Outcome::kFailed
                                           : Outcome::kPartial);
  }

  if (result.ni_makespan > sim::Time::zero()) {
    const double flits =
        static_cast<double>(result.packets_delivered) *
        (static_cast<double>(config_.network.packet_bytes) / 8.0);
    result.flits_per_us = flits / result.ni_makespan.as_us();
  }
  result.selection = adaptive ? Selection::kAdaptive : Selection::kStatic;
  result.member_packets.assign(static_cast<std::size_t>(R), 0);
  result.member_ni_work_us.assign(static_cast<std::size_t>(R), 0.0);
  for (std::int32_t r = 0; r < R; ++r) {
    const std::int64_t n =
        adaptive ? sel.sent[static_cast<std::size_t>(r)]
                 : static_cast<std::int64_t>((S - r + R - 1) / R);
    result.member_packets[static_cast<std::size_t>(r)] = n;
    const auto& member = plan.members[static_cast<std::size_t>(r)];
    std::int64_t bottleneck_ns = 0;
    for (topo::HostId h : member.tree.nodes) {
      std::int64_t work =
          static_cast<std::int64_t>(member.tree.children.at(h).size()) *
          t_snd_ns;
      if (h != root) work += config_.params.t_rcv.count_ns();
      bottleneck_ns = std::max(bottleneck_ns, work);
    }
    result.member_ni_work_us[static_cast<std::size_t>(r)] =
        static_cast<double>(n) * static_cast<double>(bottleneck_ns) / 1000.0;
  }
  result.telemetry_snapshots = adaptive ? sel.snapshots : 0;
  result.telemetry_digest = adaptive ? sel.digest : 0;
  result.total_channel_block_time = network.total_block_time();
  result.events_dispatched =
      static_cast<std::int64_t>(simctx.events_dispatched());
  return result;
}

}  // namespace nimcast::mcast
