#include "traffic/traffic_engine.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "netif/host.hpp"
#include "netif/smart_ni.hpp"
#include "network/wormhole_network.hpp"
#include "routing/route_alternatives.hpp"
#include "sim/simulator.hpp"

namespace nimcast::traffic {

namespace {

/// One launchable message of the flattened mix. Tree messages ride a
/// workload tree; a null tree is a two-node gather leg src -> dst (the
/// collective incast phase). Message id = plan index + 1.
struct MsgPlan {
  std::size_t op = 0;
  std::int32_t phase = 0;
  const core::HostTree* tree = nullptr;
  topo::HostId src = topo::kInvalidId;
  topo::HostId dst = topo::kInvalidId;
  std::int32_t packets = 1;
  /// Destinations that must complete this message.
  std::int32_t expected = 0;

  [[nodiscard]] topo::HostId root() const { return tree ? tree->root : src; }
};

/// Flattens the mix: multicasts and plain streams are one phase-0 tree
/// message; churn streams split into a phase-0 prefix on `tree` and a
/// phase-1 suffix on `tree2`; collectives gather every member to the
/// root (phase 0, one two-node message per member) then broadcast back
/// down the tree (phase 1).
std::vector<MsgPlan> build_plans(const Workload& workload) {
  std::vector<MsgPlan> plans;
  for (std::size_t op = 0; op < workload.ops.size(); ++op) {
    const TrafficOp& o = workload.ops[op];
    switch (o.cls) {
      case OpClass::kMulticast:
      case OpClass::kStream:
        if (o.churn) {
          plans.push_back(MsgPlan{op, 0, &o.tree, topo::kInvalidId,
                                  topo::kInvalidId, o.split,
                                  o.tree.size() - 1});
          plans.push_back(MsgPlan{op, 1, &o.tree2, topo::kInvalidId,
                                  topo::kInvalidId, o.packets - o.split,
                                  o.tree2.size() - 1});
        } else {
          plans.push_back(MsgPlan{op, 0, &o.tree, topo::kInvalidId,
                                  topo::kInvalidId, o.packets,
                                  o.tree.size() - 1});
        }
        break;
      case OpClass::kCollective:
        for (topo::HostId h : o.tree.nodes) {
          if (h == o.tree.root) continue;
          plans.push_back(
              MsgPlan{op, 0, nullptr, h, o.tree.root, o.packets, 1});
        }
        plans.push_back(MsgPlan{op, 1, &o.tree, topo::kInvalidId,
                                topo::kInvalidId, o.packets,
                                o.tree.size() - 1});
        break;
    }
  }
  return plans;
}

void collect_edges(const MsgPlan& m,
                   std::vector<std::pair<topo::HostId, topo::HostId>>& out) {
  if (m.tree) {
    for (topo::HostId h : m.tree->nodes) {
      for (topo::HostId c : m.tree->children.at(h)) out.emplace_back(h, c);
    }
  } else {
    out.emplace_back(m.src, m.dst);
  }
}

void validate_workload(const topo::Topology& topology,
                       const Workload& workload) {
  if (workload.ops.empty()) {
    throw std::invalid_argument("TrafficEngine: empty workload");
  }
  sim::Time prev = sim::Time::zero();
  for (const TrafficOp& o : workload.ops) {
    if (o.arrival < prev) {
      throw std::invalid_argument(
          "TrafficEngine: arrivals not nondecreasing");
    }
    prev = o.arrival;
    if (o.packets < 1) {
      throw std::invalid_argument("TrafficEngine: packets < 1");
    }
    if (o.tree.size() < 2) {
      throw std::invalid_argument("TrafficEngine: group smaller than 2");
    }
    for (topo::HostId h : o.tree.nodes) {
      if (h < 0 || h >= topology.num_hosts()) {
        throw std::invalid_argument("TrafficEngine: host out of range");
      }
    }
    if (o.churn) {
      if (o.cls != OpClass::kStream) {
        throw std::invalid_argument(
            "TrafficEngine: churn on a non-stream operation");
      }
      if (o.split < 1 || o.split >= o.packets) {
        throw std::invalid_argument(
            "TrafficEngine: churn split out of [1, packets)");
      }
      if (o.tree2.size() < 1 || o.tree2.root != o.tree.root) {
        throw std::invalid_argument(
            "TrafficEngine: churn re-bind disagrees on root");
      }
      for (topo::HostId h : o.tree2.nodes) {
        if (h < 0 || h >= topology.num_hosts()) {
          throw std::invalid_argument("TrafficEngine: host out of range");
        }
      }
    }
  }
}

}  // namespace

TrafficEngine::TrafficEngine(const topo::Topology& topology,
                             const routing::RouteTable& routes,
                             TrafficConfig config)
    : topology_{topology}, routes_{routes}, config_{config} {
  if (!config_.network.faults.empty()) {
    throw std::invalid_argument(
        "TrafficEngine: fault plans are not supported (the multi-tenant "
        "engine runs a pristine fabric; repair interacting with admission "
        "control is a separate workload)");
  }
  if (config_.network.loss_rate > 0.0) {
    throw std::invalid_argument("TrafficEngine: loss is not supported");
  }
}

TrafficResult TrafficEngine::run(const Workload& workload) const {
  validate_workload(topology_, workload);
  const std::vector<MsgPlan> plans = build_plans(workload);
  const std::size_t num_ops = workload.ops.size();
  const auto num_hosts = static_cast<std::size_t>(topology_.num_hosts());

  // Per-op message index lists by phase, participants, channel
  // footprints (every message of the op, forward edge direction — the
  // switch channels the op's worms will fight over).
  std::vector<std::vector<std::size_t>> op_msgs0(num_ops);
  std::vector<std::vector<std::size_t>> op_msgs1(num_ops);
  std::vector<std::vector<std::int32_t>> op_foot(num_ops);
  std::vector<std::uint8_t> participant(num_hosts, 0);
  {
    std::vector<std::vector<std::pair<topo::HostId, topo::HostId>>> op_edges(
        num_ops);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const MsgPlan& m = plans[i];
      (m.phase == 0 ? op_msgs0 : op_msgs1)[m.op].push_back(i);
      collect_edges(m, op_edges[m.op]);
      if (m.tree) {
        for (topo::HostId h : m.tree->nodes) {
          participant[static_cast<std::size_t>(h)] = 1;
        }
      } else {
        participant[static_cast<std::size_t>(m.src)] = 1;
        participant[static_cast<std::size_t>(m.dst)] = 1;
      }
    }
    for (std::size_t op = 0; op < num_ops; ++op) {
      op_foot[op] =
          routing::edge_channel_footprint(topology_, routes_, op_edges[op]);
    }
  }

  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology_, routes_, config_.network};

  // Derived scheduler knobs. The tick period is one steady-state packet
  // service time (receive + widest forwarding fan-out of the mix) — long
  // enough for fresh block-time deltas between re-scores, short enough
  // to react within a packet or two. A channel is telemetry-hot when it
  // blocked worms for ~4 packet serialization times inside one tick.
  SchedulerConfig scfg = config_.scheduler;
  if (scfg.tick == sim::Time::zero()) {
    std::int64_t fanout = 1;
    for (const MsgPlan& m : plans) {
      if (!m.tree) continue;
      for (topo::HostId h : m.tree->nodes) {
        fanout = std::max(
            fanout, static_cast<std::int64_t>(m.tree->children.at(h).size()));
      }
    }
    scfg.tick = config_.params.t_rcv + config_.params.t_snd * fanout;
  }
  if (scfg.hot_block_ns == 0) {
    scfg.hot_block_ns = 4 * config_.network.serialization_time().count_ns();
  }
  GroupScheduler sched{scfg, network.num_channels()};

  // NIs and hosts indexed by HostId; null for non-participants.
  std::vector<std::unique_ptr<netif::FpfsNi>> nis(num_hosts);
  std::vector<std::unique_ptr<netif::Host>> hosts(num_hosts);
  for (std::size_t h = 0; h < num_hosts; ++h) {
    if (participant[h] == 0) continue;
    const auto id = static_cast<topo::HostId>(h);
    nis[h] =
        std::make_unique<netif::FpfsNi>(simctx, network, config_.params, id);
    hosts[h] = std::make_unique<netif::Host>(simctx, id, config_.params);
  }
  const auto ni_of = [&](topo::HostId h) -> netif::FpfsNi& {
    return *nis[static_cast<std::size_t>(h)];
  };
  const auto host_of = [&](topo::HostId h) -> netif::Host& {
    return *hosts[static_cast<std::size_t>(h)];
  };

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const MsgPlan& m = plans[i];
    const auto message = static_cast<net::MessageId>(i + 1);
    if (m.tree) {
      for (topo::HostId h : m.tree->nodes) {
        netif::ForwardingEntry entry;
        entry.children = m.tree->children.at(h);
        entry.packet_count = m.packets;
        entry.is_destination = (h != m.tree->root);
        ni_of(h).install(message, entry);
      }
    } else {
      netif::ForwardingEntry at_src;
      at_src.children = {m.dst};
      at_src.packet_count = m.packets;
      at_src.is_destination = false;
      ni_of(m.src).install(message, at_src);
      netif::ForwardingEntry at_dst;
      at_dst.packet_count = m.packets;
      at_dst.is_destination = true;
      ni_of(m.dst).install(message, at_dst);
    }
  }

  // Per-(message, destination) NI-completion flags, one flat plans x
  // hosts byte matrix.
  std::vector<std::uint8_t> arrived(plans.size() * num_hosts, 0);
  // Destinations each message still waits for; the sink that brings a
  // count to zero logs the message as done.
  std::vector<std::int32_t> remaining(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    remaining[i] = plans[i].expected;
  }

  // host_done: host-level completion records, sorted by (time, host,
  // message) after the run. done_msgs: messages whose last destination
  // completed since the coordinator last drained the list.
  std::vector<std::tuple<std::size_t, topo::HostId, sim::Time>> host_done;
  std::vector<std::size_t> done_msgs;

  for (const auto& ni : nis) {
    if (!ni) continue;
    ni->on_message_at_ni = [&](topo::HostId dest, net::MessageId msg) {
      const auto mi = static_cast<std::size_t>(msg - 1);
      auto& seen = arrived[mi * num_hosts + static_cast<std::size_t>(dest)];
      if (seen != 0) return;
      seen = 1;
      if (--remaining[mi] == 0) done_msgs.push_back(mi);
      host_of(dest).software_receive([&, dest, msg, mi] {
        host_done.emplace_back(mi, dest, simctx.now());
        ni_of(dest).after_host_receive(msg, host_of(dest));
      });
    };
  }

  // ---- Coordinator state. Mutated ONLY inside coordinated events, so
  // every admission decision is a pure function of simulated history.
  struct OpState {
    bool phase1_launched = false;
    std::int32_t waited = 0;
    /// Messages of each phase not yet complete at every destination.
    std::int32_t left0 = 0;
    std::int32_t left1 = 0;
    sim::Time admitted_at;
  };
  std::vector<OpState> st(num_ops);
  for (std::size_t op = 0; op < num_ops; ++op) {
    st[op].left0 = static_cast<std::int32_t>(op_msgs0[op].size());
    st[op].left1 = static_cast<std::int32_t>(op_msgs1[op].size());
  }
  std::vector<std::size_t> deferred;  // op indices, arrival order
  std::vector<std::size_t> finished;  // ops a drain completed a phase of
  const bool paced = scfg.policy == Policy::kPaced;
  std::vector<std::int64_t> block_scratch(
      paced ? static_cast<std::size_t>(network.num_channels()) : 0, 0);
  // Admitted ops whose second phase has not launched yet.
  std::int64_t awaiting_phase1 = 0;
  std::int64_t ticks = 0;
  bool tick_active = false;
  sim::Time next_tick;

  const auto launch_msg = [&](std::size_t i) {
    const auto message = static_cast<net::MessageId>(i + 1);
    const topo::HostId root = plans[i].root();
    ni_of(root).start_from_host(message, host_of(root));
  };

  // Runs at every coordinated instant (arrival or tick): fold the
  // fabric's view into the scheduler (paced only — FIFO never reads
  // it), drain the messages completed since the last instant into their
  // ops' phase counters, then releases before phase-1 launches, each in
  // op order, so freed capacity is visible to every decision at the
  // same instant. Only an op a drain just finished a phase of can be
  // due either: release needs its last phase done, a launch its
  // phase 0. Each phase finishes once, so each op releases once.
  const auto drain = [&] {
    if (paced) {
      for (std::size_t c = 0; c < block_scratch.size(); ++c) {
        block_scratch[c] =
            network.channel_block_ns(static_cast<std::int32_t>(c));
      }
      sched.refresh_telemetry(block_scratch);
    }
    finished.clear();
    for (std::size_t i : done_msgs) {
      const MsgPlan& m = plans[i];
      OpState& s = st[m.op];
      if (--(m.phase == 0 ? s.left0 : s.left1) == 0) {
        finished.push_back(m.op);
      }
    }
    done_msgs.clear();
    std::sort(finished.begin(), finished.end());
    for (std::size_t op : finished) {
      const OpState& s = st[op];
      if (s.phase1_launched && s.left0 == 0 && s.left1 == 0) {
        sched.release(op_foot[op]);
      }
    }
    for (std::size_t op : finished) {
      OpState& s = st[op];
      if (s.phase1_launched || s.left0 != 0) continue;
      for (std::size_t i : op_msgs1[op]) launch_msg(i);
      s.phase1_launched = true;
      --awaiting_phase1;
    }
  };

  const auto admit_op = [&](std::size_t op, sim::Time at) {
    sched.admit(op_foot[op]);
    OpState& s = st[op];
    s.admitted_at = at;
    s.phase1_launched = op_msgs1[op].empty();
    if (!s.phase1_launched) ++awaiting_phase1;
    for (std::size_t i : op_msgs0[op]) launch_msg(i);
  };

  // The tick chain runs only while it has something to drive: a deferred
  // op waiting for capacity, or an admitted compound op whose second
  // phase still needs launching. Identical under both policies when no
  // deferral happens, which makes pacing byte-identical to the FIFO
  // baseline at single-group offered load.
  const auto need_ticks = [&] {
    return !deferred.empty() || awaiting_phase1 > 0;
  };

  // Coordination keys, reserved before anything else is scheduled: one
  // per arrival in op order, the tick chain's last. Every coordinated
  // event fires before the same-instant events the run schedules, and an
  // arrival fires before a same-instant tick.
  std::vector<std::uint64_t> arrival_keys(num_ops, 0);
  for (std::size_t op = 0; op < num_ops; ++op) {
    arrival_keys[op] = simctx.reserve_order();
  }
  const std::uint64_t tick_key = simctx.reserve_order();

  std::function<void()> tick_fn;
  const auto ensure_tick = [&](sim::Time now) {
    if (tick_active || !need_ticks()) return;
    tick_active = true;
    next_tick = now + scfg.tick;
    simctx.schedule_at_keyed(next_tick, tick_key, tick_fn);
  };
  tick_fn = [&] {
    tick_active = false;
    ++ticks;
    drain();
    std::vector<std::size_t> still;
    for (std::size_t op : deferred) {
      if (sched.would_admit(op_foot[op], st[op].waited)) {
        admit_op(op, next_tick);
      } else {
        ++st[op].waited;
        still.push_back(op);
      }
    }
    deferred = std::move(still);
    if (need_ticks()) {
      tick_active = true;
      next_tick = next_tick + scfg.tick;
      simctx.schedule_at_keyed(next_tick, tick_key, tick_fn);
    }
  };

  for (std::size_t op = 0; op < num_ops; ++op) {
    const sim::Time at = workload.ops[op].arrival;
    simctx.schedule_at_keyed(at, arrival_keys[op], [&, op, at] {
      drain();
      const bool now_ok =
          !paced || (deferred.empty() && sched.would_admit(op_foot[op], 0));
      if (now_ok) {
        admit_op(op, at);
      } else {
        deferred.push_back(op);
      }
      ensure_tick(at);
    });
  }

  simctx.run();
  if (network.in_flight() != 0) {
    throw std::runtime_error(
        "TrafficEngine: network deadlock (worms still in flight)");
  }

  // One total order for the completion records: (time, host, message)
  // keys are unique.
  std::sort(host_done.begin(), host_done.end(),
            [](const auto& a, const auto& b) {
              return std::make_tuple(std::get<2>(a), std::get<1>(a),
                                     std::get<0>(a)) <
                     std::make_tuple(std::get<2>(b), std::get<1>(b),
                                     std::get<0>(b));
            });

  std::vector<std::int32_t> msg_completions(plans.size(), 0);
  std::vector<sim::Time> msg_last(plans.size());
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  const auto fnv = [&digest](std::uint64_t v) {
    for (std::int32_t b = 0; b < 64; b += 8) {
      digest ^= (v >> b) & 0xffu;
      digest *= 1099511628211ull;  // FNV-1a prime
    }
  };
  for (const auto& [mi, h, t] : host_done) {
    ++msg_completions[mi];
    msg_last[mi] = std::max(msg_last[mi], t);
    fnv(static_cast<std::uint64_t>(t.count_ns()));
    fnv(static_cast<std::uint64_t>(h));
    fnv(static_cast<std::uint64_t>(mi));
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (msg_completions[i] != plans[i].expected) {
      throw std::runtime_error(
          "TrafficEngine: message " + std::to_string(i + 1) + " completed " +
          std::to_string(msg_completions[i]) + "/" +
          std::to_string(plans[i].expected) + " destinations");
    }
  }

  TrafficResult result;
  result.ops.resize(num_ops);
  sim::Time last_completion;
  std::int64_t total_deferrals = 0;
  for (std::size_t op = 0; op < num_ops; ++op) {
    const TrafficOp& o = workload.ops[op];
    OpRecord& rec = result.ops[op];
    rec.cls = o.cls;
    rec.arrival = o.arrival;
    rec.admitted = st[op].admitted_at;
    rec.group = o.group_size();
    rec.packets = o.packets;
    rec.churn = o.churn;
    rec.deferral_ticks = st[op].waited;
    total_deferrals += st[op].waited;
    for (const auto& msgs : {op_msgs0[op], op_msgs1[op]}) {
      for (std::size_t i : msgs) {
        rec.completed = std::max(rec.completed, msg_last[i]);
        rec.packets_delivered += static_cast<std::int64_t>(plans[i].expected) *
                                 plans[i].packets;
      }
    }
    result.packets_delivered += rec.packets_delivered;
    last_completion = std::max(last_completion, rec.completed);
  }
  result.makespan = last_completion - workload.ops.front().arrival;
  result.deferral_ticks = total_deferrals;
  result.ticks = ticks;
  if (result.makespan > sim::Time::zero()) {
    result.ops_per_sec = static_cast<double>(num_ops) /
                         (result.makespan.as_us() * 1.0e-6);
    const double flits =
        static_cast<double>(result.packets_delivered) *
        (static_cast<double>(config_.network.packet_bytes) / 8.0);
    result.flits_per_us = flits / result.makespan.as_us();
  }
  result.total_channel_block_time = network.total_block_time();
  result.events_dispatched =
      static_cast<std::int64_t>(simctx.events_dispatched());
  result.digest = digest;
  return result;
}

}  // namespace nimcast::traffic
