#include "traffic/traffic_engine.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "mcast/session.hpp"
#include "netif/reliable_ni.hpp"
#include "routing/route_alternatives.hpp"
#include "sim/rng.hpp"
#include "traffic/collective_op.hpp"
#include "traffic/stream_op.hpp"

namespace nimcast::traffic {

namespace {

/// A channel is telemetry-hot when it blocked worms for this many packet
/// serialization times inside one coordinator tick.
constexpr std::int64_t kHotBlockPackets = 4;

/// One launchable message of the flattened mix. Tree messages ride a
/// workload tree; a null tree is a two-node gather leg src -> dst (the
/// collective incast phase).
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

  /// A message down every edge of `t`, to all of its non-root nodes.
  static MsgPlan on_tree(std::size_t op, std::int32_t phase,
                         const core::HostTree& t, std::int32_t packets) {
    return {op, phase, &t, topo::kInvalidId, topo::kInvalidId, packets,
            t.size() - 1};
  }
};

/// Flattens the mix: multicasts, streams and real-kind collectives are
/// one phase-0 tree message (a rotation stream's on its member 0, which
/// its StreamOp splits into member messages); churn streams split into a
/// phase-0 prefix on first_tree() and a phase-1 suffix on `tree2`;
/// emulated collectives gather every member to the root (phase 0, one
/// two-node message per member) then broadcast back down the tree
/// (phase 1).
std::vector<MsgPlan> build_plans(const Workload& workload) {
  std::vector<MsgPlan> plans;
  for (std::size_t op = 0; op < workload.ops.size(); ++op) {
    const TrafficOp& o = workload.ops[op];
    switch (o.cls) {
      case OpClass::kMulticast:
      case OpClass::kStream:
        plans.push_back(MsgPlan::on_tree(op, 0, o.first_tree(),
                                         o.churn ? o.split : o.packets));
        if (o.churn) {
          plans.push_back(
              MsgPlan::on_tree(op, 1, o.tree2, o.packets - o.split));
        }
        break;
      case OpClass::kCollective:
        if (o.kind) {
          plans.push_back(MsgPlan::on_tree(op, 0, o.tree, o.packets));
          plans.back().expected =
              CollectiveOp::completing_hosts(*o.kind, o.tree.size());
          break;
        }
        for (topo::HostId h : o.tree.nodes) {
          if (h == o.tree.root) continue;
          plans.push_back(
              MsgPlan{op, 0, nullptr, h, o.tree.root, o.packets, 1});
        }
        plans.push_back(MsgPlan::on_tree(op, 1, o.tree, o.packets));
        break;
    }
  }
  return plans;
}

void collect_edges(const MsgPlan& m,
                   std::vector<std::pair<topo::HostId, topo::HostId>>& out) {
  if (m.tree) {
    const core::HostTree& t = *m.tree;
    for (std::size_t r = 0; r < t.nodes.size(); ++r) {
      for (topo::HostId c : t.children_at(r)) out.emplace_back(t.nodes[r], c);
    }
  } else {
    out.emplace_back(m.src, m.dst);
  }
}

/// The widest forwarding fan-out of any tree message (at least 1).
std::int64_t widest_fanout(const std::vector<MsgPlan>& plans) {
  std::size_t fanout = 1;
  for (const MsgPlan& m : plans) {
    if (!m.tree) continue;
    for (std::size_t r = 0; r < m.tree->nodes.size(); ++r) {
      fanout = std::max(fanout, m.tree->children_at(r).size());
    }
  }
  return static_cast<std::int64_t>(fanout);
}

/// A rotation plan rides a stream op with no `tree` of its own (of one
/// member if it churns) on kSmartFpfs NIs, and its members agree on
/// root and participants.
void validate_rotation(const TrafficConfig& config, const TrafficOp& o) {
  const auto& members = o.rotation->members;
  const auto group = [](const core::HostTree& t) {
    std::vector<topo::HostId> nodes = t.nodes;
    std::sort(nodes.begin(), nodes.end());
    return std::pair{t.root, nodes};
  };
  if (o.cls != OpClass::kStream || !o.tree.nodes.empty() ||
      members.empty() || (o.churn && members.size() > 1) ||
      config.style != mcast::NiStyle::kSmartFpfs ||
      !std::all_of(members.begin(), members.end(), [&](const auto& m) {
        return group(m.tree) == group(members.front().tree);
      })) {
    throw std::invalid_argument(
        "TrafficEngine: a rotation stream needs kSmartFpfs NIs, no tree "
        "of its own, members that agree on root and participants, and "
        "one member to churn");
  }
}

void validate_workload(const TrafficConfig& config,
                       const topo::Topology& topology,
                       const Workload& workload) {
  if (workload.ops.empty()) {
    throw std::invalid_argument("TrafficEngine: empty workload");
  }
  const auto valid_host = [&](topo::HostId h) {
    return h >= 0 && h < topology.num_hosts();
  };
  const auto check_hosts = [&](const core::HostTree& t) {
    if (!std::all_of(t.nodes.begin(), t.nodes.end(), valid_host)) {
      throw std::invalid_argument("TrafficEngine: host out of range");
    }
  };
  for (const TrafficOp& o : workload.ops) {
    if (o.rotation) validate_rotation(config, o);
    const core::HostTree& tree = o.first_tree();
    const bool collective = o.cls == OpClass::kCollective;
    // Emulated collectives and churn streams launch a second phase when
    // the first completes.
    const bool compound = (collective && !o.kind) || o.churn;
    if (o.packets < 1) {
      throw std::invalid_argument("TrafficEngine: packets < 1");
    }
    if (o.arrival < sim::Time::zero()) {
      throw std::invalid_argument("TrafficEngine: negative arrival");
    }
    if (tree.size() < (collective || o.churn ? 2 : 1)) {
      throw std::invalid_argument("TrafficEngine: group too small");
    }
    // A second phase may wait forever on a first that faults or loss cut
    // short; the collective firmware has no retransmit.
    if ((compound && !config.network.faults.empty()) ||
        ((collective || o.churn) && config.network.loss_rate > 0.0)) {
      throw std::invalid_argument(
          "TrafficEngine: compound operations (emulated collectives, churn) "
          "cannot run under faults or loss, nor collectives under loss");
    }
    check_hosts(tree);
    if (o.churn) {
      if (o.cls != OpClass::kStream) {
        throw std::invalid_argument(
            "TrafficEngine: churn on a non-stream operation");
      }
      if (o.split < 1 || o.split >= o.packets) {
        throw std::invalid_argument(
            "TrafficEngine: churn split out of [1, packets)");
      }
      if (o.tree2.size() < 1 || o.tree2.root != tree.root) {
        throw std::invalid_argument(
            "TrafficEngine: churn re-bind disagrees on root");
      }
      check_hosts(o.tree2);
    }
  }
  for (const BackgroundFlow& flow : workload.background) {
    if (!valid_host(flow.src) || !valid_host(flow.dst) ||
        flow.src == flow.dst || flow.packets < 1 ||
        flow.start < sim::Time::zero()) {
      throw std::invalid_argument("TrafficEngine: bad background flow");
    }
  }
}

/// Per-op coordinator state. Mutated ONLY inside coordinated events (as
/// are each record's `admitted` and `deferral_ticks`), so every
/// admission decision is a pure function of simulated history.
struct OpState {
  bool phase1_launched = false;
  /// Messages of each phase not yet complete at every destination.
  std::int32_t left0 = 0;
  std::int32_t left1 = 0;
};

/// One TrafficEngine::run call on one Session: the flattened mix, the
/// per-op indexes, and the admission coordinator.
class TrafficRun {
 public:
  TrafficRun(const TrafficConfig& config, const topo::Topology& topology,
             const routing::RouteTable& routes, const Workload& workload,
             sim::Trace* trace)
      : config_{config},
        plans_{build_plans(workload)},
        num_ops_{workload.ops.size()},
        op_msgs0_(num_ops_),
        op_msgs1_(num_ops_),
        op_foot_(num_ops_),
        collectives_(num_ops_),
        streams_(num_ops_),
        st_(num_ops_),
        recs_(num_ops_),
        session_{topology,       routes,        config.params,
                 config.network, config.repair, trace},
        scfg_{derive_scheduler()},
        paced_{scfg_.policy == Policy::kPaced},
        sched_{scfg_, session_.network().num_channels(),
               kHotBlockPackets *
                   config.network.serialization_time().count_ns()},
        background_{workload.background},
        msg_of_(plans_.size()),
        remaining_(plans_.size()),
        msg_ni_last_(plans_.size()) {
    // Per-op message index lists by phase and, for pacing, channel
    // footprints (every message of the op, forward edge direction — the
    // switch channels the op's worms will fight over; FIFO never reads
    // them); one message per plan, ledger key = plan index, on the NIs
    // of its hosts. A rotation stream's member messages carry the
    // untracked key plans + op, and its members take the next free route
    // classes; background flows carry the untracked key plans + ops.
    const netif::ReliabilityParams reliability = reliability_for(routes);
    std::vector<std::vector<std::pair<topo::HostId, topo::HostId>>> op_edges(
        paced_ ? num_ops_ : 0);
    std::int32_t next_class = 1;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      const MsgPlan& m = plans_[i];
      (m.phase == 0 ? op_msgs0_ : op_msgs1_)[m.op].push_back(i);
      remaining_[i] = m.expected;
      const TrafficOp& o = workload.ops[m.op];
      if (m.tree) {
        for (topo::HostId h : m.tree->nodes) {
          session_.add_ni(h, config_.style, reliability);
        }
      }
      if (o.rotation && !o.churn) {  // a churn stream is two tree messages
        streams_[m.op] = std::make_unique<StreamOp>(
            session_, o, i, plans_.size() + m.op, next_class, config,
            topology);
        continue;
      }
      if (paced_) collect_edges(m, op_edges[m.op]);
      const net::MessageId message = session_.new_message(i);
      msg_of_[i] = message;
      if (m.tree) {
        if (o.cls == OpClass::kCollective && o.kind) {
          collectives_[m.op] = std::make_unique<CollectiveOp>(
              session_, o, i, message, config.repair.root_handoff);
        } else {
          session_.install_tree(message, *m.tree, m.packets);
        }
      } else {
        session_.add_ni(m.src, config_.style, reliability);
        session_.add_ni(m.dst, config_.style, reliability);
        session_.install_unicast(message, m.src, m.dst, m.packets);
      }
    }
    for (const BackgroundFlow& flow : background_) {
      session_.add_ni(flow.src, config_.style, reliability);
      session_.add_ni(flow.dst, config_.style, reliability);
      const net::MessageId message =
          session_.new_message(plans_.size() + num_ops_);
      if (first_background_ == 0) first_background_ = message;
      session_.install_unicast(message, flow.src, flow.dst, flow.packets);
    }
    for (std::size_t op = 0; op < num_ops_; ++op) {
      if (paced_) {
        op_foot_[op] = streams_[op] ? streams_[op]->footprint()
                                    : routing::edge_channel_footprint(
                                          topology, routes, op_edges[op]);
      }
      st_[op].left0 = static_cast<std::int32_t>(op_msgs0_[op].size());
      st_[op].left1 = static_cast<std::int32_t>(op_msgs1_[op].size());
      const TrafficOp& o = workload.ops[op];
      OpRecord& rec = recs_[op];
      rec.cls = o.cls;
      rec.arrival = rec.completed = rec.ni_completed = o.arrival;
      rec.group = o.group_size();
      rec.packets = o.packets;
      rec.churn = o.churn;
      rec.effective_root = o.first_tree().root;
      if (streams_[op]) streaming_ = true;
    }
    // The sink that brings a message's outstanding destination count to
    // zero logs it as done for the next coordinated instant.
    session_.track_completions(plans_.size(), [this](std::size_t i) {
      msg_ni_last_[i] = session_.sim().now();
      if (--remaining_[i] == 0) done_msgs_.push_back(i);
    });
    if (!streaming_) return;
    session_.for_each_ni([this](netif::NetworkInterface& ni) {
      ni.on_packet_at_ni = [this](topo::HostId dest, const net::Packet& p) {
        // Plan keys wrap and the background key lands past the ops.
        const std::size_t op = session_.key_of(p.message) - plans_.size();
        if (op < num_ops_) streams_[op]->on_packet(dest, p);
      };
    });
  }

  TrafficResult run() {
    // Coordination keys, reserved before anything else is scheduled
    // (after the keys each adaptive StreamOp's telemetry chain reserved
    // when it was built): one per arrival in op order, then the tick
    // chain's — only when the mix can tick (pacing, or a compound op:
    // the only kind with more than one message), so a FIFO mix of
    // single-phase ops keys its events exactly as a run_many batch.
    // Every coordinated event fires before the same-instant events the
    // run schedules; a snapshot, which only reads, fires first and sees
    // the state at the start of its instant, and an arrival fires before
    // a same-instant tick.
    sim::Simulator& simctx = session_.sim();
    std::vector<std::uint64_t> arrival_keys(num_ops_, 0);
    for (auto& key : arrival_keys) key = simctx.reserve_order();
    if (paced_ || plans_.size() > num_ops_) {
      tick_key_ = simctx.reserve_order();
    }
    for (std::size_t op = 0; op < num_ops_; ++op) {
      const sim::Time at = recs_[op].arrival;
      simctx.schedule_at_keyed(at, arrival_keys[op],
                               [this, op, at] { arrive(op, at); });
    }
    for (std::size_t j = 0; j < background_.size(); ++j) {
      session_.start_at(background_[j].start, background_[j].src,
                        first_background_ + static_cast<net::MessageId>(j));
    }
    session_.drain();
    if (session_.faulty() || (streaming_ && lossy())) repair();
    return finish();
  }

 private:
  /// Derived scheduler knobs. The tick period is one steady-state packet
  /// service time (receive + widest forwarding fan-out of the mix) —
  /// long enough for fresh block-time deltas between re-scores, short
  /// enough to react within a packet or two.
  [[nodiscard]] SchedulerConfig derive_scheduler() const {
    SchedulerConfig scfg = config_.scheduler;
    if (scfg.tick == sim::Time::zero()) {
      scfg.tick = config_.params.t_rcv +
                  config_.params.t_snd * widest_fanout(plans_);
    }
    return scfg;
  }

  /// The reliability parameters the NIs run with: a zero retx_timeout
  /// asks for the derived default, sized to the deepest edge and the
  /// widest fan-out actually in the mix.
  [[nodiscard]] netif::ReliabilityParams reliability_for(
      const routing::RouteTable& routes) const {
    netif::ReliabilityParams reliability = config_.reliability;
    if (config_.style != mcast::NiStyle::kReliableFpfs ||
        reliability.retx_timeout != sim::Time::zero()) {
      return reliability;
    }
    std::vector<std::pair<topo::HostId, topo::HostId>> edges;
    for (const MsgPlan& m : plans_) collect_edges(m, edges);
    std::size_t max_hops = 1;
    for (const auto& [h, c] : edges) {
      max_hops = std::max(max_hops, routes.hops(h, c));
    }
    reliability.retx_timeout = netif::derived_retx_timeout(
        config_.params, config_.network, max_hops,
        static_cast<std::int32_t>(widest_fanout(plans_)), reliability.t_ack);
    return reliability;
  }

  [[nodiscard]] bool lossy() const { return config_.network.loss_rate > 0.0; }

  void launch_msg(std::size_t i) {
    if (CollectiveOp* c = collectives_[plans_[i].op].get()) {
      c->start();
    } else if (StreamOp* s = streams_[plans_[i].op].get()) {
      s->start();
    } else {
      session_.start(plans_[i].root(), msg_of_[i]);
    }
  }

  /// Runs at every coordinated instant (arrival or tick): fold the
  /// fabric's view into the scheduler (paced only — FIFO never reads
  /// it), drain the messages completed since the last instant into their
  /// ops' phase counters, then, in op order, release each op whose last
  /// phase finished and launch the second phase of each whose first did
  /// — before any admission, so freed capacity is visible to every
  /// decision at the same instant. Only an op a drain just finished a
  /// phase of can be due either. Each phase finishes once, so each op
  /// releases once.
  void settle() {
    if (paced_) {
      block_scratch_.resize(
          static_cast<std::size_t>(session_.network().num_channels()));
      for (std::size_t c = 0; c < block_scratch_.size(); ++c) {
        block_scratch_[c] = session_.network().channel_block_ns(
            static_cast<std::int32_t>(c));
      }
      sched_.refresh_telemetry(block_scratch_);
    }
    finished_.clear();
    for (std::size_t i : done_msgs_) {
      const MsgPlan& m = plans_[i];
      OpState& s = st_[m.op];
      if (--(m.phase == 0 ? s.left0 : s.left1) == 0) {
        finished_.push_back(m.op);
      }
    }
    done_msgs_.clear();
    std::sort(finished_.begin(), finished_.end());
    for (std::size_t op : finished_) {
      OpState& s = st_[op];
      if (s.phase1_launched) {
        if (paced_ && s.left0 == 0 && s.left1 == 0) {
          sched_.release(op_foot_[op]);
        }
      } else if (s.left0 == 0) {
        for (std::size_t i : op_msgs1_[op]) launch_msg(i);
        s.phase1_launched = true;
        --awaiting_phase1_;
      }
    }
  }

  void admit(std::size_t op, sim::Time at) {
    if (paced_) sched_.admit(op_foot_[op]);
    OpState& s = st_[op];
    recs_[op].admitted = at;
    s.phase1_launched = op_msgs1_[op].empty();
    if (!s.phase1_launched) ++awaiting_phase1_;
    for (std::size_t i : op_msgs0_[op]) launch_msg(i);
  }

  void arrive(std::size_t op, sim::Time at) {
    settle();
    if (!paced_ ||
        (deferred_.empty() && sched_.would_admit(op_foot_[op], 0))) {
      admit(op, at);
    } else {
      deferred_.push_back(op);
    }
    if (!tick_active_ && need_ticks()) {
      tick_active_ = true;
      next_tick_ = at + scfg_.tick;
      schedule_tick();
    }
  }

  /// The tick chain runs only while it has something to drive: a
  /// deferred op waiting for capacity, or an admitted compound op whose
  /// second phase still needs launching. Identical under both policies
  /// when no deferral happens, which makes pacing byte-identical to the
  /// FIFO baseline at single-group offered load.
  [[nodiscard]] bool need_ticks() const {
    return !deferred_.empty() || awaiting_phase1_ > 0;
  }

  void schedule_tick() {
    session_.sim().schedule_at_keyed(next_tick_, tick_key_,
                                     [this] { tick(); });
  }

  void tick() {
    tick_active_ = false;
    ++ticks_;
    settle();
    std::vector<std::size_t> still;
    for (std::size_t op : deferred_) {
      if (sched_.would_admit(op_foot_[op], recs_[op].deferral_ticks)) {
        admit(op, next_tick_);
      } else {
        ++recs_[op].deferral_ticks;
        still.push_back(op);
      }
    }
    deferred_ = std::move(still);
    if (need_ticks()) {
      tick_active_ = true;
      next_tick_ = next_tick_ + scfg_.tick;
      schedule_tick();
    }
  }

  /// Repair after the mix drained: faulty runs, and lossy runs with a
  /// rotation stream. Every op is then one tree message. Each round
  /// re-parents every plain op's still-missing, still-reachable
  /// destinations into a fresh k-binomial tree in their contention-free
  /// (nodes) order — failed hosts are simply excised — and resends under
  /// a fresh message id of the same ledger key. When an op's root died,
  /// the lowest-ranked surviving destination already holding the payload
  /// is elected (at most once: every fault fires during the first drain)
  /// and drives the rounds from then on. Plain ops repair after faults
  /// only. A real-kind collective runs its own kind's round
  /// (CollectiveOp::repair_round), a rotation stream its own
  /// (StreamOp::repair_round).
  void repair() {
    session_.repair_rounds([&](sim::Time start_at) {
      bool scheduled_any = false;
      for (std::size_t i = 0; i < plans_.size(); ++i) {
        if (CollectiveOp* c = collectives_[plans_[i].op].get()) {
          if (c->repair_round(start_at)) scheduled_any = true;
          continue;
        }
        if (StreamOp* s = streams_[plans_[i].op].get()) {
          if (s->repair_round(start_at)) scheduled_any = true;
          continue;
        }
        if (!session_.faulty()) continue;
        const core::HostTree& tree = *plans_[i].tree;
        OpRecord& rec = recs_[plans_[i].op];
        const auto holds = [&](topo::HostId h) {
          return session_.arrived(i, h);
        };
        topo::HostId root = rec.effective_root;
        if (!session_.network().host_alive(root)) {
          if (!config_.repair.root_handoff) continue;
          // Nothing to hand off when every destination already holds the
          // message: the root died after finishing its work.
          const bool missing = std::any_of(
              tree.nodes.begin(), tree.nodes.end(),
              [&](topo::HostId h) { return h != tree.root && !holds(h); });
          if (!missing) continue;
          root = session_.elect(tree.nodes, tree.root, holds);
          // Nobody holds the payload: it died with the root.
          if (root == topo::kInvalidId) continue;
          rec.effective_root = root;
          ++rec.root_handoffs;
        }
        const auto rtree = session_.repair_tree(
            root, tree.nodes, [&](topo::HostId h) { return !holds(h); },
            tree.root_children());
        if (!rtree) continue;
        const net::MessageId message = session_.new_message(i);
        session_.install_tree(message, *rtree, plans_[i].packets);
        ++rec.repairs;
        session_.start_at(start_at, root, message);
        scheduled_any = true;
      }
      return scheduled_any;
    });
  }

  /// Per message, the destinations that completed it: in (time, host)
  /// order, and in completion-log order. Two CSR arrays over the log
  /// that share their offsets.
  struct Deliveries {
    using Entry = std::pair<topo::HostId, sim::Time>;
    std::vector<std::size_t> offsets;  ///< messages + 1
    std::vector<Entry> entries;
    std::vector<Entry> logged;

    [[nodiscard]] std::span<const Entry> of(std::size_t msg) const {
      return slice(entries, msg);
    }
    [[nodiscard]] std::span<const Entry> in_log_order(std::size_t msg) const {
      return slice(logged, msg);
    }

   private:
    [[nodiscard]] std::span<const Entry> slice(const std::vector<Entry>& v,
                                               std::size_t msg) const {
      return std::span{v}.subspan(offsets[msg],
                                  offsets[msg + 1] - offsets[msg]);
    }
  };

  /// Completes op `op`'s record: timing over all its messages,
  /// deliveries counted from `done` and verdicts of its last message, or
  /// a real-kind collective's or rotation stream's own verdicts.
  void complete_record(std::size_t op, const Deliveries& done) {
    OpRecord& rec = recs_[op];
    std::size_t last = 0;
    for (const auto* msgs : {&op_msgs0_[op], &op_msgs1_[op]}) {
      for (std::size_t i : *msgs) {
        const auto delivered = done.of(i);
        if (!delivered.empty()) {
          rec.completed = std::max(rec.completed, delivered.back().second);
        }
        rec.ni_completed = std::max(rec.ni_completed, msg_ni_last_[i]);
        rec.packets_delivered +=
            static_cast<std::int64_t>(delivered.size()) * plans_[i].packets;
        last = i;
      }
    }
    if (CollectiveOp* c = collectives_[op].get()) {
      c->complete(rec, done.in_log_order(c->key()));
    } else if (StreamOp* s = streams_[op].get()) {
      s->complete(rec, done.of(last));
    } else {
      const core::HostTree& tree = *plans_[last].tree;
      const auto completions = done.of(last);
      rec.completions.assign(completions.begin(), completions.end());
      rec.destinations = session_.verdicts(tree.nodes, tree.root,
                                           rec.effective_root, completions);
      rec.outcome = mcast::outcome_of(rec.destinations);
    }
    rec.root_alive = session_.network().host_alive(rec.effective_root);
  }

  /// Walks the completion log once in one total order, (time, host, key),
  /// into `done`, and returns the order's digest. The ledger admits each
  /// (key, host) once, and the log is appended in dispatch order, so its
  /// times never decrease: only a run of equal times needs the (host,
  /// key) tie-break.
  std::uint64_t reduce_log(Deliveries& done) const {
    const std::vector<mcast::Session::Completion>& log =
        session_.completion_log();
    done.offsets.assign(plans_.size() + 1, 0);
    for (const auto& c : log) ++done.offsets[c.key + 1];
    std::partial_sum(done.offsets.begin(), done.offsets.end(),
                     done.offsets.begin());
    done.entries.resize(log.size());
    done.logged.resize(log.size());
    std::vector<std::size_t> next(done.offsets.begin(),
                                  done.offsets.end() - 1);
    for (const auto& c : log) done.logged[next[c.key]++] = {c.host, c.at};
    std::copy(done.offsets.begin(), done.offsets.end() - 1, next.begin());
    std::uint64_t digest = sim::kFnv1aBasis;
    const auto take = [&](const mcast::Session::Completion& c) {
      done.entries[next[c.key]++] = {c.host, c.at};
      for (const std::uint64_t word :
           {static_cast<std::uint64_t>(c.at.count_ns()),
            static_cast<std::uint64_t>(c.host), std::uint64_t{c.key}}) {
        digest = sim::fnv1a(digest, word);
      }
    };
    std::vector<mcast::Session::Completion> tie;
    std::size_t i = 0;
    while (i < log.size()) {
      std::size_t j = i + 1;
      while (j < log.size() && log[j].at == log[i].at) ++j;
      if (j < log.size() && log[j].at < log[i].at) {
        throw std::logic_error("TrafficEngine: completion log out of order");
      }
      if (j - i == 1) {
        take(log[i]);
      } else {
        tie.assign(log.begin() + static_cast<std::ptrdiff_t>(i),
                   log.begin() + static_cast<std::ptrdiff_t>(j));
        std::sort(tie.begin(), tie.end(), [](const auto& a, const auto& b) {
          return std::tie(a.host, a.key) < std::tie(b.host, b.key);
        });
        for (const auto& c : tie) take(c);
      }
      i = j;
    }
    return digest;
  }

  TrafficResult finish() {
    Deliveries done;
    const std::uint64_t digest = reduce_log(done);
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      // Without a fault plan to blame, a missing destination is a bug —
      // except a rotation stream's under loss: its smart-FPFS NIs have no
      // link-level retransmit, and its repair rounds ran out.
      if (remaining_[i] != 0 && !session_.faulty() &&
          !(lossy() && streams_[plans_[i].op])) {
        throw std::runtime_error(
            "TrafficEngine: op " + std::to_string(plans_[i].op) +
            " completed " + std::to_string(plans_[i].expected - remaining_[i]) +
            "/" + std::to_string(plans_[i].expected) + " destinations");
      }
    }

    TrafficResult result;
    sim::Time first_arrival = recs_.front().arrival;
    sim::Time last_completion;
    for (std::size_t op = 0; op < num_ops_; ++op) {
      complete_record(op, done);
      const OpRecord& rec = recs_[op];
      result.deferral_ticks += rec.deferral_ticks;
      result.packets_delivered += rec.packets_delivered;
      first_arrival = std::min(first_arrival, rec.arrival);
      last_completion = std::max(last_completion, rec.completed);
    }
    result.ops = std::move(recs_);
    result.makespan = last_completion - first_arrival;
    result.ticks = ticks_;
    if (result.makespan > sim::Time::zero()) {
      result.ops_per_sec = static_cast<double>(num_ops_) /
                           (result.makespan.as_us() * 1.0e-6);
      const double flits =
          static_cast<double>(result.packets_delivered) *
          (static_cast<double>(config_.network.packet_bytes) / 8.0);
      result.flits_per_us = flits / result.makespan.as_us();
    }
    session_.for_each_ni([&](const netif::NetworkInterface& ni) {
      result.buffers.push_back(mcast::BufferStat{
          ni.id(), ni.buffer().peak(), ni.buffer().integral()});
      if (config_.style == mcast::NiStyle::kReliableFpfs) {
        const auto& rni = static_cast<const netif::ReliableFpfsNi&>(ni);
        result.retransmissions += rni.retransmissions();
        result.deliveries_failed += rni.deliveries_failed();
      }
    });
    const net::WormholeNetwork& network = session_.network();
    result.total_channel_block_time = network.total_block_time();
    result.packets_killed = network.packets_killed();
    result.faults_applied = network.faults_applied();
    result.route_epoch = network.routes().epoch();
    result.events_dispatched =
        static_cast<std::int64_t>(session_.sim().events_dispatched());
    result.digest = digest;
    return result;
  }

  const TrafficConfig& config_;
  const std::vector<MsgPlan> plans_;
  std::size_t num_ops_;
  std::vector<std::vector<std::size_t>> op_msgs0_;
  std::vector<std::vector<std::size_t>> op_msgs1_;
  std::vector<std::vector<std::int32_t>> op_foot_;
  /// Per op: its CollectiveOp when it is a real-kind collective, its
  /// StreamOp when it is a rotation stream.
  std::vector<std::unique_ptr<CollectiveOp>> collectives_;
  std::vector<std::unique_ptr<StreamOp>> streams_;
  std::vector<OpState> st_;
  std::vector<OpRecord> recs_;
  mcast::Session session_;
  SchedulerConfig scfg_;
  bool paced_;
  GroupScheduler sched_;
  const std::vector<BackgroundFlow>& background_;
  net::MessageId first_background_ = 0;  ///< the rest follow in order
  bool streaming_ = false;               ///< the mix has a StreamOp
  /// Each plan's message (0 for a rotation stream's: its StreamOp owns
  /// the member messages, which take ids of their own, so a plan index
  /// does not give its message id).
  std::vector<net::MessageId> msg_of_;
  /// Destinations each message still waits for.
  std::vector<std::int32_t> remaining_;
  /// Each message's last first-time NI completion at a destination.
  std::vector<sim::Time> msg_ni_last_;
  /// Messages whose last destination completed since the coordinator
  /// last settled.
  std::vector<std::size_t> done_msgs_;
  std::vector<std::size_t> deferred_;  ///< op indices, arrival order
  std::vector<std::size_t> finished_;  ///< ops a settle completed a phase of
  std::vector<std::int64_t> block_scratch_;
  /// Admitted ops whose second phase has not launched yet.
  std::int64_t awaiting_phase1_ = 0;
  std::int64_t ticks_ = 0;
  bool tick_active_ = false;
  sim::Time next_tick_;
  std::uint64_t tick_key_ = 0;
};

}  // namespace

TrafficResult TrafficEngine::run(const Workload& workload) const {
  validate_workload(config_, topology_, workload);
  TrafficRun run{config_, topology_, routes_, workload, trace_};
  return run.run();
}

}  // namespace nimcast::traffic
