#include "traffic/traffic_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcast/session.hpp"
#include "routing/route_alternatives.hpp"
#include "sim/rng.hpp"

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

  /// A message down every edge of `t`, to all of its non-root nodes.
  static MsgPlan on_tree(std::size_t op, std::int32_t phase,
                         const core::HostTree& t, std::int32_t packets) {
    return {op, phase, &t, topo::kInvalidId, topo::kInvalidId, packets,
            t.size() - 1};
  }
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
        plans.push_back(
            MsgPlan::on_tree(op, 0, o.tree, o.churn ? o.split : o.packets));
        if (o.churn) {
          plans.push_back(
              MsgPlan::on_tree(op, 1, o.tree2, o.packets - o.split));
        }
        break;
      case OpClass::kCollective:
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
  const auto check_hosts = [&](const core::HostTree& t) {
    for (topo::HostId h : t.nodes) {
      if (h < 0 || h >= topology.num_hosts()) {
        throw std::invalid_argument("TrafficEngine: host out of range");
      }
    }
  };
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
    check_hosts(o.tree);
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
      check_hosts(o.tree2);
    }
  }
}

/// Per-op coordinator state. Mutated ONLY inside coordinated events, so
/// every admission decision is a pure function of simulated history.
struct OpState {
  bool phase1_launched = false;
  std::int32_t waited = 0;
  /// Messages of each phase not yet complete at every destination.
  std::int32_t left0 = 0;
  std::int32_t left1 = 0;
  sim::Time admitted_at;
};

/// One TrafficEngine::run call on one Session: the flattened mix, the
/// per-op indexes, and the admission coordinator.
class TrafficRun {
 public:
  TrafficRun(const TrafficConfig& config, const topo::Topology& topology,
             const routing::RouteTable& routes, const Workload& workload)
      : config_{config},
        workload_{workload},
        plans_{build_plans(workload)},
        num_ops_{workload.ops.size()},
        op_msgs0_(num_ops_),
        op_msgs1_(num_ops_),
        op_foot_(num_ops_),
        st_(num_ops_),
        session_{topology, routes, config.params, config.network,
                 mcast::RepairPolicy{}, "TrafficEngine"},
        scfg_{derive_scheduler()},
        sched_{scfg_, session_.network().num_channels()},
        remaining_(plans_.size()) {
    // Per-op message index lists by phase and channel footprints (every
    // message of the op, forward edge direction — the switch channels the
    // op's worms will fight over); one message per plan, ledger key =
    // plan index, on the NIs of its hosts.
    std::vector<std::vector<std::pair<topo::HostId, topo::HostId>>> op_edges(
        num_ops_);
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      const MsgPlan& m = plans_[i];
      (m.phase == 0 ? op_msgs0_ : op_msgs1_)[m.op].push_back(i);
      collect_edges(m, op_edges[m.op]);
      remaining_[i] = m.expected;
      const net::MessageId message = session_.new_message(i);
      if (m.tree) {
        for (topo::HostId h : m.tree->nodes) add_ni(h);
        session_.install_tree(message, *m.tree, m.packets);
      } else {
        add_ni(m.src);
        add_ni(m.dst);
        session_.install_unicast(message, m.src, m.dst, m.packets);
      }
    }
    for (std::size_t op = 0; op < num_ops_; ++op) {
      op_foot_[op] =
          routing::edge_channel_footprint(topology, routes, op_edges[op]);
      st_[op].left0 = static_cast<std::int32_t>(op_msgs0_[op].size());
      st_[op].left1 = static_cast<std::int32_t>(op_msgs1_[op].size());
    }
    // The sink that brings a message's outstanding destination count to
    // zero logs it as done for the next coordinated instant.
    session_.track_completions(plans_.size(), [this](std::size_t i) {
      if (--remaining_[i] == 0) done_msgs_.push_back(i);
    });
  }

  TrafficResult run() {
    // Coordination keys, reserved before anything else is scheduled: one
    // per arrival in op order, the tick chain's last. Every coordinated
    // event fires before the same-instant events the run schedules, and
    // an arrival fires before a same-instant tick.
    sim::Simulator& simctx = session_.sim();
    std::vector<std::uint64_t> arrival_keys(num_ops_, 0);
    for (auto& key : arrival_keys) key = simctx.reserve_order();
    tick_key_ = simctx.reserve_order();
    for (std::size_t op = 0; op < num_ops_; ++op) {
      const sim::Time at = workload_.ops[op].arrival;
      simctx.schedule_at_keyed(at, arrival_keys[op],
                               [this, op, at] { arrive(op, at); });
    }
    session_.drain();
    return finish();
  }

 private:
  /// Derived scheduler knobs. The tick period is one steady-state packet
  /// service time (receive + widest forwarding fan-out of the mix) —
  /// long enough for fresh block-time deltas between re-scores, short
  /// enough to react within a packet or two. A channel is telemetry-hot
  /// when it blocked worms for ~4 packet serialization times inside one
  /// tick.
  [[nodiscard]] SchedulerConfig derive_scheduler() const {
    SchedulerConfig scfg = config_.scheduler;
    if (scfg.tick == sim::Time::zero()) {
      std::int64_t fanout = 1;
      for (const MsgPlan& m : plans_) {
        if (!m.tree) continue;
        for (topo::HostId h : m.tree->nodes) {
          fanout = std::max(fanout, static_cast<std::int64_t>(
                                        m.tree->children.at(h).size()));
        }
      }
      scfg.tick = config_.params.t_rcv + config_.params.t_snd * fanout;
    }
    if (scfg.hot_block_ns == 0) {
      scfg.hot_block_ns =
          4 * config_.network.serialization_time().count_ns();
    }
    return scfg;
  }

  void add_ni(topo::HostId h) {
    session_.add_ni(h, mcast::NiStyle::kSmartFpfs);
  }

  void launch_msg(std::size_t i) {
    session_.start(plans_[i].root(), static_cast<net::MessageId>(i + 1));
  }

  /// Runs at every coordinated instant (arrival or tick): fold the
  /// fabric's view into the scheduler (paced only — FIFO never reads
  /// it), drain the messages completed since the last instant into their
  /// ops' phase counters, then releases before phase-1 launches, each in
  /// op order, so freed capacity is visible to every decision at the
  /// same instant. Only an op a drain just finished a phase of can be
  /// due either: release needs its last phase done, a launch its
  /// phase 0. Each phase finishes once, so each op releases once.
  void settle() {
    if (scfg_.policy == Policy::kPaced) {
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
      const OpState& s = st_[op];
      if (s.phase1_launched && s.left0 == 0 && s.left1 == 0) {
        sched_.release(op_foot_[op]);
      }
    }
    for (std::size_t op : finished_) {
      OpState& s = st_[op];
      if (s.phase1_launched || s.left0 != 0) continue;
      for (std::size_t i : op_msgs1_[op]) launch_msg(i);
      s.phase1_launched = true;
      --awaiting_phase1_;
    }
  }

  void admit(std::size_t op, sim::Time at) {
    sched_.admit(op_foot_[op]);
    OpState& s = st_[op];
    s.admitted_at = at;
    s.phase1_launched = op_msgs1_[op].empty();
    if (!s.phase1_launched) ++awaiting_phase1_;
    for (std::size_t i : op_msgs0_[op]) launch_msg(i);
  }

  void arrive(std::size_t op, sim::Time at) {
    settle();
    if (scfg_.policy == Policy::kFifo ||
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
      if (sched_.would_admit(op_foot_[op], st_[op].waited)) {
        admit(op, next_tick_);
      } else {
        ++st_[op].waited;
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

  TrafficResult finish() {
    std::vector<sim::Time> msg_last(plans_.size());
    std::uint64_t digest = sim::kFnv1aBasis;
    for (const auto& c : session_.host_completions()) {
      msg_last[c.key] = std::max(msg_last[c.key], c.at);
      for (const std::uint64_t word :
           {static_cast<std::uint64_t>(c.at.count_ns()),
            static_cast<std::uint64_t>(c.host), std::uint64_t{c.key}}) {
        digest = sim::fnv1a(digest, word);
      }
    }
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (remaining_[i] != 0) {
        throw std::runtime_error(
            "TrafficEngine: message " + std::to_string(i + 1) +
            " completed " + std::to_string(plans_[i].expected - remaining_[i]) +
            "/" + std::to_string(plans_[i].expected) + " destinations");
      }
    }

    TrafficResult result;
    result.ops.resize(num_ops_);
    sim::Time last_completion;
    for (std::size_t op = 0; op < num_ops_; ++op) {
      const TrafficOp& o = workload_.ops[op];
      OpRecord& rec = result.ops[op];
      rec.cls = o.cls;
      rec.arrival = o.arrival;
      rec.admitted = st_[op].admitted_at;
      rec.group = o.group_size();
      rec.packets = o.packets;
      rec.churn = o.churn;
      rec.deferral_ticks = st_[op].waited;
      result.deferral_ticks += st_[op].waited;
      for (const auto* msgs : {&op_msgs0_[op], &op_msgs1_[op]}) {
        for (std::size_t i : *msgs) {
          rec.completed = std::max(rec.completed, msg_last[i]);
          rec.packets_delivered +=
              static_cast<std::int64_t>(plans_[i].expected) * plans_[i].packets;
        }
      }
      result.packets_delivered += rec.packets_delivered;
      last_completion = std::max(last_completion, rec.completed);
    }
    result.makespan = last_completion - workload_.ops.front().arrival;
    result.ticks = ticks_;
    if (result.makespan > sim::Time::zero()) {
      result.ops_per_sec = static_cast<double>(num_ops_) /
                           (result.makespan.as_us() * 1.0e-6);
      const double flits =
          static_cast<double>(result.packets_delivered) *
          (static_cast<double>(config_.network.packet_bytes) / 8.0);
      result.flits_per_us = flits / result.makespan.as_us();
    }
    result.total_channel_block_time = session_.network().total_block_time();
    result.events_dispatched =
        static_cast<std::int64_t>(session_.sim().events_dispatched());
    result.digest = digest;
    return result;
  }

  const TrafficConfig& config_;
  const Workload& workload_;
  const std::vector<MsgPlan> plans_;
  std::size_t num_ops_;
  std::vector<std::vector<std::size_t>> op_msgs0_;
  std::vector<std::vector<std::size_t>> op_msgs1_;
  std::vector<std::vector<std::int32_t>> op_foot_;
  std::vector<OpState> st_;
  mcast::Session session_;
  SchedulerConfig scfg_;
  GroupScheduler sched_;
  /// Destinations each message still waits for.
  std::vector<std::int32_t> remaining_;
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
  TrafficRun run{config_, topology_, routes_, workload};
  return run.run();
}

}  // namespace nimcast::traffic
