#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/rotation.hpp"
#include "mcast/session.hpp"
#include "netif/smart_ni.hpp"
#include "routing/route_alternatives.hpp"
#include "sim/rng.hpp"
#include "traffic/traffic_engine.hpp"

namespace nimcast::traffic {

/// Directed switch-channel ids condemned by `network`'s current fault
/// state, in the numbering routing::edge_channel_footprint uses — so a
/// footprint intersection against this set tells whether a rotation
/// member's static routes dodge every dead link and switch. Sorted by
/// construction (link id ascending, then direction, then VC).
inline std::vector<std::int32_t> dead_switch_channels(
    const topo::Topology& topology, const net::WormholeNetwork& network) {
  const topo::SubgraphMask& mask = network.fault_state();
  const std::int32_t vcs = network.routes().virtual_channels();
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

/// Congestion-aware per-packet member choice (Selection::kAdaptive).
///
/// All scores are integer nanoseconds; member r's snapshot score is the
/// block-time delta over its channel footprint since the previous
/// snapshot, plus its forwarders' current injection-queue backlog, plus
/// a penalty for members a fault broke. The stream's own wake shows up
/// in these scores too — footprints overlap only partially and
/// forwarders momentarily hold copies in their queues — so raw argmin
/// over the scores would drift off the static rotation even on an
/// otherwise idle fabric. The selector therefore splits detection from
/// choice: a member is *hot* only on a decisive signal (a fault broke
/// it, or its forwarders' queued sends exceed kHotQueueFactor ×
/// participants — the stream itself can never queue more than about one
/// copy per participant, while a backed-up coprocessor holds hundreds),
/// and the full score only arbitrates *which* clean member covers for a
/// hot one. A clean home member is always kept, which makes an idle
/// fabric byte-identical to the static g mod R rotation.
class AdaptiveSelector {
 public:
  AdaptiveSelector(mcast::Session& session, const topo::Topology& topology,
                   const netif::SystemParams& params,
                   const core::RotationPlan& plan, std::int32_t rotation,
                   std::int32_t stream_packets)
      : session_{session},
        topology_{topology},
        participants_{plan.members.front().tree.nodes},
        root_{plan.members.front().tree.root},
        S_{stream_packets},
        t_snd_ns_{params.t_snd.count_ns()},
        w_pkt_{params.t_rcv.count_ns() +
               std::max<std::int64_t>(plan.fanout_bound, 1) * t_snd_ns_},
        hot_queue_ns_{kHotQueueFactor * plan.members.front().tree.size() *
                      t_snd_ns_},
        members_(static_cast<std::size_t>(rotation)),
        prev_block_(
            static_cast<std::size_t>(session.network().num_channels()), 0),
        snap_period_{sim::Time::ns(w_pkt_)},
        snap_key_{session.sim().reserve_order()} {
    std::vector<std::uint8_t> in_union(prev_block_.size(), 0);
    for (std::size_t r = 0; r < members_.size(); ++r) {
      Member& m = members_[r];
      const core::HostTree& tree = plan.members[r].tree;
      m.footprint = plan.members[r].footprint;
      // The member's congestion is felt on its switch footprint plus its
      // forwarders' injection channels. The root's injection channel and
      // every ejection channel are member-independent (same source, same
      // destinations) and would only add common-mode noise to every
      // score.
      for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
        const topo::HostId h = tree.nodes[i];
        if (h == root_ || tree.children_at(i).empty()) continue;
        m.senders.push_back(h);
        m.footprint.push_back(session.network().injection_channel_id(h));
      }
      auto& foot = m.footprint;
      std::sort(foot.begin(), foot.end());
      foot.erase(std::unique(foot.begin(), foot.end()), foot.end());
      for (std::int32_t c : foot) {
        if (in_union[static_cast<std::size_t>(c)] == 0) {
          in_union[static_cast<std::size_t>(c)] = 1;
          union_channels_.push_back(c);
        }
      }
    }
  }

  /// Telemetry snapshots: a self-rescheduling chain with one
  /// steady-state packet period between samples — long enough for fresh
  /// block-time deltas, short enough to react within a handful of
  /// packets. The chain replays one FIFO key the constructor reserved
  /// during run set-up, before the arrival keys, so each sample fires
  /// before every same-instant event of the run and sees the state as of
  /// the start of that instant. It stops once the stream has fully
  /// issued or the root died, after at most one trailing no-op snapshot.
  void start() {
    next_snap_ = session_.sim().now() + snap_period_;
    schedule_snapshot();
  }

  /// The member stream packet `g` rides.
  std::size_t select(std::int32_t g) {
    const std::size_t R = members_.size();
    std::size_t best = static_cast<std::size_t>(g) % R;
    if (hot(members_[best])) {
      // The static member is decisively congested or broken: cover with
      // the cheapest clean member — score plus a sent-count balance
      // term, strict-< argmin over the (g + i) mod R probe order so
      // covering work round-robins when scores tie. If every member is
      // hot there is nothing better to do than stay on the rotation.
      std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
      for (std::size_t i = 0; i < R; ++i) {
        const std::size_t r = (static_cast<std::size_t>(g) + i) % R;
        const Member& m = members_[r];
        if (hot(m)) continue;
        const std::int64_t score = m.snap + m.sent * w_pkt_;
        if (score < best_score) {
          best = r;
          best_score = score;
        }
      }
    }
    ++members_[best].sent;
    ++issued_;
    return best;
  }

  [[nodiscard]] std::int64_t sent(std::size_t r) const {
    return members_[r].sent;
  }
  [[nodiscard]] std::int64_t snapshots() const { return snapshots_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  /// Hotness threshold on the forwarder backlog: the stream's own
  /// copies never queue more than about one send per participant
  /// fabric-wide (each in-flight packet occupies one coprocessor at a
  /// time), so a member whose forwarders hold kHotQueueFactor ×
  /// participants' worth of queued sends is buried under exogenous
  /// traffic, not its own.
  static constexpr std::int64_t kHotQueueFactor = 2;
  static constexpr std::int64_t kDeadPenalty = std::int64_t{1} << 50;

  struct Member {
    std::vector<std::int32_t> footprint;  ///< sorted channel ids
    std::vector<topo::HostId> senders;    ///< forwarders
    std::int64_t snap = 0;                ///< last snapshot score
    std::int64_t queue_ns = 0;            ///< backlog term of snap
    std::int64_t sent = 0;
    bool dead = false;
  };

  [[nodiscard]] bool hot(const Member& m) const {
    return m.dead || m.queue_ns > hot_queue_ns_;
  }

  void schedule_snapshot() {
    session_.sim().schedule_at_keyed(next_snap_, snap_key_,
                                     [this] { tick(); });
  }

  void tick() {
    if (issued_ >= S_ || !session_.network().host_alive(root_)) return;
    score_snapshot();
    next_snap_ = next_snap_ + snap_period_;
    schedule_snapshot();
  }

  /// A member is dead once a fault killed one of its hosts (every
  /// member spans the same participants) or condemned a channel its
  /// static routes cross; the penalty steers every subsequent packet to
  /// surviving members (repair still redelivers what was lost before the
  /// fault landed). Re-derived only when the applied-fault count moves.
  void refresh_dead_members() {
    const net::WormholeNetwork& network = session_.network();
    if (network.faults_applied() == faults_seen_) return;
    faults_seen_ = network.faults_applied();
    const auto dead = dead_switch_channels(topology_, network);
    const bool host_dead = std::any_of(
        participants_.begin(), participants_.end(),
        [&](topo::HostId h) { return !network.host_alive(h); });
    for (Member& m : members_) {
      m.dead = host_dead;
      // Both lists are sorted: linear intersection test.
      std::size_t i = 0;
      std::size_t j = 0;
      while (!m.dead && i < m.footprint.size() && j < dead.size()) {
        if (m.footprint[i] == dead[j]) m.dead = true;
        m.footprint[i] < dead[j] ? ++i : ++j;
      }
    }
  }

  void score_snapshot() {
    refresh_dead_members();
    const net::WormholeNetwork& network = session_.network();
    for (Member& m : members_) {
      std::int64_t s = 0;
      for (std::int32_t c : m.footprint) {
        s += network.channel_block_ns(c) -
             prev_block_[static_cast<std::size_t>(c)];
      }
      m.queue_ns = 0;
      for (topo::HostId h : m.senders) {
        m.queue_ns += session_.ni(h).injection_queue_depth() * t_snd_ns_;
      }
      s += m.queue_ns;
      if (m.dead) s += kDeadPenalty;
      m.snap = s;
      digest_ = sim::fnv1a(digest_, static_cast<std::uint64_t>(s));
    }
    for (std::int32_t c : union_channels_) {
      prev_block_[static_cast<std::size_t>(c)] = network.channel_block_ns(c);
    }
    ++snapshots_;
  }

  mcast::Session& session_;
  const topo::Topology& topology_;
  const std::vector<topo::HostId>& participants_;
  topo::HostId root_;
  std::int32_t S_;
  std::int64_t t_snd_ns_;
  std::int64_t w_pkt_;
  std::int64_t hot_queue_ns_;
  std::vector<Member> members_;
  std::vector<std::int64_t> prev_block_;  ///< per channel, last snapshot
  std::vector<std::int32_t> union_channels_;
  std::int64_t issued_ = 0;
  std::int64_t snapshots_ = 0;
  std::uint64_t digest_ = sim::kFnv1aBasis;
  std::int32_t faults_seen_ = 0;
  sim::Time snap_period_;
  sim::Time next_snap_;
  std::uint64_t snap_key_;
};

/// The traffic engine's bookkeeping for one rotation stream op
/// (TrafficOp::rotation): a sustained stream of `packets` fixed-size
/// packets from the plan's root to every other participant, one message
/// per member tree that carries packets. The root's NI interleaves the
/// members packet-major (FpfsNi::start_streaming), so consecutive
/// stream packets leave down different trees. The op keeps the
/// per-(host, stream packet) arrival table — a destination's t_r follows
/// its last distinct packet, logged under the op's ledger key — and
/// what repair, hand-off and the verdicts need.
class StreamOp {
 public:
  /// Installs the members as messages of ledger key `message_key`
  /// (untracked: the op completes destinations itself, under `key`) and
  /// binds member r >= 1's table to route class `next_class`, which it
  /// advances past them; member 0 stays on class 0. `op` must outlive
  /// the object.
  StreamOp(mcast::Session& session, const TrafficOp& op, std::size_t key,
           std::size_t message_key, std::int32_t& next_class,
           const TrafficConfig& config, const topo::Topology& topology)
      : session_{session},
        topology_{topology},
        config_{config},
        plan_{*op.rotation},
        base_{plan_.members.front().tree},
        root_{base_.root},
        S_{op.packets},
        R_{std::min(plan_.size(), S_)},
        adaptive_{op.selection == mcast::Selection::kAdaptive && R_ > 1},
        key_{key},
        message_key_{message_key} {
    // Static: class r holds the stream packets congruent to r mod R, with
    // per-class packet indices. Adaptive: any packet may ride any class,
    // so every class is installed with the full stream as packet_count
    // and the *global* stream index as packet index — a class carries
    // the sparse index subset the selector routes to it.
    for (std::int32_t r = 0; r < R_; ++r) {
      const auto& member = plan_.members[static_cast<std::size_t>(r)];
      const std::int32_t cls = r == 0 ? 0 : next_class++;
      if (r > 0 && member.table) {
        session_.network().bind_route_class(cls, *member.table);
      }
      std::vector<std::int32_t> indices;
      const std::int32_t step = adaptive_ ? 1 : R_;
      for (std::int32_t g = adaptive_ ? 0 : r; g < S_; g += step) {
        indices.push_back(g);
      }
      const net::MessageId message = session_.new_message(message_key_);
      session_.install_tree(message, member.tree,
                            static_cast<std::int32_t>(indices.size()), cls);
      messages_.push_back(message);
      index_.emplace_back(message, std::move(indices));
    }
    arrival_.resize(session_.num_hosts());
    seen_count_.assign(session_.num_hosts(), 0);
    for (topo::HostId h : base_.nodes) {
      if (h != root_) {
        arrival_[static_cast<std::size_t>(h)].assign(
            static_cast<std::size_t>(S_), kNotYet);
      }
    }
    if (adaptive_) {
      selector_.emplace(session_, topology_, config.params, plan_, R_, S_);
    }
    result_.effective_root = root_;
  }

  /// The sorted switch channels the carrying members' routes cross.
  [[nodiscard]] std::vector<std::int32_t> footprint() const {
    std::vector<std::int32_t> foot;
    for (std::int32_t r = 0; r < R_; ++r) {
      foot = routing::footprint_union(
          foot, plan_.members[static_cast<std::size_t>(r)].footprint);
    }
    return foot;
  }

  /// Hands the stream to the root's NI (the host pays its start-up).
  void start() {
    auto& ni = static_cast<netif::FpfsNi&>(session_.ni(root_));
    if (selector_) {
      selector_->start();
      ni.start_streaming_adaptive(
          messages_, S_, session_.host(root_),
          [this](std::int32_t g) { return selector_->select(g); });
    } else {
      ni.start_streaming(messages_, session_.host(root_));
    }
  }

  /// Per-destination reassembly of a receive-processed packet of one of
  /// the op's messages: the first receive of each stream index counts;
  /// the last one completes the destination. Events dispatch in time
  /// order, so the latest stamp is the NI makespan.
  void on_packet(topo::HostId dest, const net::Packet& p) {
    if (dest == root_) return;
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), p.message,
        [](const auto& entry, net::MessageId m) { return entry.first < m; });
    const std::int32_t g = it->second[static_cast<std::size_t>(p.packet_index)];
    auto& at =
        arrival_[static_cast<std::size_t>(dest)][static_cast<std::size_t>(g)];
    if (at != kNotYet) return;  // a repair resend of a packet already seen
    at = session_.sim().now();
    ni_last_ = at;
    ++result_.packets_delivered;
    if (++seen_count_[static_cast<std::size_t>(dest)] == S_) {
      session_.complete(key_, dest, p.message);
    }
  }

  /// One repair round after a drain. All fault events fire during the
  /// first drain (plans are scheduled up front), so the dead set is
  /// final by the first round. Root alive: patch the rotation set
  /// incrementally on the first round (replan_rotation — members
  /// untouched by the dead set survive verbatim, broken members are
  /// re-planned over their surviving chain) and resend what is missing
  /// down it. Root dead: hand off per packet.
  bool repair_round(sim::Time start_at) {
    net::WormholeNetwork& network = session_.network();
    if (!network.host_alive(root_)) {
      return config_.repair.root_handoff && hand_off(start_at);
    }
    if (!replanned_) {
      replanned_ = true;
      const auto dead = dead_switch_channels(topology_, network);
      std::vector<topo::HostId> dead_hosts;
      for (topo::HostId h : base_.nodes) {
        if (!network.host_alive(h)) dead_hosts.push_back(h);
      }
      auto patched = core::replan_rotation(topology_, network.routes(), plan_,
                                           dead, dead_hosts);
      live_ = std::move(patched.plan);
      result_.replans = patched.rebuilt;
    }
    return repair_from_root(start_at);
  }

  /// Writes the op's StreamingResult and verdicts into `rec`
  /// (`completions`: the op's host-level completions, (time, host)
  /// order). A destination is delivered when it holds the whole stream.
  void complete(
      OpRecord& rec,
      std::span<const std::pair<topo::HostId, sim::Time>> completions) {
    mcast::StreamingResult& s = result_;
    rec.ni_completed = std::max(rec.ni_completed, ni_last_);
    s.makespan = rec.fct();
    s.ni_makespan = rec.ni_completed - rec.arrival;
    if (s.ni_makespan > sim::Time::zero()) {
      const double flits =
          static_cast<double>(s.packets_delivered) *
          (static_cast<double>(config_.network.packet_bytes) / 8.0);
      s.flits_per_us = flits / s.ni_makespan.as_us();
    }
    s.p99_gap = p99_inorder_gap();
    s.stream_packets = S_;
    s.rotation_requested = plan_.requested;
    s.rotation_used = R_;
    s.overlap_mean = plan_.overlap_mean();
    s.overlap_max = plan_.overlap_max();
    s.destinations =
        session_.verdicts(base_.nodes, root_, s.effective_root, completions);
    s.outcome = mcast::outcome_of(s.destinations);
    s.selection =
        adaptive_ ? mcast::Selection::kAdaptive : mcast::Selection::kStatic;
    const std::int64_t t_snd_ns = config_.params.t_snd.count_ns();
    for (std::int32_t r = 0; r < R_; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const auto n = adaptive_
                         ? selector_->sent(i)
                         : static_cast<std::int64_t>(index_[i].second.size());
      s.member_packets.push_back(n);
      const auto& tree = plan_.members[i].tree;
      std::int64_t bottleneck_ns = 0;
      for (std::size_t j = 0; j < tree.nodes.size(); ++j) {
        std::int64_t work =
            static_cast<std::int64_t>(tree.children_at(j).size()) * t_snd_ns;
        if (tree.nodes[j] != root_) work += config_.params.t_rcv.count_ns();
        bottleneck_ns = std::max(bottleneck_ns, work);
      }
      s.member_ni_work_us.push_back(static_cast<double>(n) *
                                    static_cast<double>(bottleneck_ns) /
                                    1000.0);
    }
    s.telemetry_snapshots = adaptive_ ? selector_->snapshots() : 0;
    s.telemetry_digest = adaptive_ ? selector_->digest() : 0;
    rec.completions.assign(completions.begin(), completions.end());
    rec.packets_delivered = s.packets_delivered;
    rec.outcome = s.outcome;
    rec.destinations = s.destinations;
    rec.repairs = s.repairs;
    rec.root_handoffs = s.root_handoffs;
    rec.effective_root = s.effective_root;
    rec.stream = std::make_unique<mcast::StreamingResult>(std::move(s));
  }

 private:
  static constexpr sim::Time kNotYet = sim::Time::max();

  [[nodiscard]] bool needs(topo::HostId h) const {
    return h != root_ && seen_count_[static_cast<std::size_t>(h)] < S_;
  }

  /// Ascending stream indices some still-needy destination passing
  /// `include` has not seen.
  [[nodiscard]] std::vector<std::int32_t> missing_where(
      const std::function<bool(topo::HostId)>& include) const {
    std::vector<std::uint8_t> miss(static_cast<std::size_t>(S_), 0);
    for (topo::HostId h : base_.nodes) {
      if (!needs(h) || !include(h)) continue;
      const auto& times = arrival_[static_cast<std::size_t>(h)];
      for (std::size_t g = 0; g < miss.size(); ++g) {
        if (times[g] == kNotYet) miss[g] = 1;
      }
    }
    std::vector<std::int32_t> missing;
    for (std::int32_t g = 0; g < S_; ++g) {
      if (miss[static_cast<std::size_t>(g)] != 0) missing.push_back(g);
    }
    return missing;
  }

  /// Resends `share` from `initiator` down a repair tree over the needy
  /// reachable hosts of `order` — on route class 0: the primary table is
  /// the one rebuilt around the faults, and a repair tree's edges are
  /// not the edges a member's salted footprint cleared.
  bool resend(topo::HostId initiator, const std::vector<topo::HostId>& order,
              std::vector<std::int32_t> share, sim::Time start_at) {
    const auto rtree = session_.repair_tree(
        initiator, order, [this](topo::HostId h) { return needs(h); },
        std::max(plan_.fanout_bound, 1));
    if (!rtree) return false;
    const net::MessageId message = session_.new_message(message_key_);
    const auto count = static_cast<std::int32_t>(share.size());
    session_.install_tree(message, *rtree, count);
    result_.packets_resent += count;
    index_.emplace_back(message, std::move(share));
    session_.start_at(start_at, initiator, message);
    return true;
  }

  /// Root alive: resend only the *missing* stream indices, round-robin
  /// across the patched members, so the repair phase keeps R-way
  /// rotation throughput instead of collapsing to one whole-stream
  /// resend down a single surviving tree.
  bool repair_from_root(sim::Time start_at) {
    net::WormholeNetwork& network = session_.network();
    const auto missing = missing_where(
        [&](topo::HostId h) { return network.reachable(root_, h); });
    if (missing.empty()) return false;
    const std::int32_t M = std::max(live_.size(), 1);
    // Adaptive: rescore the patched members — rank them by the
    // cumulative block time their footprints absorbed (stable by
    // index), so the larger round-robin shares land on the members the
    // fabric treated best. Static keeps plan order.
    std::vector<std::size_t> rank(static_cast<std::size_t>(M));
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    if (adaptive_ && !live_.members.empty()) {
      std::vector<std::int64_t> cost(live_.members.size(), 0);
      for (std::size_t i = 0; i < live_.members.size(); ++i) {
        for (std::int32_t c : live_.members[i].footprint) {
          cost[i] += network.channel_block_ns(c);
        }
      }
      std::stable_sort(rank.begin(), rank.end(),
                       [&cost](std::size_t a, std::size_t b) {
                         return cost[a] < cost[b];
                       });
    }
    bool scheduled = false;
    for (std::size_t i = 0; i < rank.size(); ++i) {
      std::vector<std::int32_t> share;
      for (std::size_t j = i; j < missing.size(); j += rank.size()) {
        share.push_back(missing[j]);
      }
      if (share.empty()) continue;
      const auto& order = live_.members.empty()
                              ? base_.nodes
                              : live_.members[rank[i]].tree.nodes;
      if (resend(root_, order, std::move(share), start_at)) {
        ++result_.repairs;
        scheduled = true;
      }
    }
    return scheduled;
  }

  /// Root dead: per-packet initiator handoff — for every missing index
  /// the lowest-ranked surviving destination that holds it becomes that
  /// packet's initiator; indices group by initiator into handoff
  /// messages. Indices no survivor holds died with the root, and then
  /// no destination holds the whole stream (outcome kFailed).
  bool hand_off(sim::Time start_at) {
    // The reachability reference after the root died: the lowest-ranked
    // surviving destination holding any packet.
    topo::HostId& eff_root = result_.effective_root;
    if (eff_root == root_) {
      eff_root = session_.elect(base_.nodes, root_, [this](topo::HostId h) {
        return seen_count_[static_cast<std::size_t>(h)] > 0;
      });
      if (eff_root == topo::kInvalidId) {
        eff_root = root_;
        return false;  // the stream died with the root
      }
    }
    // base_.nodes order makes the election deterministic.
    std::vector<std::pair<topo::HostId, std::vector<std::int32_t>>> groups;
    const auto missing = missing_where(
        [this](topo::HostId h) { return session_.network().host_alive(h); });
    for (std::int32_t g : missing) {
      const topo::HostId init =
          session_.elect(base_.nodes, root_, [&](topo::HostId h) {
            return arrival_[static_cast<std::size_t>(h)]
                           [static_cast<std::size_t>(g)] != kNotYet;
          });
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
    bool scheduled = false;
    for (auto& [init, share] : groups) {
      if (resend(init, base_.nodes, std::move(share), start_at)) {
        ++result_.root_handoffs;
        scheduled = true;
      }
    }
    return scheduled;
  }

  /// p99 gap between consecutive in-order completions, pooled over
  /// every destination that received the whole stream: packet g
  /// completes in order once packets 0..g have all arrived, i.e. at the
  /// running max of their arrival times along the stream.
  [[nodiscard]] sim::Time p99_inorder_gap() const {
    std::vector<sim::Time> gaps;
    for (topo::HostId h : base_.nodes) {
      if (h == root_ || seen_count_[static_cast<std::size_t>(h)] != S_) {
        continue;
      }
      const auto& times = arrival_[static_cast<std::size_t>(h)];
      sim::Time inorder = times.front();
      for (std::size_t g = 1; g < times.size(); ++g) {
        const sim::Time next = std::max(inorder, times[g]);
        gaps.push_back(next - inorder);
        inorder = next;
      }
    }
    if (gaps.empty()) return sim::Time::zero();
    std::sort(gaps.begin(), gaps.end());
    const auto n = gaps.size();
    return gaps[std::min(n - 1, (n * 99 + 99) / 100 - 1)];
  }

  mcast::Session& session_;
  const topo::Topology& topology_;
  const TrafficConfig& config_;
  const core::RotationPlan& plan_;
  const core::HostTree& base_;
  topo::HostId root_;
  std::int32_t S_;  ///< stream packets
  /// Members that actually carry packets: min(plan size, S).
  std::int32_t R_;
  /// An R = 1 plan degrades adaptive to static: nothing to choose.
  bool adaptive_;
  std::size_t key_;
  std::size_t message_key_;
  std::vector<net::MessageId> messages_;  ///< member r's, index r
  /// Per message of the op, ascending id (members first, then resends):
  /// packet j carries stream packet `second[j]`.
  std::vector<std::pair<net::MessageId, std::vector<std::int32_t>>> index_;
  /// [host][stream index]: first receive-processing, kNotYet until then.
  std::vector<std::vector<sim::Time>> arrival_;
  std::vector<std::int32_t> seen_count_;
  sim::Time ni_last_;  ///< the latest first receive of a stream packet
  std::optional<AdaptiveSelector> selector_;
  bool replanned_ = false;
  core::RotationPlan live_;  ///< the patched plan repair rides
  /// The counters repair and hand-off keep, filled at complete().
  mcast::StreamingResult result_;
};

}  // namespace nimcast::traffic
