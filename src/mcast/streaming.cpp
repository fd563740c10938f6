// MulticastEngine::run_streaming: a sustained stream from one source to
// every other participant over a rotation plan, on one Session. The run
// splits along the paper's seams — validation, install, launch, repair
// and result reduction — and the adaptive per-packet member choice
// lives in its own type.

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "mcast/multicast_engine.hpp"
#include "mcast/session.hpp"
#include "netif/smart_ni.hpp"
#include "sim/rng.hpp"

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

void validate_stream(const MulticastEngine::Config& config,
                     const topo::Topology& topology,
                     const core::RotationPlan& plan,
                     std::int32_t stream_packets) {
  if (config.style != NiStyle::kSmartFpfs) {
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
  std::vector<topo::HostId> base_sorted = base.nodes;
  std::sort(base_sorted.begin(), base_sorted.end());
  if (base_sorted.empty() || base_sorted.front() < 0 ||
      base_sorted.back() >= topology.num_hosts()) {
    throw std::invalid_argument("run_streaming: host out of range");
  }
  for (const auto& member : plan.members) {
    if (member.tree.root != base.root) {
      throw std::invalid_argument("run_streaming: members disagree on root");
    }
    std::vector<topo::HostId> nodes = member.tree.nodes;
    std::sort(nodes.begin(), nodes.end());
    if (nodes != base_sorted) {
      throw std::invalid_argument(
          "run_streaming: members disagree on participants");
    }
  }
  for (const auto& flow : config.background) {
    if (flow.src < 0 || flow.src >= topology.num_hosts() || flow.dst < 0 ||
        flow.dst >= topology.num_hosts() || flow.src == flow.dst) {
      throw std::invalid_argument("run_streaming: bad background flow");
    }
    if (flow.packets < 1) {
      throw std::invalid_argument(
          "run_streaming: background flow packets < 1");
    }
  }
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
  AdaptiveSelector(Session& session, const topo::Topology& topology,
                   std::int32_t vcs, const netif::SystemParams& params,
                   const core::RotationPlan& plan, std::int32_t rotation,
                   std::int32_t stream_packets)
      : session_{session},
        topology_{topology},
        vcs_{vcs},
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
        next_snap_{snap_period_} {
    std::vector<std::uint8_t> in_union(prev_block_.size(), 0);
    for (std::size_t r = 0; r < members_.size(); ++r) {
      Member& m = members_[r];
      m.tree = &plan.members[r].tree;
      m.footprint = plan.members[r].footprint;
      // The member's congestion is felt on its switch footprint plus its
      // forwarders' injection channels. The root's injection channel and
      // every ejection channel are member-independent (same source, same
      // destinations) and would only add common-mode noise to every
      // score.
      for (std::size_t i = 0; i < m.tree->nodes.size(); ++i) {
        const topo::HostId h = m.tree->nodes[i];
        if (h == root_ || m.tree->children_at(i).empty()) continue;
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
  /// packets. The chain replays one FIFO key reserved here, during
  /// setup, so each sample fires before every same-instant event the run
  /// schedules and sees the state as of the start of that instant. It
  /// stops once the stream has fully issued or the root died, after at
  /// most one trailing no-op snapshot.
  void start() {
    snap_key_ = session_.sim().reserve_order();
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
    const core::HostTree* tree = nullptr;
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

  /// A member is dead once a fault killed one of its hosts or condemned
  /// a channel its static routes cross; the penalty steers every
  /// subsequent packet to surviving members (repair still redelivers
  /// what was lost before the fault landed). Re-derived only when the
  /// applied-fault count moves.
  void refresh_dead_members() {
    const net::WormholeNetwork& network = session_.network();
    if (network.faults_applied() == faults_seen_) return;
    faults_seen_ = network.faults_applied();
    const auto dead =
        dead_switch_channels(topology_, network.fault_state(), vcs_);
    for (Member& m : members_) {
      const auto& nodes = m.tree->nodes;
      m.dead = std::any_of(nodes.begin(), nodes.end(), [&](auto h) {
        return !network.host_alive(h);
      });
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

  Session& session_;
  const topo::Topology& topology_;
  std::int32_t vcs_;
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
  std::uint64_t snap_key_ = 0;
};

/// One run_streaming call on one Session.
class StreamRun {
 public:
  StreamRun(const MulticastEngine::Config& config,
            const topo::Topology& topology,
            const routing::RouteTable& routes, sim::Trace* trace,
            const core::RotationPlan& plan, std::int32_t stream_packets)
      : config_{config},
        topology_{topology},
        routes_{routes},
        plan_{plan},
        base_{plan.members.front().tree},
        root_{base_.root},
        S_{stream_packets},
        R_{std::min(plan.size(), stream_packets)},
        adaptive_{config.selection == Selection::kAdaptive && R_ > 1},
        session_{topology,      routes,        config.params,
                 config.network, config.repair, "MulticastEngine", trace},
        eff_root_{root_} {}

  StreamingResult run() {
    install();
    launch();
    session_.drain();
    const bool lossy = config_.network.loss_rate > 0.0;
    if ((session_.faulty() || lossy) && config_.repair.max_attempts > 0) {
      repair();
    }
    return finish();
  }

 private:
  /// Route classes, NIs, forwarding state and the reassembly sink.
  void install() {
    // Rotation members ride their decorrelated routes via route classes;
    // member 0 (and any member planned on the primary table) stays on
    // class 0, so an R = 1 plan leaves the network untouched.
    for (std::int32_t r = 1; r < R_; ++r) {
      const auto& member = plan_.members[static_cast<std::size_t>(r)];
      if (member.table) session_.network().bind_route_class(r, *member.table);
    }
    for (topo::HostId h : base_.nodes) session_.add_ni(h, NiStyle::kSmartFpfs);
    for (const auto& flow : config_.background) {
      session_.add_ni(flow.src, NiStyle::kSmartFpfs);
      session_.add_ni(flow.dst, NiStyle::kSmartFpfs);
    }
    // One message per streaming class; member r's tree carries class r.
    // Static: class r holds the stream packets congruent to r mod R,
    // with per-class packet indices. Adaptive: any packet may ride any
    // class, so every class is installed with the full stream as
    // packet_count and the *global* stream index as packet index — a
    // class carries the sparse index subset the selector routes to it.
    for (std::int32_t r = 0; r < R_; ++r) {
      std::vector<std::int32_t> indices;
      const std::int32_t step = adaptive_ ? 1 : R_;
      for (std::int32_t g = adaptive_ ? 0 : r; g < S_; g += step) {
        indices.push_back(g);
      }
      const net::MessageId message = session_.new_message();
      session_.install_tree(message,
                            plan_.members[static_cast<std::size_t>(r)].tree,
                            static_cast<std::int32_t>(indices.size()), r);
      stream_index_.push_back(std::move(indices));
      stream_messages_.push_back(message);
    }
    // Background unicast flows: one message per flow, a two-node chain
    // on the primary table. Their packets contend for wires and
    // coprocessors but never enter stream accounting.
    for (const auto& flow : config_.background) {
      session_.install_unicast(session_.new_message(), flow.src, flow.dst,
                               flow.packets);
      stream_index_.emplace_back();
    }
    const auto num_hosts = static_cast<std::size_t>(topology_.num_hosts());
    arrival_.resize(num_hosts);
    seen_count_.assign(num_hosts, 0);
    for (topo::HostId h : base_.nodes) {
      if (h != root_) {
        arrival_[static_cast<std::size_t>(h)].assign(
            static_cast<std::size_t>(S_), kNotYet);
      }
    }
    session_.for_each_ni([this](netif::NetworkInterface& ni) {
      ni.on_packet_at_ni = [this](topo::HostId dest, const net::Packet& p) {
        on_packet(dest, p);
      };
    });
  }

  /// Per-destination reassembly: the first receive-processing of each
  /// stream index counts; the host's t_r follows the last one. Events
  /// dispatch in time order, so the latest stamp is the makespan.
  void on_packet(topo::HostId dest, const net::Packet& p) {
    const auto& indices =
        stream_index_[static_cast<std::size_t>(p.message - 1)];
    if (indices.empty() || dest == root_) return;  // not a stream packet
    const std::int32_t g = indices[static_cast<std::size_t>(p.packet_index)];
    auto& at =
        arrival_[static_cast<std::size_t>(dest)][static_cast<std::size_t>(g)];
    if (at != kNotYet) return;  // a repair resend of a packet already seen
    at = session_.sim().now();
    result_.ni_makespan = at;
    ++result_.packets_delivered;
    if (++seen_count_[static_cast<std::size_t>(dest)] == S_) {
      session_.host(dest).software_receive([this, dest] {
        result_.makespan = session_.sim().now();
        host_all_.emplace_back(dest, result_.makespan);
      });
    }
  }

  /// Telemetry (adaptive), the stream itself, then the background flows.
  void launch() {
    if (adaptive_) {
      selector_.emplace(session_, topology_, routes_.virtual_channels(),
                        config_.params, plan_, R_, S_);
      selector_->start();
    }
    session_.sim().schedule_at(sim::Time::zero(), [this] {
      auto& ni = static_cast<netif::FpfsNi&>(session_.ni(root_));
      if (adaptive_) {
        ni.start_streaming_adaptive(
            stream_messages_, S_, session_.host(root_),
            [this](std::int32_t g) { return selector_->select(g); });
      } else {
        ni.start_streaming(stream_messages_, session_.host(root_));
      }
    });
    auto message = static_cast<net::MessageId>(R_);
    for (const auto& flow : config_.background) {
      session_.start_at(flow.start, flow.src, ++message);
    }
  }

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
    const net::MessageId message = session_.new_message();
    const auto count = static_cast<std::int32_t>(share.size());
    session_.install_tree(message, *rtree, count);
    result_.packets_resent += count;
    stream_index_.push_back(std::move(share));
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
    if (eff_root_ == root_) {
      eff_root_ = session_.elect(base_.nodes, root_, [this](topo::HostId h) {
        return seen_count_[static_cast<std::size_t>(h)] > 0;
      });
      if (eff_root_ == topo::kInvalidId) {
        eff_root_ = root_;
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

  /// All fault events fire during the first drain (plans are scheduled
  /// up front), so the dead set here is final. Root alive: patch the
  /// rotation set incrementally (replan_rotation — members untouched by
  /// the dead set survive verbatim, broken members are re-planned over
  /// their surviving chain) and resend what is missing down it. Root
  /// dead: hand off per packet.
  void repair() {
    net::WormholeNetwork& network = session_.network();
    if (network.host_alive(root_)) {
      const auto dead = dead_switch_channels(topology_, network.fault_state(),
                                             routes_.virtual_channels());
      std::vector<topo::HostId> dead_hosts;
      for (topo::HostId h : base_.nodes) {
        if (!network.host_alive(h)) dead_hosts.push_back(h);
      }
      auto patched = core::replan_rotation(topology_, network.routes(), plan_,
                                           dead, dead_hosts);
      live_ = std::move(patched.plan);
      result_.replans = patched.rebuilt;
    }
    session_.repair_rounds([&](sim::Time start_at) {
      if (network.host_alive(root_)) return repair_from_root(start_at);
      return config_.repair.root_handoff && hand_off(start_at);
    });
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

  StreamingResult finish() {
    StreamingResult& result = result_;
    result.stream_packets = S_;
    result.rotation_requested = plan_.requested;
    result.rotation_used = R_;
    result.overlap_mean = plan_.overlap_mean();
    result.overlap_max = plan_.overlap_max();
    result.effective_root = eff_root_;
    result.p99_gap = p99_inorder_gap();
    result.destinations =
        session_.verdicts(base_.nodes, root_, eff_root_, host_all_);
    result.outcome = outcome_of(result.destinations);
    if (!session_.faulty() && config_.network.loss_rate <= 0.0 &&
        result.outcome != Outcome::kComplete) {
      throw std::runtime_error(
          "MulticastEngine: streaming broadcast did not complete");
    }
    if (result.ni_makespan > sim::Time::zero()) {
      const double flits =
          static_cast<double>(result.packets_delivered) *
          (static_cast<double>(config_.network.packet_bytes) / 8.0);
      result.flits_per_us = flits / result.ni_makespan.as_us();
    }
    result.selection = adaptive_ ? Selection::kAdaptive : Selection::kStatic;
    const std::int64_t t_snd_ns = config_.params.t_snd.count_ns();
    for (std::int32_t r = 0; r < R_; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const auto n =
          adaptive_ ? selector_->sent(i)
                    : static_cast<std::int64_t>(stream_index_[i].size());
      result.member_packets.push_back(n);
      const auto& tree = plan_.members[static_cast<std::size_t>(r)].tree;
      std::int64_t bottleneck_ns = 0;
      for (std::size_t j = 0; j < tree.nodes.size(); ++j) {
        std::int64_t work =
            static_cast<std::int64_t>(tree.children_at(j).size()) * t_snd_ns;
        if (tree.nodes[j] != root_) work += config_.params.t_rcv.count_ns();
        bottleneck_ns = std::max(bottleneck_ns, work);
      }
      result.member_ni_work_us.push_back(static_cast<double>(n) *
                                         static_cast<double>(bottleneck_ns) /
                                         1000.0);
    }
    result.telemetry_snapshots = adaptive_ ? selector_->snapshots() : 0;
    result.telemetry_digest = adaptive_ ? selector_->digest() : 0;
    result.total_channel_block_time = session_.network().total_block_time();
    result.events_dispatched =
        static_cast<std::int64_t>(session_.sim().events_dispatched());
    return std::move(result);
  }

  const MulticastEngine::Config& config_;
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  const core::RotationPlan& plan_;
  const core::HostTree& base_;
  topo::HostId root_;
  std::int32_t S_;  ///< stream packets
  /// Classes that actually carry packets: packet g rides class g mod R.
  std::int32_t R_;
  /// An R = 1 plan degrades adaptive to static: nothing to choose.
  bool adaptive_;
  Session session_;
  std::vector<net::MessageId> stream_messages_;
  /// Stream index of each message's packets (index = message id - 1):
  /// packet j of message m carries stream packet stream_index_[m - 1][j].
  /// Empty for background flows, which stay out of stream accounting.
  std::vector<std::vector<std::int32_t>> stream_index_;
  static constexpr sim::Time kNotYet = sim::Time::max();
  /// [host][stream index]: first receive-processing, kNotYet until then.
  std::vector<std::vector<sim::Time>> arrival_;
  std::vector<std::int32_t> seen_count_;
  /// (dest, time) at host-level completion of the whole stream.
  std::vector<std::pair<topo::HostId, sim::Time>> host_all_;
  std::optional<AdaptiveSelector> selector_;
  core::RotationPlan live_;  ///< the patched plan repair rides
  topo::HostId eff_root_;
  StreamingResult result_;
};

}  // namespace

StreamingResult MulticastEngine::run_streaming(
    const core::RotationPlan& plan, std::int32_t stream_packets) const {
  validate_stream(config_, topology_, plan, stream_packets);
  StreamRun run{config_, topology_, routes_, trace_, plan, stream_packets};
  return run.run();
}

}  // namespace nimcast::mcast
