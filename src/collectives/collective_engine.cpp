#include "collectives/collective_engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "mcast/session.hpp"
#include "netif/buffer_tracker.hpp"
#include "netif/serial_server.hpp"

namespace nimcast::collectives {

const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kScatter: return "scatter";
    case CollectiveKind::kGather: return "gather";
    case CollectiveKind::kReduce: return "reduce";
    case CollectiveKind::kAllReduce: return "allreduce";
  }
  return "?";
}

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

namespace {

constexpr net::MessageId kMessage = 1;
/// Packet tag values for reduce/allreduce phases; scatter/gather store a
/// host id (>= 0) in the tag instead.
constexpr std::int32_t kUpPhase = -2;
constexpr std::int32_t kDownPhase = -3;

/// Collective firmware model: one per participating host (and one per
/// repair round the host takes part in — each round rebinds a fresh
/// instance). Mirrors the structure of netif::NetworkInterface
/// (coprocessor SerialServer, t_rcv receive processing in the
/// low-priority lane, t_snd per injected copy) but speaks the collective
/// protocols instead of plain multicast forwarding.
class CollectiveNi : public net::DeliverySink {
 public:
  CollectiveNi(sim::Simulator& simctx, net::WormholeNetwork& network,
               const CollectiveEngine::Config& cfg, CollectiveKind kind,
               topo::HostId self, topo::HostId parent,
               std::vector<topo::HostId> children, std::int32_t m,
               sim::Trace* trace)
      : sim_{simctx},
        network_{network},
        cfg_{cfg},
        kind_{kind},
        self_{self},
        parent_{parent},
        children_{std::move(children)},
        m_{m},
        trace_{trace},
        coproc_{simctx, cfg.params.ni_engines},
        buffer_{simctx},
        folded_(static_cast<std::size_t>(m)),
        child_folded_(children_.size()) {
    network.bind_sink(self, this);
  }

  void on_packet_delivered(const net::Packet& packet) override {
    buffer_.acquire();
    coproc_.enqueue_low(cfg_.params.t_rcv, [this, packet] {
      handle(packet);
    });
  }

  /// Fired when this NI's role in the collective is fulfilled (before
  /// the host's t_r).
  std::function<void()> on_complete;
  /// Gather root only: fired when one source's full m-packet message has
  /// arrived (fault accounting — the root may gather some sources and
  /// lose others).
  std::function<void(topo::HostId)> on_source_complete;
  /// Scatter: (final destination, next tree hop), sorted by destination.
  std::vector<std::pair<topo::HostId, topo::HostId>> next_hop;
  /// Gather: number of subtree descendants feeding this node.
  std::int32_t subtree_below = 0;

  /// Reduce/allreduce: whether direct child `i` (in tree order) has
  /// folded every up-phase packet into this node's partial — its whole
  /// subtree's contribution is in. The root queries this after an
  /// incomplete round to salvage already-folded subtrees instead of
  /// restarting the reduce from scratch.
  [[nodiscard]] bool fully_folded(std::size_t i) const {
    return child_folded_[i] == m_;
  }

  [[nodiscard]] const netif::BufferTracker& buffer() const { return buffer_; }

  /// Source-side start, called after the host's t_s.
  void start() {
    switch (kind_) {
      case CollectiveKind::kBroadcast:
        // Packet-major FPFS over the children.
        for (std::int32_t j = 0; j < m_; ++j) {
          for (topo::HostId c : children_) send(c, j, kDownPhase);
        }
        break;
      case CollectiveKind::kScatter:
        // Packet-major across destinations in host order: packet 0 of
        // every destination first, then packet 1, ... — keeps every
        // subtree's pipeline fed (the FPFS principle applied to
        // personalized data).
        for (std::int32_t j = 0; j < m_; ++j) {
          for (const auto& [dest, hop] : next_hop) send(hop, j, dest);
        }
        break;
      case CollectiveKind::kGather:
        // Non-root nodes push their own message toward the root.
        if (parent_ != topo::kInvalidId) {
          for (std::int32_t j = 0; j < m_; ++j) send(parent_, j, self_);
        }
        break;
      case CollectiveKind::kReduce:
      case CollectiveKind::kAllReduce:
        // Leaves stream their contribution up; interior nodes hold
        // theirs as the initial partial result and wait for children.
        if (children_.empty() && parent_ != topo::kInvalidId) {
          for (std::int32_t j = 0; j < m_; ++j) send(parent_, j, kUpPhase);
        }
        break;
    }
  }

 private:
  void send(topo::HostId to, std::int32_t index, std::int32_t tag) {
    coproc_.enqueue(cfg_.params.t_snd, [this, to, index, tag] {
      net::Packet p;
      p.message = kMessage;
      p.packet_index = index;
      p.packet_count = m_;
      p.sender = self_;
      p.dest = to;
      p.tag = tag;
      network_.send(p);
      if (trace_) {
        trace_->record(sim_.now(), sim::TraceCategory::kNi, self_,
                       "coll send pkt=" + std::to_string(index) + " tag=" +
                           std::to_string(tag) + " -> host " +
                           std::to_string(to));
      }
    });
  }

  void complete() {
    if (done_) throw std::logic_error("CollectiveNi: completed twice");
    done_ = true;
    if (on_complete) on_complete();
  }

  void forward_down(std::int32_t index) {
    for (topo::HostId c : children_) send(c, index, kDownPhase);
    if (++own_received_ == m_) complete();
  }

  void handle(const net::Packet& packet) {
    buffer_.release();
    switch (kind_) {
      case CollectiveKind::kBroadcast:
        forward_down(packet.packet_index);
        break;
      case CollectiveKind::kScatter:
        if (packet.tag == self_) {
          if (++own_received_ == m_) complete();
        } else {
          const auto it = std::lower_bound(
              next_hop.begin(), next_hop.end(),
              std::make_pair(packet.tag, topo::kInvalidId));
          send(it->second, packet.packet_index, packet.tag);
        }
        break;
      case CollectiveKind::kGather:
        if (parent_ != topo::kInvalidId) {
          send(parent_, packet.packet_index, packet.tag);
          break;
        }
        // Root: per-source accounting (a faulty fabric may gather some
        // sources whole and lose others); done once every descendant's
        // full message is in.
        if (static_cast<std::size_t>(packet.tag) >= source_received_.size()) {
          source_received_.resize(static_cast<std::size_t>(packet.tag) + 1);
        }
        if (++source_received_[static_cast<std::size_t>(packet.tag)] == m_ &&
            on_source_complete) {
          on_source_complete(static_cast<topo::HostId>(packet.tag));
        }
        if (++own_received_ == subtree_below * m_) complete();
        break;
      case CollectiveKind::kReduce:
      case CollectiveKind::kAllReduce:
        if (packet.tag == kUpPhase) {
          handle_up(packet.sender, packet.packet_index);
        } else {
          forward_down(packet.packet_index);  // allreduce down phase
        }
        break;
    }
  }

  /// Reduce up-phase: fold one child packet into the local partial
  /// result (t_comb of coprocessor time); when every child's j-th packet
  /// is folded, index j is ready to move up (or, at the root, is final).
  void handle_up(topo::HostId from, std::int32_t index) {
    coproc_.enqueue(cfg_.t_comb, [this, from, index] {
      const auto child = std::find(children_.begin(), children_.end(), from);
      if (child != children_.end()) {
        ++child_folded_[static_cast<std::size_t>(child - children_.begin())];
      }
      if (++folded_[static_cast<std::size_t>(index)] <
          static_cast<std::int32_t>(children_.size())) {
        return;
      }
      if (parent_ != topo::kInvalidId) {
        send(parent_, index, kUpPhase);
        return;
      }
      if (kind_ == CollectiveKind::kAllReduce) {
        // Pipeline the finished index straight back down; the root
        // itself holds the full result once every index has folded.
        for (topo::HostId c : children_) send(c, index, kDownPhase);
      }
      if (++reduced_indexes_ == m_) complete();
    });
  }

  sim::Simulator& sim_;
  net::WormholeNetwork& network_;
  const CollectiveEngine::Config& cfg_;
  CollectiveKind kind_;
  topo::HostId self_;
  topo::HostId parent_;
  std::vector<topo::HostId> children_;
  std::int32_t m_;
  sim::Trace* trace_;
  netif::SerialServer coproc_;
  netif::BufferTracker buffer_;

  std::int32_t own_received_ = 0;
  std::vector<std::int32_t> folded_;        ///< per packet index
  std::vector<std::int32_t> child_folded_;  ///< per child, tree order
  std::vector<std::int32_t> source_received_;  ///< per gather source
  std::int32_t reduced_indexes_ = 0;
  bool done_ = false;
};

/// One CollectiveEngine::run call on one Session.
///
/// Cross-round fault bookkeeping, all dense per host: `completed_` is
/// the per-host semantic marker (own message in / holds the result);
/// `gathered_at_` stamps a gather source when its full message reached
/// the round root (kNotYet until then); `root_done_` means a round root
/// finished combining (reduce/allreduce up phase), and `contributors_`
/// is the union of the achieving round's up-phase participants and
/// everything salvaged from earlier rounds — the reduce-correctness
/// accounting. `eff_root_` is the initiator in force: the tree's root
/// until it dies and RepairPolicy::root_handoff elects a replacement.
/// `salvaged_` marks hosts whose reduce contribution already folded into
/// the live root's partial (they are not re-run); `root_ni_` and
/// `root_subtrees_` expose the latest up-phase round's root firmware and
/// its per-child subtree membership, which is what salvage reads.
class CollectiveRun {
 public:
  CollectiveRun(const CollectiveEngine::Config& config,
                const topo::Topology& topology,
                const routing::RouteTable& routes, sim::Trace* trace,
                CollectiveKind kind, const core::HostTree& tree,
                std::int32_t m)
      : config_{config},
        trace_{trace},
        kind_{kind},
        tree_{tree},
        m_{m},
        session_{topology,      routes,        config.params,
                 config.network, config.repair, "CollectiveEngine", trace},
        parent_(static_cast<std::size_t>(topology.num_hosts())),
        completed_(parent_.size(), 0),
        gathered_at_(parent_.size(), kNotYet),
        salvaged_(parent_.size(), 0),
        eff_root_{tree.root} {}

  CollectiveResult run() {
    launch(tree_, kind_, sim::Time::zero());
    session_.drain();
    const bool faulty = session_.faulty();
    if (!op_complete() && !faulty) {
      throw std::runtime_error("CollectiveEngine: " +
                               std::string(to_string(kind_)) +
                               " did not complete everywhere");
    }
    if (faulty) {
      session_.repair_rounds(
          [this](sim::Time start_at) { return repair_round(start_at); });
    }
    return finish();
  }

 private:
  /// Builds fresh per-round firmware over `t`, rebinding the network
  /// sinks of every participant, and starts the round — immediately for
  /// the initial attempt, at `start` for repair rounds.
  void launch(const core::HostTree& t, CollectiveKind kind, sim::Time start) {
    for (topo::HostId h : t.nodes) {
      for (topo::HostId c : t.children.at(h)) {
        parent_[static_cast<std::size_t>(c)] = h;
      }
    }
    parent_[static_cast<std::size_t>(t.root)] = topo::kInvalidId;
    const bool up_kind =
        kind == CollectiveKind::kReduce || kind == CollectiveKind::kAllReduce;
    if (up_kind) {
      up_nodes_ = t.nodes;
      root_subtrees_.clear();
      for (topo::HostId c : t.children.at(t.root)) {
        root_subtrees_.push_back(subtree(t, c));
      }
    }
    for (topo::HostId h : t.nodes) {
      arena_.push_back(std::make_unique<CollectiveNi>(
          session_.sim(), session_.network(), config_, kind, h,
          parent_[static_cast<std::size_t>(h)], t.children.at(h), m_, trace_));
      session_.add_host(h);
      CollectiveNi& ni = *arena_.back();
      // Scatter next hops and the gather descendant count.
      for (topo::HostId c : t.children.at(h)) {
        for (topo::HostId d : subtree(t, c)) ni.next_hop.emplace_back(d, c);
      }
      std::sort(ni.next_hop.begin(), ni.next_hop.end());
      ni.subtree_below = static_cast<std::int32_t>(ni.next_hop.size());
      const bool round_root = h == t.root;
      if (up_kind && round_root) root_ni_ = &ni;
      ni.on_complete = [this, h, round_root, up_kind] {
        on_complete(h, up_kind && round_root);
      };
      if (kind == CollectiveKind::kGather && round_root) {
        ni.on_source_complete = [this](topo::HostId src) {
          auto& at = gathered_at_[static_cast<std::size_t>(src)];
          if (at != kNotYet) return;
          at = session_.sim().now();
        };
      }
      // Who pays t_s before their NI acts: the root of a broadcast or
      // scatter, every source of a gather, and everyone in a reduce (the
      // root's moves its own partial result to the NI). Repair rounds
      // start after the backoff; the starters capture the round's NI,
      // which outlives the run in `arena_`.
      const bool starts =
          round_root ? kind != CollectiveKind::kGather
                     : kind == CollectiveKind::kGather || up_kind;
      if (!starts) continue;
      netif::Host* host = &session_.host(h);
      CollectiveNi* nip = &ni;
      if (start == sim::Time::zero()) {
        host->software_send([nip] { nip->start(); });
      } else {
        session_.sim().schedule_at(start, [nip, host] {
          host->software_send([nip] { nip->start(); });
        });
      }
    }
  }

  /// `h` and every host below it in `t`.
  static std::vector<topo::HostId> subtree(const core::HostTree& t,
                                           topo::HostId h) {
    std::vector<topo::HostId> out{h};
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto& kids = t.children.at(out[i]);
      out.insert(out.end(), kids.begin(), kids.end());
    }
    return out;
  }

  void on_complete(topo::HostId h, bool up_root) {
    if (up_root && !root_done_) {
      root_done_ = true;
      // The achieving round's participants plus everything salvaged
      // from earlier rounds, in original tree order.
      std::vector<std::uint8_t> in = salvaged_;
      for (topo::HostId x : up_nodes_) in[static_cast<std::size_t>(x)] = 1;
      contributors_.clear();
      for (topo::HostId x : tree_.nodes) {
        if (in[static_cast<std::size_t>(x)] != 0) contributors_.push_back(x);
      }
    }
    // A host keeps one semantic completion across repair rounds.
    if (completed(h)) return;
    completed_[static_cast<std::size_t>(h)] = 1;
    session_.host(h).software_receive([this, h] {
      result_.completions.emplace_back(h, session_.sim().now());
    });
  }

  [[nodiscard]] bool completed(topo::HostId h) const {
    return completed_[static_cast<std::size_t>(h)] != 0;
  }

  [[nodiscard]] bool op_complete() const {
    const auto n_participants =
        static_cast<std::ptrdiff_t>(tree_.nodes.size()) - 1;
    const auto completed = std::count(completed_.begin(), completed_.end(), 1);
    switch (kind_) {
      case CollectiveKind::kBroadcast:
      case CollectiveKind::kScatter:
        return completed == n_participants;
      case CollectiveKind::kGather:
        return std::count_if(gathered_at_.begin(), gathered_at_.end(),
                             [](sim::Time t) { return t != kNotYet; }) ==
               n_participants;
      case CollectiveKind::kReduce:
        return root_done_;
      case CollectiveKind::kAllReduce:
        return root_done_ && completed == n_participants + 1;
    }
    return false;
  }

  /// Folds the root-side salvage state into `salvaged_`: the live round
  /// root's own contribution plus every subtree whose up-phase packets
  /// all folded into its partial.
  void salvage() {
    salvaged_[static_cast<std::size_t>(eff_root_)] = 1;
    if (root_ni_ == nullptr) return;
    for (std::size_t i = 0; i < root_subtrees_.size(); ++i) {
      if (!root_ni_->fully_folded(i)) continue;
      for (topo::HostId d : root_subtrees_[i]) {
        salvaged_[static_cast<std::size_t>(d)] = 1;
      }
    }
  }

  /// When the initiator died, RepairPolicy::root_handoff elects the
  /// lowest-ranked (tree-order) alive participant that still holds what
  /// the round must send — any result holder for broadcast and
  /// post-up-phase allreduce, any survivor for gather/reduce (each holds
  /// its own contribution). Scatter never hands off: the personalized
  /// payloads died with the root. Returns false when nobody can take
  /// over. The election happens at most once per run: every fault event
  /// fires during the first drain, so liveness is stable by the time
  /// repair begins.
  bool hand_off() {
    if (!config_.repair.root_handoff || kind_ == CollectiveKind::kScatter) {
      return false;
    }
    const bool need_result_holder =
        kind_ == CollectiveKind::kBroadcast ||
        (kind_ == CollectiveKind::kAllReduce && root_done_);
    const topo::HostId elected =
        session_.elect(tree_.nodes, eff_root_, [&](topo::HostId h) {
          return !need_result_holder || completed(h);
        });
    if (elected == topo::kInvalidId) return false;  // died with the root
    eff_root_ = elected;
    ++result_.root_handoffs;
    if (kind_ == CollectiveKind::kGather) {
      // The partially gathered data died with the old root; sources
      // re-send everything to the replacement, whose own message is
      // already local.
      gathered_at_.assign(gathered_at_.size(), kNotYet);
      gathered_at_[static_cast<std::size_t>(eff_root_)] = session_.sim().now();
    }
    if (kind_ == CollectiveKind::kReduce ||
        (kind_ == CollectiveKind::kAllReduce && !root_done_)) {
      // The old root's partial died with it: nothing is salvaged.
      salvaged_.assign(salvaged_.size(), 0);
      root_ni_ = nullptr;
    }
    return true;
  }

  /// Tree repair: re-parent the still-needy, still-reachable
  /// participants into a fresh k-binomial tree in contention-free order
  /// and re-run. Broadcast/scatter/gather rounds resend only what is
  /// missing; a reduce round re-folds only the missing contributors —
  /// subtrees whose up-phase packets all reached the live root are
  /// salvaged from its partial; an allreduce with a complete up phase but
  /// lost down-phase deliveries re-broadcasts the root's result to
  /// whoever missed it.
  bool repair_round(sim::Time start_at) {
    if (op_complete()) return false;
    if (!session_.network().host_alive(eff_root_) && !hand_off()) {
      return false;
    }
    // An allreduce whose up phase completed only re-broadcasts the
    // result; a reduce or an unfinished allreduce re-folds what the live
    // root has not salvaged.
    const bool rebroadcast = kind_ == CollectiveKind::kAllReduce && root_done_;
    const bool refold = !rebroadcast && (kind_ == CollectiveKind::kReduce ||
                                         kind_ == CollectiveKind::kAllReduce);
    if (refold) salvage();
    const auto needs = [&](topo::HostId h) {
      const auto i = static_cast<std::size_t>(h);
      if (kind_ == CollectiveKind::kGather) return gathered_at_[i] == kNotYet;
      return refold ? salvaged_[i] == 0 : !completed(h);
    };
    const auto rtree = session_.repair_tree(eff_root_, tree_.nodes, needs,
                                            tree_.root_children());
    if (!rtree) return false;
    ++result_.repairs;
    launch(*rtree, rebroadcast ? CollectiveKind::kBroadcast : kind_,
           start_at);
    return true;
  }

  CollectiveResult finish() {
    CollectiveResult& result = result_;
    for (const auto& [h, t] : result.completions) {
      result.latency = std::max(result.latency, t);
    }
    for (const auto& ni : arena_) {
      result.peak_ni_buffer = std::max(result.peak_ni_buffer,
                                       ni->buffer().peak());
    }
    const net::WormholeNetwork& network = session_.network();
    result.packets_injected = network.packets_delivered();
    result.total_channel_block_time = network.total_block_time();
    result.effective_root = eff_root_;
    if (!session_.faulty()) return std::move(result);
    result.root_alive = network.host_alive(eff_root_);
    result.faults_applied = network.faults_applied();
    result.route_epoch = network.routes().epoch();
    result.contributors = contributors_;
    // Per-kind obligation: the host's message or result arrived (its
    // host-level completion), its message reached the root (gather), or
    // its contribution is folded into the root's final result (reduce —
    // stamped with the root's completion, since folds are
    // unattributable).
    std::vector<std::pair<topo::HostId, sim::Time>> done;
    sim::Time root_completed_at;
    switch (kind_) {
      case CollectiveKind::kBroadcast:
      case CollectiveKind::kScatter:
      case CollectiveKind::kAllReduce:
        done = result.completions;
        break;
      case CollectiveKind::kGather:
        for (topo::HostId h : tree_.nodes) {
          const sim::Time at = gathered_at_[static_cast<std::size_t>(h)];
          if (at != kNotYet) done.emplace_back(h, at);
        }
        break;
      case CollectiveKind::kReduce:
        for (const auto& [h, t] : result.completions) {
          if (h == eff_root_) root_completed_at = t;
        }
        if (root_done_) {
          for (topo::HostId h : contributors_) {
            done.emplace_back(h, root_completed_at);
          }
        }
        break;
    }
    result.participants =
        session_.verdicts(tree_.nodes, tree_.root, eff_root_, std::move(done));
    if (kind_ == CollectiveKind::kReduce) {
      for (auto& st : result.participants) st.completed_at = root_completed_at;
    }
    result.outcome = mcast::outcome_of(result.participants);
    return std::move(result);
  }

  const CollectiveEngine::Config& config_;
  sim::Trace* trace_;
  CollectiveKind kind_;
  const core::HostTree& tree_;
  std::int32_t m_;
  mcast::Session session_;
  std::vector<topo::HostId> parent_;  ///< in the latest round's tree
  std::vector<std::unique_ptr<CollectiveNi>> arena_;
  std::vector<std::uint8_t> completed_;
  static constexpr sim::Time kNotYet = sim::Time::max();
  std::vector<sim::Time> gathered_at_;
  bool root_done_ = false;
  std::vector<topo::HostId> up_nodes_;
  std::vector<topo::HostId> contributors_;
  std::vector<std::uint8_t> salvaged_;
  CollectiveNi* root_ni_ = nullptr;
  std::vector<std::vector<topo::HostId>> root_subtrees_;
  topo::HostId eff_root_;
  CollectiveResult result_;
};

}  // namespace

CollectiveEngine::CollectiveEngine(const topo::Topology& topology,
                                   const routing::RouteTable& routes,
                                   Config config, sim::Trace* trace)
    : topology_{topology}, routes_{routes}, config_{config}, trace_{trace} {}

CollectiveResult CollectiveEngine::run(CollectiveKind kind,
                                       const core::HostTree& tree,
                                       std::int32_t m) const {
  if (m < 1) throw std::invalid_argument("CollectiveEngine::run: m < 1");
  if (tree.size() < 2) {
    throw std::invalid_argument("CollectiveEngine::run: need >= 2 nodes");
  }
  for (topo::HostId h : tree.nodes) {
    if (h < 0 || h >= topology_.num_hosts()) {
      throw std::invalid_argument("CollectiveEngine::run: host out of range");
    }
  }
  // The collective firmware has no ACK or retransmit: a lost packet could
  // only leave the operation incomplete.
  if (config_.network.loss_rate > 0.0) {
    throw std::invalid_argument(
        "CollectiveEngine::run: lossy networks are not supported");
  }
  CollectiveRun run{config_, topology_, routes_, trace_, kind, tree, m};
  return run.run();
}

}  // namespace nimcast::collectives
