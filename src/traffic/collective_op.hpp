#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/host_tree.hpp"
#include "mcast/session.hpp"
#include "netif/collective_role.hpp"
#include "traffic/traffic_engine.hpp"

namespace nimcast::traffic {

/// The traffic engine's bookkeeping for one real-kind collective op: one
/// message whose hosts run netif::CollectiveRole firmware on their NIs.
/// It installs and starts each round and keeps what spans rounds (the
/// per-kind obligation, gather stamps, reduce salvage and contributors,
/// hand-off eligibility, the all-reduce rebroadcast) to write the op's
/// verdicts. A host's own completion is the ledger's arrived(key, host).
class CollectiveOp {
  using Kind = netif::CollectiveKind;

 public:
  /// Installs the first round's roles as `message` (of ledger `key`);
  /// `op` must outlive the object.
  CollectiveOp(mcast::Session& session, const TrafficOp& op, std::size_t key,
               net::MessageId message, bool root_handoff)
      : session_{session},
        kind_{*op.kind},
        tree_{op.tree},
        packets_{op.packets},
        key_{key},
        root_handoff_{root_handoff},
        eff_root_{op.tree.root},
        gathered_at_(session.num_hosts(), kNotYet),
        salvaged_(session.num_hosts(), 0) {
    install(message, tree_, kind_);
  }

  /// Hosts whose role completes in a fault-free run: every non-root for
  /// broadcast and scatter, the root for gather and reduce, all for
  /// all-reduce.
  [[nodiscard]] static std::int32_t completing_hosts(Kind k,
                                                     std::int32_t group) {
    if (k == Kind::kGather || k == Kind::kReduce) return 1;
    return k == Kind::kAllReduce ? group : group - 1;
  }

  /// Starts the latest round: each starting host pays t_s, then its NI
  /// starts its role — now, or from one event per host at `at`.
  void start(std::optional<sim::Time> at = std::nullopt) {
    for (topo::HostId h : round_nodes_) {
      netif::NetworkInterface* ni = &session_.ni(h);
      if (!ni->role(message_)->starts()) continue;
      netif::Host* host = &session_.host(h);
      const auto begin = [ni, host, message = message_] {
        host->software_send([ni, message] { ni->start_role(message); });
      };
      if (at) {
        session_.sim().schedule_at(*at, begin);
      } else {
        begin();
      }
    }
  }

  /// The op's ledger key: the plan index its completions are logged under.
  [[nodiscard]] std::size_t key() const { return key_; }

  /// One repair round after a drain: re-parents the still-needy,
  /// reachable participants under the effective root (Session::
  /// repair_tree) and starts them at `start_at` under a new message id.
  /// Broadcast, scatter and gather resend what is missing; a reduce
  /// re-folds what the live root has not salvaged; an all-reduce whose up
  /// phase completed re-broadcasts. Returns whether it started a round.
  bool repair_round(sim::Time start_at) {
    settle();
    if (op_complete()) return false;
    if (!session_.network().host_alive(eff_root_) && !hand_off()) {
      return false;
    }
    const bool rebroadcast = kind_ == Kind::kAllReduce && root_done_;
    const bool refold = !rebroadcast && up_kind(kind_);
    if (refold) salvage();
    const auto needs = [&](topo::HostId h) {
      const auto i = static_cast<std::size_t>(h);
      if (kind_ == Kind::kGather) return gathered_at_[i] == kNotYet;
      return refold ? salvaged_[i] == 0 : !completed(h);
    };
    const auto rtree = session_.repair_tree(eff_root_, tree_.nodes, needs,
                                            tree_.root_children());
    if (!rtree) return false;
    ++repairs_;
    install(session_.new_message(key_), *rtree,
            rebroadcast ? Kind::kBroadcast : kind_);
    start(start_at);
    return true;
  }

  /// Writes the op's verdicts into `rec` (`completions`: the session's
  /// completion log entries of key(), in log order). A destination is
  /// delivered when its kind's obligation is met: its message or result
  /// arrived, its message reached the root (gather), or its contribution
  /// folded into the root's result (reduce, stamped with the root's
  /// completion).
  void complete(
      OpRecord& rec,
      std::span<const std::pair<topo::HostId, sim::Time>> completions) {
    settle();
    rec.completions.assign(completions.begin(), completions.end());
    rec.packets_delivered = packets_delivered_;
    rec.repairs = repairs_;
    rec.root_handoffs = root_handoffs_;
    rec.effective_root = eff_root_;
    rec.contributors = contributors_;
    std::vector<std::pair<topo::HostId, sim::Time>> done;
    sim::Time root_completed_at;
    if (kind_ == Kind::kGather) {
      for (topo::HostId h : tree_.nodes) {
        const sim::Time at = gathered_at_[static_cast<std::size_t>(h)];
        if (at != kNotYet) done.emplace_back(h, at);
      }
    } else if (kind_ == Kind::kReduce) {
      for (const auto& [h, t] : rec.completions) {
        if (h == eff_root_) root_completed_at = t;
      }
      for (topo::HostId h : contributors_) {
        done.emplace_back(h, root_completed_at);
      }
    } else {
      done = rec.completions;
    }
    rec.destinations =
        session_.verdicts(tree_.nodes, tree_.root, eff_root_, done);
    if (kind_ == Kind::kReduce) {
      for (auto& st : rec.destinations) st.completed_at = root_completed_at;
    }
    rec.outcome = mcast::outcome_of(rec.destinations);
  }

 private:
  static constexpr sim::Time kNotYet = sim::Time::max();

  static bool up_kind(Kind k) {
    return k == Kind::kReduce || k == Kind::kAllReduce;
  }

  /// `h` and every host below it in `t`.
  static std::vector<topo::HostId> subtree(const core::HostTree& t,
                                           topo::HostId h) {
    std::vector<topo::HostId> out{h};
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto kids = t.children(out[i]);
      out.insert(out.end(), kids.begin(), kids.end());
    }
    return out;
  }

  /// Installs a round's roles over `t` as `message` and makes it the
  /// latest round.
  void install(net::MessageId message, const core::HostTree& t, Kind kind) {
    std::vector<topo::HostId> parent(session_.num_hosts(), topo::kInvalidId);
    for (std::size_t r = 0; r < t.nodes.size(); ++r) {
      for (topo::HostId c : t.children_at(r)) {
        parent[static_cast<std::size_t>(c)] = t.nodes[r];
      }
    }
    for (std::size_t r = 0; r < t.nodes.size(); ++r) {
      const topo::HostId h = t.nodes[r];
      const auto kids = t.children_at(r);
      netif::CollectiveRole role;
      role.kind = kind;
      role.parent = parent[static_cast<std::size_t>(h)];
      role.children.assign(kids.begin(), kids.end());
      role.packets = packets_;
      if (kind == Kind::kScatter || h == t.root) {
        for (topo::HostId c : role.children) {
          for (topo::HostId d : subtree(t, c)) role.next_hop.emplace_back(d, c);
        }
        std::sort(role.next_hop.begin(), role.next_hop.end());
      }
      session_.ni(h).install_role(message, std::move(role));
    }
    message_ = message;
    round_nodes_ = t.nodes;
    round_root_ = session_.ni(t.root).role(message);
    unsettled_ = true;
    if (up_kind(kind)) up_root_ = round_root_;
  }

  /// Folds the latest round's results into the cross-round state, once,
  /// after its drain.
  void settle() {
    if (!unsettled_) return;
    unsettled_ = false;
    for (topo::HostId h : round_nodes_) {
      packets_delivered_ += session_.ni(h).role(message_)->delivered;
    }
    for (const auto& [src, at] : round_root_->sources_done) {
      sim::Time& stamp = gathered_at_[static_cast<std::size_t>(src)];
      if (stamp == kNotYet) stamp = at;
    }
    if (!up_kind(round_root_->kind) || !round_root_->done || root_done_) {
      return;
    }
    root_done_ = true;
    std::vector<std::uint8_t> in = salvaged_;
    for (topo::HostId x : round_nodes_) in[static_cast<std::size_t>(x)] = 1;
    for (topo::HostId x : tree_.nodes) {
      if (in[static_cast<std::size_t>(x)] != 0) contributors_.push_back(x);
    }
  }

  [[nodiscard]] bool completed(topo::HostId h) const {
    return session_.arrived(key_, h);
  }

  [[nodiscard]] bool op_complete() const {
    const auto n = static_cast<std::ptrdiff_t>(tree_.nodes.size()) - 1;
    const auto done =
        std::count_if(tree_.nodes.begin(), tree_.nodes.end(),
                      [this](topo::HostId h) { return completed(h); });
    if (kind_ == Kind::kGather) {
      return std::count_if(gathered_at_.begin(), gathered_at_.end(),
                           [](sim::Time t) { return t != kNotYet; }) == n;
    }
    if (!up_kind(kind_)) return done == n;
    return root_done_ && (kind_ == Kind::kReduce || done == n + 1);
  }

  /// The live root's own contribution plus every subtree whose up-phase
  /// packets all folded into the latest up round's root partial.
  void salvage() {
    salvaged_[static_cast<std::size_t>(eff_root_)] = 1;
    if (up_root_ == nullptr) return;
    const auto& kids = up_root_->children;
    for (const auto& [d, hop] : up_root_->next_hop) {
      const auto i = std::find(kids.begin(), kids.end(), hop) - kids.begin();
      if (up_root_->child_folded[static_cast<std::size_t>(i)] == packets_) {
        salvaged_[static_cast<std::size_t>(d)] = 1;
      }
    }
  }

  /// With the initiator dead, elects the first alive participant (tree
  /// order) holding what the round must send: a result holder for
  /// broadcast and post-up-phase all-reduce, anyone for gather and
  /// reduce. Scatter never hands off: its payloads died with the root.
  /// Every fault fires in the first drain, so this happens at most once.
  bool hand_off() {
    if (!root_handoff_ || kind_ == Kind::kScatter) return false;
    const bool need_result_holder =
        kind_ == Kind::kBroadcast || (kind_ == Kind::kAllReduce && root_done_);
    const topo::HostId elected =
        session_.elect(tree_.nodes, eff_root_, [&](topo::HostId h) {
          return !need_result_holder || completed(h);
        });
    if (elected == topo::kInvalidId) return false;  // died with the root
    eff_root_ = elected;
    ++root_handoffs_;
    if (kind_ == Kind::kGather) {
      // What the old root gathered died with it; the replacement's own
      // message is already local.
      gathered_at_.assign(gathered_at_.size(), kNotYet);
      gathered_at_[static_cast<std::size_t>(eff_root_)] = session_.sim().now();
    }
    if (kind_ == Kind::kReduce || (kind_ == Kind::kAllReduce && !root_done_)) {
      // The old root's partial died with it: nothing is salvaged.
      salvaged_.assign(salvaged_.size(), 0);
      up_root_ = nullptr;
    }
    return true;
  }

  mcast::Session& session_;
  Kind kind_;
  const core::HostTree& tree_;
  std::int32_t packets_;
  std::size_t key_;
  bool root_handoff_;
  topo::HostId eff_root_;
  std::int32_t repairs_ = 0;
  std::int32_t root_handoffs_ = 0;
  std::int64_t packets_delivered_ = 0;
  // The latest round, and whether settle() has yet to read it.
  net::MessageId message_ = 0;
  std::vector<topo::HostId> round_nodes_;
  const netif::CollectiveRole* round_root_ = nullptr;
  bool unsettled_ = false;
  /// When each gather source's full message reached the round root.
  std::vector<sim::Time> gathered_at_;
  /// A round root finished combining; `contributors_` is then that
  /// round's hosts plus everything salvaged before it.
  bool root_done_ = false;
  std::vector<topo::HostId> contributors_;
  /// Hosts whose contribution already folded into the live root's
  /// partial, read off `up_root_`: the latest up round's root role, null
  /// when nothing is salvageable.
  std::vector<std::uint8_t> salvaged_;
  const netif::CollectiveRole* up_root_ = nullptr;
};

}  // namespace nimcast::traffic
