#include "core/rotation.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/kbinomial.hpp"
#include "routing/route_alternatives.hpp"

namespace nimcast::core {

namespace {

using HostEdge = std::pair<topo::HostId, topo::HostId>;

/// Salted route alternatives probed per chain offset (in addition to
/// the primary table).
constexpr std::int32_t kCandidateSalts = 3;
/// Chain rotations probed per member.
constexpr std::int32_t kCandidateOffsets = 4;
/// Base value the per-candidate salts derive from.
constexpr std::uint64_t kSaltBase = UINT64_C(0x9e3779b97f4a7c15);

/// Directed (parent -> child) edges of a tree, sorted — the member
/// identity the duplicate check compares.
std::vector<HostEdge> tree_edges(const HostTree& tree) {
  std::vector<HostEdge> edges;
  edges.reserve(tree.nodes.size());
  for (topo::HostId h : tree.nodes) {
    for (topo::HostId c : tree.children.at(h)) edges.emplace_back(h, c);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Virtual-root member tree: source -> relay (one copy per packet at
/// the source), relay roots the k-binomial over the rotated chain.
HostTree make_virtual_root_tree(const RankTree& sub, const Chain& dests_rot,
                                topo::HostId source) {
  HostTree subtree = HostTree::bind(sub, dests_rot);
  HostTree tree;
  tree.root = source;
  tree.nodes.reserve(dests_rot.size() + 1);
  tree.nodes.push_back(source);
  tree.nodes.insert(tree.nodes.end(), subtree.nodes.begin(),
                    subtree.nodes.end());
  tree.children = std::move(subtree.children);
  tree.children[source] = {subtree.root};
  return tree;
}

}  // namespace

double RotationPlan::overlap_mean() const {
  if (members.size() < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t r = 1; r < members.size(); ++r) {
    sum += members[r].overlap_fraction;
  }
  return sum / static_cast<double>(members.size() - 1);
}

double RotationPlan::overlap_max() const {
  double best = 0.0;
  for (std::size_t r = 1; r < members.size(); ++r) {
    best = std::max(best, members[r].overlap_fraction);
  }
  return best;
}

namespace {

/// Per-host NI coprocessor work one member tree charges per packet of
/// its stream class, in the default parameterization's microseconds:
/// t_rcv = 2 for every non-root node, t_snd = 3 per child. The planner
/// minimizes the running maximum of this over members — at saturation
/// the sustained period per packet is bound_max / R, so this heuristic
/// is the throughput model (it predicts measured streaming throughput
/// to within a few percent; see bench_streaming_broadcast).
std::map<topo::HostId, std::int32_t> member_ni_work(const HostTree& tree) {
  std::map<topo::HostId, std::int32_t> work;
  for (topo::HostId h : tree.nodes) {
    work[h] = (h == tree.root ? 0 : 2) +
              3 * static_cast<std::int32_t>(tree.children.at(h).size());
  }
  return work;
}

std::int32_t ni_work_max(const std::map<topo::HostId, std::int32_t>& work) {
  std::int32_t best = 0;
  for (const auto& [h, w] : work) best = std::max(best, w);
  return best;
}

}  // namespace

RotationPlan plan_rotation(const topo::Topology& topology,
                           const routing::RouteTable& primary,
                           const routing::UpDownRouter& base,
                           const Chain& participants,
                           const RotationConfig& config) {
  const auto n = static_cast<std::int32_t>(participants.size());
  if (n < 2) {
    throw std::invalid_argument("plan_rotation: need >= 2 participants");
  }
  const std::int32_t requested = std::max(config.rotation_trees, 1);
  const std::int32_t k = std::max(config.fanout_bound, 1);
  const topo::HostId source = participants.front();
  const Chain dests(participants.begin() + 1, participants.end());
  const auto num_dests = static_cast<std::int32_t>(dests.size());

  RotationPlan plan;
  plan.requested = requested;
  plan.fanout_bound = k;

  RotationMember fixed;
  fixed.tree = HostTree::bind(make_kbinomial(n, k), participants);
  fixed.footprint = routing::edge_channel_footprint(
      topology, primary, tree_edges(fixed.tree));
  plan.members.push_back(std::move(fixed));

  // Cumulative per-host NI work over the chosen members; the running
  // max is the plan's predicted saturation bottleneck (per R packets).
  std::map<topo::HostId, std::int32_t> cum_work =
      member_ni_work(plan.members[0].tree);
  plan.ni_work_bound = ni_work_max(cum_work);
  if (requested == 1) return plan;

  // Shared across members: the (n-1)-rank subtree shape, the chosen
  // edge sets (duplicate check), the running footprint union (greedy
  // score) and a per-salt table cache.
  const RankTree sub = make_kbinomial(num_dests, k);
  // Sub-tree ranks ordered by descending fan-out (ties: ascending rank)
  // — the assignment order of the load-balanced binding candidate.
  std::vector<std::int32_t> rank_by_fanout(
      static_cast<std::size_t>(num_dests));
  for (std::int32_t i = 0; i < num_dests; ++i) {
    rank_by_fanout[static_cast<std::size_t>(i)] = i;
  }
  std::stable_sort(rank_by_fanout.begin(), rank_by_fanout.end(),
                   [&sub](std::int32_t a, std::int32_t b) {
                     return sub.children[static_cast<std::size_t>(a)].size() >
                            sub.children[static_cast<std::size_t>(b)].size();
                   });
  std::vector<std::vector<HostEdge>> chosen_edges;
  chosen_edges.push_back(tree_edges(plan.members[0].tree));
  std::vector<std::int32_t> claimed = plan.members[0].footprint;
  std::map<std::uint64_t, std::shared_ptr<const routing::RouteTable>> tables;
  const auto table_for =
      [&](std::uint64_t salt) -> std::shared_ptr<const routing::RouteTable> {
    if (salt == 0) return nullptr;  // primary
    auto it = tables.find(salt);
    if (it != tables.end()) return it->second;
    auto table = routing::make_salted_table(topology, base, salt);
    tables.emplace(salt, table);
    return table;
  };

  const std::int32_t num_offsets = std::min(kCandidateOffsets, num_dests);

  for (std::int32_t r = 1; r < requested; ++r) {
    // Candidate chains. First the load-balanced binding (offset -1):
    // the sub-tree's high-fanout ranks go to the hosts with the least
    // cumulative NI work, so interior forwarding duty rotates across
    // members even though interior ranks are spread uniformly along the
    // chain (no rotation of a fixed rank shape can decorrelate them).
    // Then plain chain rotations probing outward from the member's
    // nominal slot r*D/R, which preserve CCO adjacency.
    std::vector<std::pair<std::int32_t, Chain>> candidates;
    {
      std::vector<std::int32_t> host_by_load(
          static_cast<std::size_t>(num_dests));
      for (std::int32_t i = 0; i < num_dests; ++i) {
        host_by_load[static_cast<std::size_t>(i)] = i;
      }
      std::stable_sort(host_by_load.begin(), host_by_load.end(),
                       [&](std::int32_t a, std::int32_t b) {
                         return cum_work.at(dests[static_cast<std::size_t>(
                                    a)]) <
                                cum_work.at(
                                    dests[static_cast<std::size_t>(b)]);
                       });
      Chain balanced(static_cast<std::size_t>(num_dests));
      for (std::int32_t j = 0; j < num_dests; ++j) {
        const auto jz = static_cast<std::size_t>(j);
        balanced[static_cast<std::size_t>(rank_by_fanout[jz])] =
            dests[static_cast<std::size_t>(host_by_load[jz])];
      }
      candidates.emplace_back(-1, std::move(balanced));
    }
    const std::int32_t slot =
        static_cast<std::int32_t>((static_cast<std::int64_t>(r) * num_dests) /
                                  requested);
    for (std::int32_t j = 0; j < num_offsets; ++j) {
      const std::int32_t offset = (slot + j) % num_dests;
      Chain dests_rot;
      dests_rot.reserve(dests.size());
      dests_rot.insert(dests_rot.end(),
                       dests.begin() + offset, dests.end());
      dests_rot.insert(dests_rot.end(), dests.begin(),
                       dests.begin() + offset);
      candidates.emplace_back(offset, std::move(dests_rot));
    }

    bool found = false;
    RotationMember best;
    std::map<topo::HostId, std::int32_t> best_work;
    std::int32_t best_bottleneck = 0;
    double best_overlap = 0.0;
    std::int32_t best_offset = 0;
    std::uint64_t best_salt_ix = 0;
    for (const auto& [offset, chain] : candidates) {
      HostTree tree = make_virtual_root_tree(sub, chain, source);
      const std::vector<HostEdge> edges = tree_edges(tree);
      // Predicted saturation bottleneck if this candidate is admitted:
      // the max cumulative NI work any host would carry per R packets.
      std::map<topo::HostId, std::int32_t> work = member_ni_work(tree);
      std::int32_t bottleneck = 0;
      for (const auto& [h, w] : work) {
        bottleneck = std::max(bottleneck, cum_work.at(h) + w);
      }
      for (std::int32_t s = 0; s <= kCandidateSalts; ++s) {
        const std::uint64_t salt =
            s == 0 ? 0 : kSaltBase + static_cast<std::uint64_t>(s);
        const auto table = table_for(salt);
        const routing::RouteTable& routes = table ? *table : primary;
        std::vector<std::int32_t> footprint =
            routing::edge_channel_footprint(topology, routes, edges);
        bool duplicate = false;
        for (std::size_t c = 0; c < chosen_edges.size(); ++c) {
          if (chosen_edges[c] == edges &&
              plan.members[c].footprint == footprint) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        const double overlap =
            footprint.empty()
                ? 0.0
                : static_cast<double>(
                      routing::footprint_intersection(footprint, claimed)) /
                      static_cast<double>(footprint.size());
        const auto key = std::make_tuple(
            bottleneck, overlap, offset, static_cast<std::uint64_t>(s));
        if (!found ||
            key < std::make_tuple(best_bottleneck, best_overlap, best_offset,
                                  best_salt_ix)) {
          found = true;
          best_bottleneck = bottleneck;
          best_overlap = overlap;
          best_offset = offset;
          best_salt_ix = static_cast<std::uint64_t>(s);
          best.tree = tree;
          best.table = table;
          best.footprint = std::move(footprint);
          best.chain_offset = offset;
          best.salt = salt;
          best.overlap_fraction = overlap;
          best_work = work;
        }
      }
    }
    // Every candidate duplicated a chosen member: the fabric offers
    // fewer than R distinct trees. Return the maximal feasible set.
    if (!found) break;
    chosen_edges.push_back(tree_edges(best.tree));
    claimed = routing::footprint_union(claimed, best.footprint);
    for (const auto& [h, w] : best_work) cum_work[h] += w;
    plan.members.push_back(std::move(best));
  }
  // The bound is the running max over admitted members; per-packet
  // sustained period at saturation is ni_work_bound / size().
  plan.ni_work_bound = ni_work_max(cum_work);
  return plan;
}

ReplanResult replan_rotation(const topo::Topology& topology,
                             const routing::RouteTable& primary,
                             const RotationPlan& plan,
                             const std::vector<std::int32_t>& dead_channels,
                             const std::vector<topo::HostId>& dead_hosts) {
  ReplanResult out;
  out.plan.requested = plan.requested;
  out.plan.fanout_bound = plan.fanout_bound;
  const std::int32_t k = std::max(plan.fanout_bound, 1);
  const auto host_dead = [&](topo::HostId h) {
    return std::find(dead_hosts.begin(), dead_hosts.end(), h) !=
           dead_hosts.end();
  };

  std::map<topo::HostId, std::int32_t> cum_work;
  std::vector<std::int32_t> claimed;
  std::vector<std::size_t> broken;
  for (std::size_t r = 0; r < plan.members.size(); ++r) {
    const RotationMember& m = plan.members[r];
    const bool dead_node = std::any_of(m.tree.nodes.begin(),
                                       m.tree.nodes.end(), host_dead);
    if (dead_node ||
        routing::footprint_intersection(m.footprint, dead_channels) > 0) {
      broken.push_back(r);
      continue;
    }
    RotationMember kept = m;
    if (kept.table == nullptr) {
      // The primary table is rebound after a fault rebuild; recompute the
      // footprint on the routes the member's packets will actually take,
      // and re-check it against the dead set (no rebuild => still stale).
      kept.footprint = routing::edge_channel_footprint(topology, primary,
                                                       tree_edges(kept.tree));
      if (routing::footprint_intersection(kept.footprint, dead_channels) >
          0) {
        broken.push_back(r);
        continue;
      }
    }
    for (const auto& [h, w] : member_ni_work(kept.tree)) cum_work[h] += w;
    claimed = routing::footprint_union(claimed, kept.footprint);
    out.plan.members.push_back(std::move(kept));
  }

  for (const std::size_t r : broken) {
    const RotationMember& m = plan.members[r];
    if (host_dead(m.tree.root)) {
      ++out.dropped;
      continue;
    }
    Chain chain;
    chain.reserve(m.tree.nodes.size());
    for (topo::HostId h : m.tree.nodes) {
      if (!host_dead(h)) chain.push_back(h);
    }
    if (chain.size() < 2) {
      ++out.dropped;
      continue;
    }
    RotationMember nb;
    const auto n = static_cast<std::int32_t>(chain.size());
    if (r == 0) {
      nb.tree = HostTree::bind(make_kbinomial(n, k), chain);
    } else {
      const Chain dests_rot(chain.begin() + 1, chain.end());
      nb.tree = make_virtual_root_tree(make_kbinomial(n - 1, k), dests_rot,
                                       chain.front());
    }
    nb.footprint = routing::edge_channel_footprint(topology, primary,
                                                   tree_edges(nb.tree));
    if (routing::footprint_intersection(nb.footprint, dead_channels) > 0) {
      // The primary was not rebuilt around this fault; a rebuilt member
      // would just feed packets back into dead channels.
      ++out.dropped;
      continue;
    }
    nb.chain_offset = m.chain_offset;
    nb.salt = 0;
    nb.overlap_fraction =
        nb.footprint.empty()
            ? 0.0
            : static_cast<double>(
                  routing::footprint_intersection(nb.footprint, claimed)) /
                  static_cast<double>(nb.footprint.size());
    for (const auto& [h, w] : member_ni_work(nb.tree)) cum_work[h] += w;
    claimed = routing::footprint_union(claimed, nb.footprint);
    out.plan.members.push_back(std::move(nb));
    ++out.rebuilt;
  }
  out.plan.ni_work_bound = ni_work_max(cum_work);
  return out;
}

}  // namespace nimcast::core
