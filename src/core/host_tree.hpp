#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/ordering.hpp"
#include "core/tree.hpp"
#include "topology/ids.hpp"

namespace nimcast::core {

/// A multicast tree bound to concrete hosts: rank r of a RankTree mapped
/// to `order[r]`. This is what gets installed into NI forwarding tables.
///
/// Dense layout, two heap blocks per tree: `nodes` in rank order, and one
/// buffer holding the children of every rank as a CSR array (offsets,
/// then child host ids in send order) followed by a host-sorted
/// host -> rank index for by-host lookups. Trees are built by `bind` or
/// the child-list constructor; `root` and `nodes` are read-only after.
struct HostTree {
  topo::HostId root = topo::kInvalidId;
  /// All participants, root first, in rank order.
  std::vector<topo::HostId> nodes;

  HostTree() = default;
  /// Hand-built tree: `children[r]` lists the children of `nodes[r]` in
  /// send order; `nodes.front()` is the root. Throws invalid_argument
  /// when the sizes differ, a host repeats, or a child is not a node.
  HostTree(std::vector<topo::HostId> nodes,
           const std::vector<std::vector<topo::HostId>>& children);

  [[nodiscard]] std::int32_t size() const {
    return static_cast<std::int32_t>(nodes.size());
  }
  [[nodiscard]] std::int32_t root_children() const {
    return static_cast<std::int32_t>(children(root).size());
  }

  /// Children of `nodes[rank]`, in send order.
  [[nodiscard]] std::span<const topo::HostId> children_at(
      std::size_t rank) const {
    const std::int32_t* offsets = dense_.data();
    return {offsets + nodes.size() + 1 + offsets[rank],
            offsets + nodes.size() + 1 + offsets[rank + 1]};
  }
  /// Children of host `h`, in send order; throws std::out_of_range when
  /// `h` is not in the tree.
  [[nodiscard]] std::span<const topo::HostId> children(topo::HostId h) const;
  /// Rank of host `h`, or -1 when `h` is not in the tree.
  [[nodiscard]] std::int32_t rank_of(topo::HostId h) const;
  [[nodiscard]] bool contains(topo::HostId h) const { return rank_of(h) >= 0; }

  /// Binds `tree` (over ranks) to the participant arrangement `order`
  /// (source first — see arrange_participants). Sizes must match.
  [[nodiscard]] static HostTree bind(const RankTree& tree, const Chain& order);

 private:
  /// [offsets: n + 1][children: offsets[n]][sorted hosts: n][their ranks:
  /// n], n = nodes.size(); empty for a default-constructed tree.
  std::vector<std::int32_t> dense_;
};

}  // namespace nimcast::core
