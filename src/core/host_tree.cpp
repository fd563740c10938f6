#include "core/host_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace nimcast::core {

namespace {

/// The dense buffer over `nodes`: CSR children (`child_of(r, i)` for i
/// below `count(r)`, `edges` in all), then the host-sorted index.
template <typename Count, typename ChildOf>
std::vector<std::int32_t> dense_layout(const std::vector<topo::HostId>& nodes,
                                       std::size_t edges, Count count,
                                       ChildOf child_of) {
  const std::size_t n = nodes.size();
  std::vector<std::int32_t> dense(3 * n + 1 + edges);
  std::int32_t* offsets = dense.data();
  std::int32_t* kids = offsets + n + 1;
  std::int32_t* hosts = kids + edges;
  std::int32_t* ranks = hosts + n;
  std::int32_t next = 0;
  for (std::size_t r = 0; r < n; ++r) {
    offsets[r] = next;
    for (std::size_t i = 0, c = count(r); i < c; ++i) {
      kids[next++] = child_of(r, i);
    }
  }
  offsets[n] = next;
  for (std::size_t r = 0; r < n; ++r) ranks[r] = static_cast<std::int32_t>(r);
  std::sort(ranks, ranks + n, [&nodes](std::int32_t a, std::int32_t b) {
    return nodes[static_cast<std::size_t>(a)] <
           nodes[static_cast<std::size_t>(b)];
  });
  for (std::size_t i = 0; i < n; ++i) {
    hosts[i] = nodes[static_cast<std::size_t>(ranks[i])];
    if (i > 0 && hosts[i] == hosts[i - 1]) {
      throw std::invalid_argument("HostTree: host " +
                                  std::to_string(hosts[i]) + " repeats");
    }
  }
  return dense;
}

}  // namespace

HostTree::HostTree(std::vector<topo::HostId> nodes_in,
                   const std::vector<std::vector<topo::HostId>>& children)
    : nodes{std::move(nodes_in)} {
  if (children.size() != nodes.size()) {
    throw std::invalid_argument("HostTree: one child list per node");
  }
  std::size_t edges = 0;
  for (const auto& kids : children) edges += kids.size();
  dense_ = dense_layout(
      nodes, edges, [&](std::size_t r) { return children[r].size(); },
      [&](std::size_t r, std::size_t i) { return children[r][i]; });
  if (!nodes.empty()) root = nodes.front();
  for (const auto& kids : children) {
    for (topo::HostId c : kids) {
      if (!contains(c)) {
        throw std::invalid_argument("HostTree: child " + std::to_string(c) +
                                    " is not a node");
      }
    }
  }
}

std::span<const topo::HostId> HostTree::children(topo::HostId h) const {
  const std::int32_t rank = rank_of(h);
  if (rank < 0) {
    throw std::out_of_range("HostTree::children: host " + std::to_string(h) +
                            " is not in the tree");
  }
  return children_at(static_cast<std::size_t>(rank));
}

std::int32_t HostTree::rank_of(topo::HostId h) const {
  const std::size_t n = nodes.size();
  if (n == 0) return -1;
  const std::int32_t* hosts = dense_.data() + n + 1 + dense_[n];
  const std::int32_t* it = std::lower_bound(hosts, hosts + n, h);
  if (it == hosts + n || *it != h) return -1;
  return hosts[n + static_cast<std::size_t>(it - hosts)];
}

HostTree HostTree::bind(const RankTree& tree, const Chain& order) {
  if (static_cast<std::size_t>(tree.size()) != order.size()) {
    throw std::invalid_argument("HostTree::bind: size mismatch");
  }
  HostTree out;
  out.nodes = order;
  std::size_t edges = 0;
  for (const auto& kids : tree.children) edges += kids.size();
  out.dense_ = dense_layout(
      order, edges, [&](std::size_t r) { return tree.children[r].size(); },
      [&](std::size_t r, std::size_t i) {
        return order[static_cast<std::size_t>(tree.children[r][i])];
      });
  if (!order.empty()) out.root = order.front();
  return out;
}

}  // namespace nimcast::core
