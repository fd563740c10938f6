#include "routing/up_down.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace nimcast::routing {
namespace {

topo::SwitchId default_root(const topo::Graph& g) {
  topo::SwitchId best = 0;
  for (topo::SwitchId s = 1; s < g.num_vertices(); ++s) {
    if (g.degree(s) > g.degree(best)) best = s;
  }
  return best;
}

std::int32_t alive_degree(const topo::Graph& g, const topo::SubgraphMask& mask,
                          topo::SwitchId s) {
  std::int32_t d = 0;
  for (topo::LinkId e : g.incident(s)) {
    if (mask.link_alive(e) && mask.switch_alive(g.edge(e).other(s))) ++d;
  }
  return d;
}

/// Per-component BFS levels over the surviving subgraph: every alive
/// switch gets a level relative to its own component root (dead switches
/// stay -1). Levels only ever compare across one link, whose endpoints
/// share a component, so independent per-component numberings are fine.
std::vector<std::int32_t> masked_levels(const topo::Graph& g,
                                        const topo::SubgraphMask& mask,
                                        topo::SwitchId preferred_root,
                                        topo::SwitchId& primary_root) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::int32_t> level(n, -1);
  primary_root = topo::kInvalidId;
  auto pick_root = [&]() -> topo::SwitchId {
    topo::SwitchId best = topo::kInvalidId;
    std::int32_t best_deg = -1;
    for (topo::SwitchId s = 0; s < g.num_vertices(); ++s) {
      if (!mask.switch_alive(s) || level[static_cast<std::size_t>(s)] >= 0) {
        continue;
      }
      const auto d = alive_degree(g, mask, s);
      if (d > best_deg) {
        best = s;
        best_deg = d;
      }
    }
    return best;
  };
  bool first = true;
  for (;;) {
    topo::SwitchId root = topo::kInvalidId;
    if (first && preferred_root >= 0 && mask.switch_alive(preferred_root)) {
      root = preferred_root;
    } else {
      root = pick_root();
    }
    if (root < 0) break;
    if (first) primary_root = root;
    first = false;
    const auto component = g.bfs_levels(root, mask);
    for (std::size_t s = 0; s < n; ++s) {
      if (component[s] >= 0 && level[s] < 0) level[s] = component[s];
    }
  }
  return level;
}

}  // namespace

namespace {

std::vector<topo::SwitchId> orient_links(const topo::Graph& g,
                                         const std::vector<std::int32_t>& lv) {
  std::vector<topo::SwitchId> up_end(static_cast<std::size_t>(g.num_edges()));
  for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    const auto la = lv[static_cast<std::size_t>(edge.a)];
    const auto lb = lv[static_cast<std::size_t>(edge.b)];
    if (la != lb) {
      up_end[static_cast<std::size_t>(e)] = la < lb ? edge.a : edge.b;
    } else {
      up_end[static_cast<std::size_t>(e)] = std::min(edge.a, edge.b);
    }
  }
  return up_end;
}

}  // namespace

UpDownRouter::UpDownRouter(const topo::Graph& g, topo::SwitchId root)
    : graph_{g}, root_{root >= 0 ? root : default_root(g)} {
  if (!g.connected()) {
    throw std::invalid_argument("UpDownRouter: graph must be connected");
  }
  level_ = g.bfs_levels(root_);
  up_end_ = orient_links(g, level_);
  build_hops();
}

UpDownRouter::UpDownRouter(const topo::Graph& g,
                           std::vector<std::int32_t> levels)
    : graph_{g}, level_{std::move(levels)} {
  if (!g.connected()) {
    throw std::invalid_argument("UpDownRouter: graph must be connected");
  }
  if (level_.size() != static_cast<std::size_t>(g.num_vertices())) {
    throw std::invalid_argument("UpDownRouter: levels size mismatch");
  }
  // Report the lowest-id top-level vertex as the root.
  root_ = 0;
  for (topo::SwitchId s = 1; s < g.num_vertices(); ++s) {
    if (level_[static_cast<std::size_t>(s)] <
        level_[static_cast<std::size_t>(root_)]) {
      root_ = s;
    }
  }
  up_end_ = orient_links(g, level_);
  build_hops();
}

UpDownRouter::UpDownRouter(const topo::Graph& g, topo::SubgraphMask mask,
                           topo::SwitchId preferred_root)
    : graph_{g}, mask_{std::move(mask)} {
  if (!mask_.dead_link.empty() &&
      mask_.dead_link.size() != static_cast<std::size_t>(g.num_edges())) {
    throw std::invalid_argument("UpDownRouter: dead_link size mismatch");
  }
  if (!mask_.dead_switch.empty() &&
      mask_.dead_switch.size() != static_cast<std::size_t>(g.num_vertices())) {
    throw std::invalid_argument("UpDownRouter: dead_switch size mismatch");
  }
  level_ = masked_levels(g, mask_, preferred_root, root_);
  up_end_ = orient_links(g, level_);
  build_hops();
}

void UpDownRouter::build_hops() {
  const auto n = graph_.num_vertices();
  hop_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  hops_.clear();
  for (topo::SwitchId v = 0; v < n; ++v) {
    const auto begin = static_cast<std::int32_t>(hops_.size());
    hop_begin_[static_cast<std::size_t>(v)] = begin;
    if (!mask_.switch_alive(v)) continue;
    for (topo::LinkId e : graph_.incident(v)) {
      if (!mask_.link_alive(e)) continue;
      const topo::SwitchId w = graph_.edge(e).other(v);
      if (!mask_.switch_alive(w)) continue;
      hops_.push_back(Hop{e, w, w == up_end(e)});
    }
    std::sort(hops_.begin() + begin, hops_.end(),
              [](const Hop& x, const Hop& y) {
                return std::tie(x.to, x.link) < std::tie(y.to, y.link);
              });
  }
  hop_begin_[static_cast<std::size_t>(n)] =
      static_cast<std::int32_t>(hops_.size());
}

std::vector<std::int32_t> UpDownRouter::host_reach_components(
    const topo::Graph& g) const {
  // The hop lists already drop dead links and dead switches.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::int32_t> comp(n, -1);
  std::vector<topo::SwitchId> queue(n);
  std::int32_t next = 0;
  for (topo::SwitchId s = 0; s < g.num_vertices(); ++s) {
    if (!mask_.switch_alive(s) || comp[static_cast<std::size_t>(s)] >= 0) {
      continue;
    }
    comp[static_cast<std::size_t>(s)] = next;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = s;
    while (head < tail) {
      const auto v = static_cast<std::size_t>(queue[head++]);
      for (auto k = hop_begin_[v]; k < hop_begin_[v + 1]; ++k) {
        const topo::SwitchId w = hops_[static_cast<std::size_t>(k)].to;
        auto& cw = comp[static_cast<std::size_t>(w)];
        if (cw >= 0) continue;
        cw = next;
        queue[tail++] = w;
      }
    }
    ++next;
  }
  return comp;
}

bool UpDownRouter::is_up(topo::LinkId link, topo::SwitchId from) const {
  // Moving out of `from` is "up" when the *other* end is the up end.
  return graph_.edge(link).other(from) == up_end(link);
}

SwitchRoute UpDownRouter::route(topo::SwitchId src, topo::SwitchId dst) const {
  auto r = try_route(src, dst);
  if (!r) {
    throw NoLegalRoute("UpDownRouter::route: no legal up*/down* route");
  }
  return *std::move(r);
}

std::optional<SwitchRoute> UpDownRouter::try_route(topo::SwitchId src,
                                                   topo::SwitchId dst) const {
  if (src < 0 || src >= graph_.num_vertices() || dst < 0 ||
      dst >= graph_.num_vertices()) {
    throw std::invalid_argument("UpDownRouter::route: switch out of range");
  }
  if (!mask_.switch_alive(src) || !mask_.switch_alive(dst)) {
    return std::nullopt;
  }
  if (src == dst) return SwitchRoute{{src}, {}, {}};

  // BFS over (switch, phase) states, numbered 2*switch + phase; phase 0 =
  // may still go up, phase 1 = committed to going down. A down move from
  // phase 0 enters phase 1; an up move is legal only in phase 0. Each
  // state is discovered at most once, so the queue never exceeds 2n.
  // The scratch is per thread: tables shared across worker threads route
  // through one router concurrently.
  const auto states = 2 * static_cast<std::size_t>(graph_.num_vertices());
  constexpr std::int32_t kUnvisited = std::numeric_limits<std::int32_t>::max();
  struct Visit {
    std::int32_t dist;
    std::int32_t parent;  ///< predecessor state
    topo::LinkId link;    ///< link crossed from the predecessor
  };
  thread_local std::vector<Visit> visit;
  thread_local std::vector<std::int32_t> queue;
  visit.assign(states, Visit{kUnvisited, -1, topo::kInvalidId});
  if (queue.size() < states) queue.resize(states);

  std::size_t head = 0;
  std::size_t tail = 0;
  visit[2 * static_cast<std::size_t>(src)].dist = 0;
  queue[tail++] = 2 * src;
  while (head < tail) {
    const std::int32_t state = queue[head++];
    const topo::SwitchId v = state >> 1;
    if (v == dst) break;  // first dequeue of dst is a shortest legal path
    const bool going_down = (state & 1) != 0;
    const std::int32_t dv = visit[static_cast<std::size_t>(state)].dist;
    // Hops are pre-sorted by (neighbour id, link id): the deterministic
    // neighbour order.
    const auto vi = static_cast<std::size_t>(v);
    for (auto k = hop_begin_[vi]; k < hop_begin_[vi + 1]; ++k) {
      const Hop& hop = hops_[static_cast<std::size_t>(k)];
      if (hop.up && going_down) continue;  // down->up turn is illegal
      const std::int32_t next = 2 * hop.to + (hop.up ? 0 : 1);
      auto& w = visit[static_cast<std::size_t>(next)];
      if (w.dist != kUnvisited) continue;
      w = Visit{dv + 1, state, hop.link};
      queue[tail++] = next;
    }
  }

  const auto d0 = visit[2 * static_cast<std::size_t>(dst)].dist;
  const auto d1 = visit[2 * static_cast<std::size_t>(dst) + 1].dist;
  if (d0 == kUnvisited && d1 == kUnvisited) {
    return std::nullopt;
  }
  // Prefer the shorter; ties go to the pure-up arrival (phase 0), which is
  // the deterministic first-found in our BFS order as well.
  std::int32_t state = 2 * dst + (d0 <= d1 ? 0 : 1);

  // Reconstruct by walking parents from (dst, phase) back to (src, 0),
  // filling the exactly-sized vectors from the back.
  const auto hops = static_cast<std::size_t>(
      visit[static_cast<std::size_t>(state)].dist);
  SwitchRoute r;
  r.switches.resize(hops + 1);
  r.links.resize(hops);
  for (std::size_t i = hops; i > 0; --i) {
    const Visit& p = visit[static_cast<std::size_t>(state)];
    r.switches[i] = state >> 1;
    r.links[i - 1] = p.link;
    state = p.parent;
  }
  r.switches[0] = src;
  return r;
}

}  // namespace nimcast::routing
