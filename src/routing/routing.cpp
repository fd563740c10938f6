#include "routing/routing.hpp"

#include <stdexcept>

namespace nimcast::routing {

std::optional<SwitchRoute> Router::try_route(topo::SwitchId src,
                                             topo::SwitchId dst) const {
  try {
    return route(src, dst);
  } catch (const NoLegalRoute&) {
    return std::nullopt;
  }
}

std::int32_t directed_channel(const topo::Graph& g, topo::LinkId link,
                              topo::SwitchId from) {
  const auto& e = g.edge(link);
  if (from == e.a) return 2 * link;
  if (from == e.b) return 2 * link + 1;
  throw std::invalid_argument("directed_channel: switch not on link");
}

void append_route_channels(const topo::Graph& g, const SwitchRoute& r,
                           std::int32_t num_vcs,
                           std::vector<std::int32_t>& out) {
  if (num_vcs < 1) throw std::invalid_argument("route_channels: num_vcs < 1");
  for (std::size_t i = 0; i < r.links.size(); ++i) {
    const std::int32_t vc = r.vc(i);
    if (vc >= num_vcs) {
      throw std::invalid_argument("route_channels: vc out of range");
    }
    out.push_back(directed_channel(g, r.links[i], r.switches[i]) * num_vcs +
                  vc);
  }
}

std::vector<std::int32_t> route_channels(const topo::Graph& g,
                                         const SwitchRoute& r,
                                         std::int32_t num_vcs) {
  std::vector<std::int32_t> chans;
  chans.reserve(r.links.size());
  append_route_channels(g, r, num_vcs, chans);
  return chans;
}

namespace {

enum class Mark : std::uint8_t { kWhite, kGray, kBlack };

bool has_cycle(std::int32_t v,
               const std::vector<std::vector<std::int32_t>>& adj,
               std::vector<Mark>& mark) {
  mark[static_cast<std::size_t>(v)] = Mark::kGray;
  for (std::int32_t w : adj[static_cast<std::size_t>(v)]) {
    const auto m = mark[static_cast<std::size_t>(w)];
    if (m == Mark::kGray) return true;
    if (m == Mark::kWhite && has_cycle(w, adj, mark)) return true;
  }
  mark[static_cast<std::size_t>(v)] = Mark::kBlack;
  return false;
}

}  // namespace

bool deadlock_free(const topo::Graph& g, const Router& router) {
  const std::int32_t num_vcs = router.virtual_channels();
  const auto num_channels =
      static_cast<std::size_t>(2 * g.num_edges()) *
      static_cast<std::size_t>(num_vcs);
  std::vector<std::vector<std::int32_t>> dep(num_channels);
  for (topo::SwitchId s = 0; s < g.num_vertices(); ++s) {
    for (topo::SwitchId d = 0; d < g.num_vertices(); ++d) {
      if (s == d) continue;
      std::vector<std::int32_t> chans;
      try {
        chans = route_channels(g, router.route(s, d), num_vcs);
      } catch (const NoLegalRoute&) {
        continue;  // pair carries no traffic
      }
      for (std::size_t i = 0; i + 1 < chans.size(); ++i) {
        dep[static_cast<std::size_t>(chans[i])].push_back(chans[i + 1]);
      }
    }
  }
  std::vector<Mark> mark(num_channels, Mark::kWhite);
  for (std::size_t c = 0; c < num_channels; ++c) {
    if (mark[c] == Mark::kWhite &&
        has_cycle(static_cast<std::int32_t>(c), dep, mark)) {
      return false;
    }
  }
  return true;
}

}  // namespace nimcast::routing
