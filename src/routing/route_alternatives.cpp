#include "routing/route_alternatives.hpp"

#include <algorithm>

#include "routing/multipath_up_down.hpp"
#include "routing/routing.hpp"

namespace nimcast::routing {

std::shared_ptr<const RouteTable> make_salted_table(
    const topo::Topology& topology, const UpDownRouter& base,
    std::uint64_t salt) {
  auto router = std::make_shared<const MultipathUpDownRouter>(
      topology.switches(), base.levels(), salt);
  return std::make_shared<const RouteTable>(topology, router);
}

std::vector<std::int32_t> edge_channel_footprint(
    const topo::Topology& topology, const RouteTable& table,
    const std::vector<std::pair<topo::HostId, topo::HostId>>& edges) {
  std::vector<std::int32_t> channels;
  const std::int32_t vcs = table.virtual_channels();
  for (const auto& [parent, child] : edges) {
    const SwitchRoute& route = table.path(parent, child);
    for (std::int32_t c :
         route_channels(topology.switches(), route, vcs)) {
      channels.push_back(c);
    }
  }
  std::sort(channels.begin(), channels.end());
  channels.erase(std::unique(channels.begin(), channels.end()),
                 channels.end());
  return channels;
}

std::size_t footprint_intersection(const std::vector<std::int32_t>& a,
                                   const std::vector<std::int32_t>& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

std::vector<std::int32_t> footprint_union(const std::vector<std::int32_t>& a,
                                          const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace nimcast::routing
