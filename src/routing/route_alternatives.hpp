#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "topology/topology.hpp"

namespace nimcast::routing {

/// Alternative-route factory for the streaming-broadcast rotation set.
///
/// Each rotation member routes its tree edges through a *salted*
/// multipath up*/down* table: same orientation as the base router (so
/// every alternative stays deadlock-free — legality, not selection,
/// makes the channel dependency graph acyclic), different deterministic
/// hash over the equally-short legal paths. Tables own their router, so
/// R alternatives cost R slot arrays plus only the switch-pair routes
/// the member trees actually touch.
[[nodiscard]] std::shared_ptr<const RouteTable> make_salted_table(
    const topo::Topology& topology, const UpDownRouter& base,
    std::uint64_t salt);

/// Directed switch-channel footprint of a set of host-to-host edges
/// under `table`: the sorted, deduplicated channel ids (see
/// routing::route_channels) every (parent -> child) route crosses.
/// Injection and ejection channels are excluded — every rotation member
/// shares the same per-host NI channels by construction, so only
/// switch-link contention distinguishes members.
[[nodiscard]] std::vector<std::int32_t> edge_channel_footprint(
    const topo::Topology& topology, const RouteTable& table,
    const std::vector<std::pair<topo::HostId, topo::HostId>>& edges);

/// |a ∩ b| for sorted channel-id vectors.
[[nodiscard]] std::size_t footprint_intersection(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b);

/// Sorted union a ∪ b.
[[nodiscard]] std::vector<std::int32_t> footprint_union(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b);

}  // namespace nimcast::routing
