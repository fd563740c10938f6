#include "routing/repair.hpp"

#include "routing/up_down.hpp"

namespace nimcast::routing {

std::unique_ptr<RouteTable> rebuild_updown(const topo::Topology& topology,
                                           const topo::SubgraphMask& mask,
                                           std::int32_t epoch,
                                           topo::SwitchId preferred_root) {
  // Most pairs never exchange traffic during an outage window, so the
  // table routes lazily; it owns the masked router for that.
  auto router = std::make_shared<const UpDownRouter>(topology.switches(), mask,
                                                     preferred_root);
  return std::make_unique<RouteTable>(topology, std::move(router), epoch);
}

}  // namespace nimcast::routing
