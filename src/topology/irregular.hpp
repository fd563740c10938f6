#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "topology/topology.hpp"

namespace nimcast::topo {

/// Parameters for random irregular switch-based networks.
///
/// Defaults match the paper's evaluation system (Section 5.2): 64
/// processors connected by 16 eight-port switches. Hosts are spread
/// round-robin over switches; each switch's remaining ports are wired to
/// other switches at random under a connectivity constraint, modelling the
/// "random network switch interconnection topologies" the paper averages
/// over.
struct IrregularConfig {
  std::int32_t num_switches = 16;
  std::int32_t num_hosts = 64;
  std::int32_t ports_per_switch = 8;
};

/// Generates a random connected irregular topology. Throws
/// std::invalid_argument when the config is infeasible (e.g. more hosts
/// than total spare ports, or a switch of a multi-switch network left
/// with fewer than 2 spare ports for inter-switch links, which keeps
/// degenerate stars out of the draw). Uses rejection sampling: draws a
/// random port-pairing and retries until it is simple (no self-loops,
/// no parallel links) and connected.
[[nodiscard]] Topology make_irregular(const IrregularConfig& cfg,
                                      sim::Rng& rng);

}  // namespace nimcast::topo
