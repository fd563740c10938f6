#pragma once

#include <cstdint>
#include <vector>

#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "netif/collective_role.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "routing/route_table.hpp"
#include "sim/sim_time.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"

namespace nimcast::collectives {

/// The collective kinds and their names live with the NI firmware that
/// runs them (netif/collective_role.hpp); these aliases keep the
/// collectives:: spelling.
using CollectiveKind = netif::CollectiveKind;
using netif::to_string;

/// Outcome of one collective (docs/robustness.md has the fault contract).
struct CollectiveResult {
  /// Start to the last host-level completion (all non-roots for scatter
  /// and broadcast, the root for gather and reduce, everyone for
  /// allreduce); under faults, the latest that happened.
  sim::Time latency;
  /// Host-level completions of the completing hosts, in firing order.
  std::vector<std::pair<topo::HostId, sim::Time>> completions;
  std::int64_t packets_injected = 0;
  sim::Time total_channel_block_time;
  double peak_ni_buffer = 0.0;

  /// Fault verdict; fault-free runs are kComplete (else they throw).
  mcast::Outcome outcome = mcast::Outcome::kComplete;
  /// One entry per non-root participant, in tree order; empty for
  /// fault-free runs. `delivered` means the kind's per-host obligation
  /// was met (message received, message at the root, contribution
  /// folded into the root's result, result held); `reachable` is the
  /// end-of-run route verdict from the effective root.
  std::vector<mcast::DestinationStatus> participants;
  /// Reduce/allreduce under faults: every host, root included, whose
  /// contribution is folded into the effective root's result, in tree
  /// order; empty when the root never finished combining.
  std::vector<topo::HostId> contributors;
  /// Tree-repair rounds this operation consumed.
  std::int32_t repairs = 0;
  /// 1 when a replacement initiator finished the operation
  /// (mcast::RepairPolicy::root_handoff); scatter never hands off.
  std::int32_t root_handoffs = 0;
  /// The initiator of the final round: the root or its replacement.
  topo::HostId effective_root = topo::kInvalidId;
  /// Fault events the fabric applied during the run.
  std::int32_t faults_applied = 0;
  /// Route-table generation at the end of the run (0 = pristine).
  std::int32_t route_epoch = 0;
  /// False when the effective root died (nobody could take over).
  bool root_alive = true;

  [[nodiscard]] std::int32_t delivered_count() const;
  /// delivered / participants; 1.0 for fault-free runs.
  [[nodiscard]] double delivery_ratio() const;
  /// Participants still reachable from the root at the end of the run,
  /// in tree order — exactly the route table's reachability verdict.
  [[nodiscard]] std::vector<topo::HostId> survivors() const;
};

/// Runs one collective on the full simulated system: a thin adapter that
/// runs it as a one-op traffic::TrafficEngine mix (FIFO, smart FPFS
/// NIs), whose hosts run the kind's firmware (netif::CollectiveRole).
/// Stateless between calls: each run builds a fresh simulation over the
/// shared (topology, routes).
class CollectiveEngine {
 public:
  struct Config {
    netif::SystemParams params;
    net::NetworkConfig network;
    /// Applied when `network.faults` is non-empty: a collective a fault
    /// leaves incomplete re-plans around the dead hosts and reports
    /// per-participant verdicts.
    mcast::RepairPolicy repair = {};
  };

  CollectiveEngine(const topo::Topology& topology,
                   const routing::RouteTable& routes, Config config,
                   sim::Trace* trace = nullptr)
      : topology_{topology}, routes_{routes}, config_{config}, trace_{trace} {}

  /// `tree.root` initiates; `m` is the packet count per destination
  /// (scatter), per source (gather) or of the one message. Throws
  /// std::invalid_argument on a malformed call or a lossy network (the
  /// collective firmware has no retransmit).
  [[nodiscard]] CollectiveResult run(CollectiveKind kind,
                                     const core::HostTree& tree,
                                     std::int32_t m) const;

 private:
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  Config config_;
  sim::Trace* trace_;
};

}  // namespace nimcast::collectives
