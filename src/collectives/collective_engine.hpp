#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/host_tree.hpp"
#include "mcast/multicast_engine.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "routing/route_table.hpp"
#include "sim/sim_time.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"

namespace nimcast::collectives {

/// Collective operations built on packetization + smart NI support — the
/// paper's Section 7 future-work direction, implemented over the same
/// substrate as the multicast engine.
///
/// All operations run over a (contention-free) tree of participants and
/// pipeline at packet granularity in the FPFS spirit: a packet moves as
/// soon as it is ready, independent of the rest of its message.
enum class CollectiveKind : std::uint8_t {
  kBroadcast,  ///< root's message to every node (multicast to all)
  kScatter,    ///< root sends a distinct m-packet message to every node
  kGather,     ///< every node sends a distinct m-packet message to root
  kReduce,     ///< in-network combining up the tree; result at root
  kAllReduce,  ///< reduce, then the result pipelined back down
};

[[nodiscard]] const char* to_string(CollectiveKind k);

/// What a collective does when a fabric fault leaves it incomplete.
/// Only consulted when `Config::network.faults` is non-empty; fault-free
/// incompleteness is an engine bug and always throws.
enum class RepairMode : std::uint8_t {
  /// Throw std::runtime_error the moment the initial attempt drains
  /// incomplete — the strict pre-fault contract for callers that would
  /// rather restart the whole job than reason about partial results.
  kFailFast,
  /// Re-plan around the dead hosts (mcast::RepairPolicy rounds) and
  /// report a queryable per-participant outcome instead of throwing.
  kDegradeAndContinue,
};

[[nodiscard]] const char* to_string(RepairMode m);

/// Outcome of one collective.
struct CollectiveResult {
  /// Operation start to the completion at the last host that must finish
  /// (all non-roots for scatter/broadcast, the root for gather/reduce,
  /// everyone for allreduce). Includes the host software overheads.
  /// Under faults: the latest completion that actually happened.
  sim::Time latency;
  /// Per-host completion times for hosts with a completion semantic.
  std::vector<std::pair<topo::HostId, sim::Time>> completions;
  std::int64_t packets_injected = 0;
  sim::Time total_channel_block_time;
  double peak_ni_buffer = 0.0;

  /// Fault verdict for the whole operation. Fault-free runs are always
  /// kComplete (anything else throws, preserving the strict contract).
  mcast::Outcome outcome = mcast::Outcome::kComplete;
  /// One entry per non-root participant, in tree (contention-free)
  /// order; empty for fault-free runs. `delivered` means the kind's
  /// per-host obligation was met: the host got its message (broadcast/
  /// scatter), its full message reached the root (gather), its
  /// contribution is folded into the root's result (reduce), it holds
  /// the final result (allreduce). `reachable` is the route table's
  /// end-of-run verdict for (effective root -> host).
  std::vector<mcast::DestinationStatus> participants;
  /// Reduce-correctness accounting (reduce/allreduce only): every host —
  /// root included — whose contribution is folded into the effective
  /// root's final result, in original tree order. A repair round only
  /// re-folds the *missing* contributors: subtrees whose every up-phase
  /// packet already folded at the root are salvaged, not re-run. Empty
  /// when the root never finished combining (kFailed) or for the other
  /// kinds.
  std::vector<topo::HostId> contributors;
  /// Tree-repair rounds this operation consumed.
  std::int32_t repairs = 0;
  /// 1 when the initiator died and a replacement finished the operation
  /// (mcast::RepairPolicy::root_handoff), else 0. Scatter never hands
  /// off: the personalized payloads die with the root.
  std::int32_t root_handoffs = 0;
  /// The initiator the final repair round ran under: the original root,
  /// or the elected replacement after a handoff.
  topo::HostId effective_root = topo::kInvalidId;
  /// Fault events the fabric applied during the run.
  std::int32_t faults_applied = 0;
  /// Route-table generation in force at the end of the run (0 = the
  /// pristine table, bumped per fault-time rebuild).
  std::int32_t route_epoch = 0;
  /// False when the *effective* root died — nothing could be
  /// re-initiated (no handoff candidate held the payload).
  bool root_alive = true;

  [[nodiscard]] std::int32_t delivered_count() const;
  /// delivered / participants; 1.0 for fault-free runs.
  [[nodiscard]] double delivery_ratio() const;
  /// Participants still reachable from the root at the end of the run,
  /// in tree order — exactly the route table's reachability verdict.
  [[nodiscard]] std::vector<topo::HostId> survivors() const;
};

/// Runs collectives on the full simulated system. Stateless between
/// calls: each run builds a fresh simulation over the shared
/// (topology, routes).
class CollectiveEngine {
 public:
  struct Config {
    netif::SystemParams params;
    net::NetworkConfig network;
    /// NI coprocessor occupancy to combine one received packet into the
    /// local partial result (reduce/allreduce). Modeled on the NI — the
    /// in-network-computing assumption; set high to model host-assisted
    /// combining.
    sim::Time t_comb = sim::Time::us(1.0);
    /// Retry-with-repair policy applied when `network.faults` is
    /// non-empty; shares the multicast engine's knobs (rounds, backoff,
    /// route rebuilds).
    mcast::RepairPolicy repair = {};
    /// Fail-fast vs degrade-and-continue under faults.
    RepairMode mode = RepairMode::kDegradeAndContinue;
  };

  CollectiveEngine(const topo::Topology& topology,
                   const routing::RouteTable& routes, Config config,
                   sim::Trace* trace = nullptr);

  /// `tree.root` initiates; `m` is the per-message packet count (for
  /// scatter/gather: per destination/source; for broadcast/reduce: of
  /// the single logical message). Throws std::invalid_argument on a
  /// lossy network: the collective firmware has no retransmit.
  [[nodiscard]] CollectiveResult run(CollectiveKind kind,
                                     const core::HostTree& tree,
                                     std::int32_t m) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  Config config_;
  sim::Trace* trace_;
};

}  // namespace nimcast::collectives
