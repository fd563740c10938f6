#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/host_tree.hpp"
#include "core/ordering.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "topology/topology.hpp"

namespace nimcast::core {

/// Knobs of the tree-rotation planner (see plan_rotation).
struct RotationConfig {
  /// Rotation members requested (R). 1 keeps the paper's fixed tree.
  std::int32_t rotation_trees = 1;
  /// Fan-out bound every member tree is built with. Streaming keeps one
  /// k across members so the R = 1 baseline is an apples-to-apples
  /// comparison point.
  std::int32_t fanout_bound = 2;
};

/// One tree of the rotation set: packets of stream class r travel down
/// member r's tree using member r's route table.
struct RotationMember {
  HostTree tree;
  /// Route table the member's packets are injected under; null means the
  /// primary (engine-bound) table.
  std::shared_ptr<const routing::RouteTable> table;
  /// Sorted directed switch-channel ids the member's tree edges cross
  /// (routing::edge_channel_footprint; NI channels excluded — all
  /// members share them by construction).
  std::vector<std::int32_t> footprint;
  /// Rotation applied to the destination part of the participant chain,
  /// or -1 when the member used the load-balanced binding (sub-tree
  /// ranks assigned by descending fan-out to hosts by ascending
  /// cumulative NI work).
  std::int32_t chain_offset = 0;
  /// Salt of the member's route table; 0 marks the primary table.
  std::uint64_t salt = 0;
  /// |footprint ∩ union(previous members)| / |footprint| — the greedy
  /// decorrelation score this member was admitted with (0 for member 0).
  double overlap_fraction = 0.0;
};

/// The rotation set: member 0 is always the paper's fixed k-binomial
/// tree over the participant chain on the primary routes, so a plan of
/// size 1 *is* the pre-streaming engine configuration.
struct RotationPlan {
  std::vector<RotationMember> members;
  std::int32_t requested = 1;
  std::int32_t fanout_bound = 1;
  /// Max over hosts of cumulative NI coprocessor work per window of
  /// size() packets (units: default-parameter microseconds, t_rcv = 2
  /// per receive + t_snd = 3 per child send summed over members). The
  /// predicted sustained per-packet period at saturation is
  /// ni_work_bound / size() — the quantity the planner minimizes.
  std::int32_t ni_work_bound = 0;

  [[nodiscard]] std::int32_t size() const {
    return static_cast<std::int32_t>(members.size());
  }
  /// Mean/max admitted overlap fraction over members 1..R-1 (0 when the
  /// plan degenerated to the fixed tree).
  [[nodiscard]] double overlap_mean() const;
  [[nodiscard]] double overlap_max() const;
};

/// Plans a rotation set of up to `config.rotation_trees` channel-
/// decorrelated k-binomial trees over `participants` (a source-first
/// chain, see arrange_participants).
///
/// Member 0 is the fixed tree. Members r >= 1 are *virtual-root*
/// members: the source sends each class-r packet to a single relay
/// which roots a k-binomial tree over a re-bound destination chain —
/// rotating both the relay and the high-fanout interior hosts, which
/// is what moves the NI forwarding bottleneck off any single host at
/// saturation. Candidate chains per member are the *load-balanced
/// binding* (sub-tree ranks by descending fan-out assigned to hosts by
/// ascending cumulative NI work — interior ranks of a k-binomial are
/// spread uniformly along the chain, so no rotation of the fixed rank
/// shape can decorrelate forwarding roles) plus plain chain rotations
/// probing outward from the member's nominal slot r*D/R (which keep
/// CCO adjacency). Each (chain, route salt) candidate is scored
/// lexicographically by (predicted cumulative NI bottleneck if
/// admitted, channel-footprint overlap fraction with the chosen set,
/// offset, salt) and the greedy minimum wins — fully deterministic,
/// and the first component is the saturation-throughput model.
///
/// Candidates whose directed edge set *and* footprint both duplicate an
/// already-chosen member are skipped, so when fewer than R genuinely
/// distinct trees exist (tiny or degenerate fabrics) the plan returns
/// the maximal feasible set rather than silently duplicating members.
///
/// Salted tables materialize lazily (routing::make_salted_table):
/// planning R trees materializes only the switch pairs the candidate
/// tree edges touch.
[[nodiscard]] RotationPlan plan_rotation(const topo::Topology& topology,
                                         const routing::RouteTable& primary,
                                         const routing::UpDownRouter& base,
                                         const Chain& participants,
                                         const RotationConfig& config);

/// Outcome of replan_rotation: the patched plan plus repair telemetry.
struct ReplanResult {
  RotationPlan plan;
  /// Members re-planned over their surviving chain.
  std::int32_t rebuilt = 0;
  /// Members excised entirely (dead root or < 2 surviving nodes, or no
  /// footprint clear of the dead set).
  std::int32_t dropped = 0;
};

/// Incremental post-fault patch of a rotation plan. Members untouched by
/// the dead set are kept verbatim (primary-table members get their
/// footprint recomputed on the post-rebuild `primary`, since fault
/// repair rebinds the primary table); members whose tree contains a host
/// from `dead_hosts` or whose channel footprint intersects
/// `dead_channels` (sorted directed switch-channel ids) are re-planned
/// over their surviving chain on `primary` — salted alternatives are
/// stale after a fault — preserving the virtual-root shape for members
/// r >= 1 and re-scoring the result with the same cumulative NI-work
/// bound as plan_rotation. This is what keeps run_streaming at R-way
/// rotation throughput through a fault instead of collapsing to one
/// surviving tree. Fully deterministic; kept members come first in the
/// patched plan (original order), then rebuilt members (original order).
[[nodiscard]] ReplanResult replan_rotation(
    const topo::Topology& topology, const routing::RouteTable& primary,
    const RotationPlan& plan, const std::vector<std::int32_t>& dead_channels,
    const std::vector<topo::HostId>& dead_hosts);

}  // namespace nimcast::core
