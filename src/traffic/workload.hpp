#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/host_tree.hpp"
#include "core/ordering.hpp"
#include "netif/collective_role.hpp"
#include "sim/sim_time.hpp"
#include "topology/topology.hpp"

namespace nimcast::traffic {

/// What kind of operation a tenant group runs.
enum class OpClass : std::uint8_t {
  kMulticast,   ///< one m-packet message down the group tree
  kStream,      ///< a packet stream; may churn membership mid-stream
  kCollective,  ///< a collective: emulated, or one real kind (TrafficOp::kind)
};

[[nodiscard]] const char* to_string(OpClass c);

/// One tenant operation of the multi-tenant mix. Every field is fixed at
/// generation time, so a workload is a pure function of its config — the
/// engine replays it identically on every run.
struct TrafficOp {
  OpClass cls = OpClass::kMulticast;
  /// Open-loop arrival: when the group offers the operation, regardless
  /// of fabric state (the scheduler may admit it later).
  sim::Time arrival;
  /// The group tree (kMulticast / kStream phase 1 / kCollective
  /// broadcast phase). Root is the group source.
  core::HostTree tree;
  /// Packets per logical message (kStream: the whole stream).
  std::int32_t packets = 1;

  /// kCollective only. Empty: the emulated two-phase collective that
  /// generate_workload draws (a gather incast of one two-node message
  /// per member, then a broadcast down `tree`). Set: one message over
  /// `tree` whose hosts run that kind's netif::CollectiveRole firmware.
  std::optional<netif::CollectiveKind> kind;

  /// kStream only: membership churn mid-stream. Packets [0, split) ride
  /// `tree`; once they have all been receive-processed, packets
  /// [split, packets) ride `tree2` — the group re-bound after one member
  /// left and (when the fabric has a spare host) one joined. The leaver
  /// receives only the prefix; the joiner only the suffix.
  bool churn = false;
  std::int32_t split = 0;
  core::HostTree tree2;

  /// Hosts in the group, root included (the first tree's, for churn).
  [[nodiscard]] std::int32_t group_size() const { return tree.size(); }
};

/// Knobs of the seeded open-loop generator.
struct WorkloadConfig {
  /// Operations in the mix.
  std::int32_t num_ops = 64;
  /// Poisson arrival rate (offered load): mean operations per
  /// millisecond of simulated time.
  double ops_per_ms = 2.0;
  /// Group sizes draw from a bounded Zipf over [min_group, max_group]:
  /// P(size = min_group + j) proportional to (j + 1)^-1.2 — many small
  /// groups, a heavy-ish tail of large ones.
  std::int32_t min_group = 4;
  std::int32_t max_group = 24;
  /// Op-class mix: fraction of streams and collectives; the rest are
  /// plain multicasts.
  double stream_fraction = 0.25;
  double collective_fraction = 0.25;
  /// Probability a stream op churns (join/leave mid-stream). Groups of
  /// fewer than 3 members never churn (nothing to leave).
  double churn_probability = 0.5;
  /// Packets per stream message; multicasts carry 4 and collectives 2.
  std::int32_t stream_packets = 12;
  std::uint64_t seed = 1997;
};

/// A generated mix: ops sorted by arrival time (ties keep generation
/// order), plus the class census.
struct Workload {
  std::vector<TrafficOp> ops;
  std::int32_t multicasts = 0;
  std::int32_t streams = 0;
  std::int32_t collectives = 0;
  std::int32_t churns = 0;
};

/// Generates the mix for a fabric of `num_hosts` hosts over the
/// contention-free base chain `cco` (trees bind in CCO order, exactly as
/// the single-op harness does). Deterministic: the result is a pure
/// function of (num_hosts, cco, cfg).
[[nodiscard]] Workload generate_workload(std::int32_t num_hosts,
                                         const core::Chain& cco,
                                         const WorkloadConfig& cfg);

}  // namespace nimcast::traffic
