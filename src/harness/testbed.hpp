#pragma once

#include <cstdint>
#include <vector>

#include "core/fabric.hpp"
#include "harness/tree_spec.hpp"
#include "mcast/multicast_engine.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "sim/stats.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"
#include "traffic/scheduler.hpp"
#include "traffic/workload.hpp"

namespace nimcast::harness {

/// Base ordering used when binding trees onto participants.
enum class OrderingKind : std::uint8_t {
  kCco,     ///< the supplied contention-free base chain
  kRandom,  ///< fresh random permutation per repetition (ablation)
};

/// Measurement summaries of one sweep point.
struct MeasurePoint {
  sim::Summary latency_us;       ///< multicast latency per repetition
  sim::Summary block_us;         ///< channel block time per repetition
  sim::Summary peak_buffer;      ///< max NI buffer occupancy (packets)
  sim::Summary buffer_integral;  ///< max per-NI packet-us integral
  sim::Summary events;           ///< simulator events per repetition

  void merge(const MeasurePoint& other);
};

/// Measurement summaries of one streaming-broadcast sweep point
/// (Testbed::measure_streaming). All summaries fold one sample per
/// (topology, source) replication.
struct StreamingPoint {
  sim::Summary flits_per_us;   ///< sustained delivered throughput
  sim::Summary makespan_us;    ///< full-stream completion
  sim::Summary p99_gap_us;     ///< in-order completion tail gap
  sim::Summary overlap_mean;   ///< planner channel-overlap fraction
  sim::Summary rotation_used;  ///< rotation members that carried packets
  /// Per-member balance: max / mean of member_packets within a
  /// replication (1.0 = perfect round-robin; adaptive selection under
  /// contention drives this up as it steers around hot members).
  sim::Summary member_imbalance;
  /// Telemetry snapshots the adaptive selector scored (0 when static).
  sim::Summary telemetry_snapshots;

  void merge(const StreamingPoint& other);
};

/// Measurement summaries of one multi-tenant traffic sweep point
/// (Testbed::measure_traffic). Scalar summaries fold one sample per
/// (topology, workload-seed) replication; the FCT pools hold every
/// operation's flow-completion time so per-class p50/p99 tails are exact.
struct TrafficPoint {
  sim::Summary ops_per_sec;    ///< sustained admitted-op throughput
  sim::Summary flits_per_us;   ///< delivered payload throughput
  sim::Summary makespan_us;    ///< first arrival to last completion
  sim::Summary deferral_ticks; ///< scheduler deferrals per replication
  sim::Samples fct_us;         ///< FCT pool, every op of every replication
  sim::Samples fct_multicast_us;
  sim::Samples fct_stream_us;
  sim::Samples fct_collective_us;
  /// FNV-1a chain over per-replication completion digests in fold order —
  /// the byte-determinism witness for the whole sweep point.
  std::uint64_t digest = sim::kFnv1aBasis;

  void merge(const TrafficPoint& other);
};

/// Runs `repetitions` multicasts of an m-packet message to n-1 random
/// destinations on one concrete system (`fabric`'s topology, routes and
/// base chain), binding `spec`'s tree via `ordering`. Draws derive from
/// `seed` alone, so identical seeds give identical participant sets
/// across specs and styles — measurements are paired. This is the
/// generic engine behind Testbed and the regular-network benches.
///
/// Repetitions are independent (each builds its own Simulator) and run on
/// `threads` worker threads (0 = NIMCAST_THREADS / hardware
/// concurrency, 1 = strictly serial). Every repetition derives its seed
/// from (`seed`, rep) exactly as the serial path does and samples are
/// folded into the summaries in repetition order, so results are
/// bit-identical for every thread count.
[[nodiscard]] MeasurePoint measure_point(
    const core::Fabric& fabric, const netif::SystemParams& params,
    const net::NetworkConfig& network, std::int32_t n, std::int32_t m,
    const TreeSpec& spec, mcast::NiStyle style, OrderingKind ordering,
    std::int32_t repetitions, std::uint64_t seed, int threads = 0);

/// Which fabric family a Testbed generates.
enum class FabricKind : std::uint8_t {
  kIrregular,  ///< random irregular NOW networks (the paper's Section 5.2)
  kFatTree,    ///< two-level folded Clos; deterministic, so one instance
};

/// Full description of a testbed: fabric family, host count, system and
/// network parameters, replication counts. Host count is an explicit
/// field — the harness carries no 64-host assumption; the paper's rig is
/// simply the irregular(64) point of this space.
struct TestbedSpec {
  FabricKind fabric = FabricKind::kIrregular;
  /// Hosts per generated fabric; overrides the fabric config's own count.
  std::int32_t num_hosts = 64;
  /// Consulted when fabric == kIrregular (num_hosts wins over its count).
  topo::IrregularConfig irregular;
  /// Consulted when fabric == kFatTree; must agree with num_hosts.
  topo::FatTreeConfig fat_tree;
  netif::SystemParams params;
  net::NetworkConfig network;
  std::int32_t num_topologies = 10;
  std::int32_t sets_per_topology = 30;
  std::uint64_t seed = 1997;

  /// Irregular fabric scaled to `hosts`: keeps the paper's port budget
  /// (4 hosts + 4 switch links per 8-port switch), so hosts=64 is exactly
  /// the paper's 16-switch system.
  [[nodiscard]] static TestbedSpec make_irregular(std::int32_t hosts);

  /// Square-ish fat tree at `hosts`: `e` edge switches of `hosts/e` hosts
  /// each (e = largest divisor of hosts at or below sqrt(hosts)) over e/2
  /// spines. hosts=64 gives 8x8 leaves over 4 spines (the FatTreeConfig
  /// default); 1024 gives 32x32 over 16. Deterministic fabric, so
  /// num_topologies = 1.
  [[nodiscard]] static TestbedSpec make_fat_tree(std::int32_t hosts);
};

/// A generated set of fabrics with up*/down* routing and CCO base chains,
/// measured by averaging multicast latency over random destination sets —
/// the paper's evaluation method (Section 5.2) generalized over
/// FabricKind and host count.
///
/// Route tables are lazy: construction is O(switches²) slots, and only
/// switch pairs the measured traffic actually crosses ever materialize a
/// route — the property that lets the same harness drive 1024-host
/// sweeps. `measure` replays identical destination sets for every
/// tree/NI variant, so comparisons are paired.
class Testbed {
 public:
  using Point = MeasurePoint;

  explicit Testbed(TestbedSpec spec);

  /// Multicast-set size `n` (source + n-1 destinations), `m` packets.
  /// The (topology, destination-set) replications are independent and are
  /// spread over `threads` workers (0 = NIMCAST_THREADS / hardware
  /// concurrency, 1 = strictly serial); per-replication seeding and the
  /// summary fold order match the serial path, so results are
  /// bit-identical for every thread count.
  [[nodiscard]] Point measure(std::int32_t n, std::int32_t m,
                              const TreeSpec& spec, mcast::NiStyle style,
                              OrderingKind ordering = OrderingKind::kCco,
                              int threads = 0) const;

  /// Streaming broadcast: `stream_packets` packets from one random
  /// source per replication to every other host, dispatched round-robin
  /// over `rotation_trees` channel-decorrelated k-binomial trees of
  /// fan-out `fanout_bound` (core::plan_rotation). Replication seeding,
  /// thread budget and fold order follow measure(), so results
  /// are bit-identical for every thread count; rotation_trees = 1 is
  /// the paper's fixed-tree configuration. `selection` picks the
  /// per-packet member policy.
  [[nodiscard]] StreamingPoint measure_streaming(
      std::int32_t stream_packets, std::int32_t rotation_trees,
      std::int32_t fanout_bound, int threads = 0,
      mcast::Selection selection = mcast::Selection::kStatic) const;

  /// Multi-tenant traffic: one generated workload mix per (topology,
  /// set) replication — `workload` with the replication's derived seed —
  /// run end to end through traffic::TrafficEngine under `scheduler`.
  /// Thread budget, per-replication seeding and the topology-major fold
  /// order follow measure(), so the point — including its completion
  /// digest — is bit-identical for every thread count.
  [[nodiscard]] TrafficPoint measure_traffic(
      const traffic::WorkloadConfig& workload,
      const traffic::SchedulerConfig& scheduler, int threads = 0) const;

  [[nodiscard]] const TestbedSpec& spec() const { return spec_; }
  [[nodiscard]] std::int32_t num_hosts() const { return spec_.num_hosts; }

  /// The generated fabrics, one per topology, in sweep order.
  [[nodiscard]] const std::vector<core::Fabric>& fabrics() const {
    return fabrics_;
  }

  /// Wall-clock spent building topologies + route tables + CCO chains at
  /// construction; the route-build metric bench_scale reports.
  [[nodiscard]] double build_ms() const { return build_ms_; }

  /// Route-table heap footprint summed over fabrics (see
  /// routing::RouteTable::memory_bytes).
  [[nodiscard]] std::size_t route_memory_bytes() const;

 private:
  TestbedSpec spec_;
  std::vector<core::Fabric> fabrics_;
  double build_ms_ = 0.0;
};

}  // namespace nimcast::harness
