#pragma once

#include <cstdint>
#include <vector>

#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "routing/route_table.hpp"
#include "sim/sim_time.hpp"
#include "topology/topology.hpp"
#include "traffic/scheduler.hpp"
#include "traffic/workload.hpp"

namespace nimcast::traffic {

/// Engine configuration. The traffic engine always drives smart FPFS
/// NIs (the style every multi-tenant scenario targets) over a pristine
/// fabric: fault plans and loss are rejected — repair interacting with
/// admission control is its own future workload.
struct TrafficConfig {
  netif::SystemParams params;
  net::NetworkConfig network;
  SchedulerConfig scheduler;
};

/// Per-operation completion record.
struct OpRecord {
  OpClass cls = OpClass::kMulticast;
  sim::Time arrival;
  /// When the scheduler admitted (launched) the op; == arrival under
  /// FIFO and for unpaced admissions.
  sim::Time admitted;
  /// Last host-level completion over every message of the op.
  sim::Time completed;
  std::int32_t group = 0;
  std::int32_t packets = 0;
  bool churn = false;
  /// Coordinator ticks the op sat in the deferred queue (paced only).
  std::int32_t deferral_ticks = 0;
  /// Distinct (destination, packet) deliveries of this op.
  std::int64_t packets_delivered = 0;

  /// Flow-completion time: offered arrival to last completion — queueing
  /// wait included, which is what a tenant observes.
  [[nodiscard]] sim::Time fct() const { return completed - arrival; }
};

/// Result of one multi-tenant run.
struct TrafficResult {
  /// Per op, in workload order.
  std::vector<OpRecord> ops;
  /// First arrival to last host-level completion.
  sim::Time makespan;
  /// Distinct (destination, packet) deliveries across the mix.
  std::int64_t packets_delivered = 0;
  /// Sustained ops per second of makespan.
  double ops_per_sec = 0.0;
  /// Delivered 8-byte flits per microsecond of makespan.
  double flits_per_us = 0.0;
  /// Coordinator ticks the run consumed.
  std::int64_t ticks = 0;
  /// Sum of per-op deferral ticks.
  std::int64_t deferral_ticks = 0;
  sim::Time total_channel_block_time;
  std::int64_t events_dispatched = 0;
  /// FNV-1a digest over the sorted host-completion stream — the
  /// double-run byte-identity witness.
  std::uint64_t digest = 0;
};

/// Multi-tenant workload engine: N concurrent multicast / streaming /
/// collective operations over ONE shared wormhole fabric, admitted and
/// paced by the contention-aware GroupScheduler.
///
/// Arrivals and coordinator ticks are coordinated events: each replays a
/// FIFO key reserved before the run (sim::Simulator::reserve_order), so
/// it fires before every same-instant event the run schedules and every
/// scheduler decision sees the state as of the start of its instant.
/// Compound operations (collective gather -> broadcast, churn prefix ->
/// re-bound suffix) launch their second phase at the first tick after
/// phase 1 completes.
///
/// Coordinator work is event-driven, not a rescan of the mix: each
/// message counts the destinations it still waits for, the NI
/// completion sink decrements the count, and the sink that reaches zero
/// appends the message to a done list. A coordinated instant drains that
/// list into per-op phase counters and acts only on the ops whose
/// phase just finished — releases, then phase-1 launches, in op order.
/// The tick chain's "anything left to drive" test is two counters.
class TrafficEngine {
 public:
  TrafficEngine(const topo::Topology& topology,
                const routing::RouteTable& routes, TrafficConfig config);

  [[nodiscard]] const TrafficConfig& config() const { return config_; }

  /// Runs the whole mix in one simulation. Throws std::invalid_argument
  /// on malformed workloads (empty, non-monotone arrivals, hosts out of
  /// range, faulty/lossy network config) and std::runtime_error if any
  /// destination fails to complete (the fabric is pristine, so anything
  /// less is a bug).
  [[nodiscard]] TrafficResult run(const Workload& workload) const;

 private:
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  TrafficConfig config_;
};

}  // namespace nimcast::traffic
