#pragma once

#include <cstdint>
#include <vector>

#include "mcast/multicast_engine.hpp"
#include "netif/reliable_ni.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "routing/route_table.hpp"
#include "sim/sim_time.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"
#include "traffic/scheduler.hpp"
#include "traffic/workload.hpp"

namespace nimcast::traffic {

/// Engine configuration: the simulated system, the NI style every host
/// runs and the admission policy.
struct TrafficConfig {
  netif::SystemParams params;
  net::NetworkConfig network;
  SchedulerConfig scheduler;
  mcast::NiStyle style = mcast::NiStyle::kSmartFpfs;
  /// Only used by kReliableFpfs. A zero retx_timeout is resolved per run
  /// from the deepest edge and the widest fan-out of the mix via
  /// netif::derived_retx_timeout.
  netif::ReliabilityParams reliability = {};
  /// Only consulted when `network.faults` is non-empty.
  mcast::RepairPolicy repair = {};
};

/// Per-operation completion record. The Delivery part describes the
/// op's last message (the group tree; a churn stream's re-bound tree; an
/// emulated collective's broadcast; a real-kind collective's per-host
/// obligations), except packets_delivered, which counts every message of
/// the op (every packet a real-kind collective's firmware received).
struct OpRecord : mcast::Delivery {
  OpClass cls = OpClass::kMulticast;
  sim::Time arrival;
  /// When the scheduler admitted (launched) the op; == arrival under
  /// FIFO and for unpaced admissions.
  sim::Time admitted;
  /// Last host-level completion over every message of the op (arrival
  /// when nothing completed).
  sim::Time completed;
  /// Last NI-level completion (all packets receive-processed, before the
  /// host's t_r) over every message of the op (arrival when none).
  sim::Time ni_completed;
  std::int32_t group = 0;
  std::int32_t packets = 0;
  bool churn = false;
  /// Coordinator ticks the op sat in the deferred queue (paced only).
  std::int32_t deferral_ticks = 0;
  /// Real-kind reduce and all-reduce: the hosts whose contribution is
  /// folded into the effective root's result (CollectiveResult).
  std::vector<topo::HostId> contributors;
  bool root_alive = true;  ///< whether the effective root survived the run

  /// Flow-completion time: offered arrival to last completion — queueing
  /// wait included, which is what a tenant observes.
  [[nodiscard]] sim::Time fct() const { return completed - arrival; }
};

/// Result of one multi-tenant run.
struct TrafficResult : mcast::RunCounters {
  /// Per op, in workload order.
  std::vector<OpRecord> ops;
  /// Earliest arrival to last host-level completion.
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
  /// Route-table generation at the end of the run (0 = pristine).
  std::int32_t route_epoch = 0;
  /// FNV-1a digest over the sorted host-completion stream — the
  /// double-run byte-identity witness.
  std::uint64_t digest = 0;
};

/// Multi-tenant workload engine: N concurrent multicast / streaming /
/// collective operations over ONE shared wormhole fabric, admitted and
/// paced by the contention-aware GroupScheduler. Under Policy::kFifo a
/// mix of plain multicasts is the paper's "multiple multicast" batch;
/// MulticastEngine::run and run_many are one-op and n-op FIFO mixes, and
/// collectives::CollectiveEngine::run a one-op mix of one real-kind
/// collective (TrafficOp::kind), whose firmware shares the hosts' NIs.
///
/// Fault plans and loss run single-phase mixes (multicasts, non-churn
/// streams, and under faults only, real-kind collectives); once the mix
/// drains, repair rounds re-parent each op's missing destinations, with
/// root hand-off (mcast::RepairPolicy).
///
/// Arrivals and coordinator ticks are coordinated events: each replays a
/// FIFO key reserved before the run (sim::Simulator::reserve_order), so
/// it fires before every same-instant event the run schedules and every
/// scheduler decision sees the state as of the start of its instant.
/// Compound operations (emulated collective gather -> broadcast, churn
/// prefix -> re-bound suffix) launch their second phase at the first
/// tick after phase 1 completes.
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
  /// `trace`, when non-null, records every run's network and NI events.
  TrafficEngine(const topo::Topology& topology,
                const routing::RouteTable& routes, TrafficConfig config,
                sim::Trace* trace = nullptr)
      : topology_{topology}, routes_{routes}, config_{config}, trace_{trace} {}

  [[nodiscard]] const TrafficConfig& config() const { return config_; }

  /// Runs the whole mix in one simulation; arrivals may come in any
  /// order (same-instant arrivals launch in op order). Throws
  /// std::invalid_argument on malformed workloads (empty, hosts out of
  /// range, compound ops under faults or loss, real-kind collectives
  /// under loss) and std::runtime_error if
  /// a destination fails to complete without a fault plan to blame.
  [[nodiscard]] TrafficResult run(const Workload& workload) const;

 private:
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  TrafficConfig config_;
  sim::Trace* trace_;
};

}  // namespace nimcast::traffic
