#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collectives/collective_engine.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "mcast/multicast_engine.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "routing/route_table.hpp"
#include "sim/rng.hpp"
#include "topology/irregular.hpp"
#include "topology/kary_ncube.hpp"
#include "traffic/scheduler.hpp"
#include "traffic/workload.hpp"

namespace nimcast::api {

/// High-level entry point: a simulated parallel system with smart
/// (FPFS) network interfaces, ready to run optimally-shaped collective
/// operations.
///
/// The Communicator bundles everything the lower layers need wiring
/// together — topology, deadlock-free routing, the contention-free node
/// ordering, the precomputed optimal-k table — and exposes MPI-flavoured
/// operations sized in *bytes*. Packetization (64-byte packets by
/// default), tree selection (Theorem 3) and contention-free construction
/// (Fig. 11) all happen behind this interface.
///
///     auto comm = api::Communicator::irregular();          // 64 hosts
///     auto r = comm.multicast(/*src=*/0, {1, 5, 9}, /*bytes=*/1024);
///     std::printf("%.1f us over a %d-binomial tree\n",
///                 r.latency.as_us(), r.fanout_bound);
class Communicator {
 public:
  struct Options {
    netif::SystemParams params;
    net::NetworkConfig network;
    /// Seed for random topology generation (irregular systems).
    std::uint64_t seed = 1997;
    /// NI architecture multicasts and run_traffic() run on. Use
    /// kReliableFpfs on lossy or faulty fabrics; collectives always run
    /// the smart FPFS engine.
    mcast::NiStyle style = mcast::NiStyle::kSmartFpfs;
    /// Reliability protocol knobs (kReliableFpfs only).
    netif::ReliabilityParams reliability = {};
    /// Retry-with-repair policy applied when network.faults is non-empty.
    /// Shared by the multicast, traffic and collective engines.
    mcast::RepairPolicy repair = {};
    /// Rotation members (R) stream_broadcast plans: packet g of a stream
    /// is dispatched down channel-decorrelated tree g mod R. 1 keeps the
    /// paper's fixed tree; > 1 requires up*/down* routing (irregular
    /// systems) and smart FPFS NIs.
    std::int32_t rotation_trees = 1;
    /// Per-packet member policy for stream_broadcast: static keeps the
    /// g mod R rotation; adaptive picks the member the congestion
    /// telemetry scores cheapest (idle fabric: byte-identical to
    /// static).
    mcast::Selection selection = mcast::Selection::kStatic;
    /// Multi-tenant traffic mix run_traffic() generates: offered load
    /// (ops_per_ms), group-size distribution, class fractions and
    /// mid-stream churn probability. Seeded from its own `seed` field.
    traffic::WorkloadConfig traffic_workload = {};
    /// Contention-aware admission policy run_traffic() schedules the mix
    /// under (Policy::kFifo = no-pacing baseline).
    traffic::SchedulerConfig traffic_scheduler = {};
  };

  /// A random irregular switch-based cluster (paper Section 5.2 system
  /// by default).
  [[nodiscard]] static Communicator irregular();
  [[nodiscard]] static Communicator irregular(const topo::IrregularConfig& cfg);
  [[nodiscard]] static Communicator irregular(const topo::IrregularConfig& cfg,
                                              const Options& options);

  /// A k-ary n-cube MPP with dimension-ordered routing. Tori use two
  /// virtual channels per physical channel (dateline scheme) to stay
  /// deadlock-free.
  [[nodiscard]] static Communicator mesh(const topo::KAryNCubeConfig& cfg);
  [[nodiscard]] static Communicator mesh(const topo::KAryNCubeConfig& cfg,
                                         const Options& options);

  Communicator(Communicator&&) noexcept;
  Communicator& operator=(Communicator&&) noexcept;
  ~Communicator();

  [[nodiscard]] std::int32_t num_hosts() const;
  [[nodiscard]] const std::string& system_name() const;
  [[nodiscard]] const Options& options() const;

  /// Result of one simulated operation.
  struct OpReport {
    sim::Time latency;           ///< full operation latency (t_s .. t_r)
    std::int32_t packets = 0;    ///< packets per logical message
    std::int32_t fanout_bound = 0;  ///< the k the tree was built with
    std::int32_t tree_depth = 0;    ///< steps of the first packet
    std::int64_t packets_on_wire = 0;
    sim::Time contention;        ///< cumulative channel block time
    /// Fault verdict — filled for every operation. Collectives a fault
    /// leaves incomplete repair the tree and report partial delivery;
    /// `delivered` counts participants whose per-kind obligation was met
    /// (message in, gathered at root, contribution folded, result held).
    mcast::Outcome outcome = mcast::Outcome::kComplete;
    std::int32_t delivered = 0;    ///< destinations that got the message
    std::int32_t unreachable = 0;  ///< destinations lost to partitions
    std::int32_t repairs = 0;      ///< tree-repair rounds consumed
    /// 1 when the initiator died and an elected replacement finished the
    /// operation (mcast::RepairPolicy::root_handoff), else 0.
    std::int32_t root_handoffs = 0;
    std::int64_t retransmissions = 0;  ///< reliable-NI retransmits
  };

  /// One-to-many, same data: the paper's headline operation. The tree is
  /// the optimal k-binomial tree for (|dests|+1, packet count).
  [[nodiscard]] OpReport multicast(topo::HostId source,
                                   std::span<const topo::HostId> dests,
                                   std::int64_t bytes) const;
  /// Brace-list convenience: comm.multicast(0, {3, 9, 17}, 4096).
  [[nodiscard]] OpReport multicast(topo::HostId source,
                                   std::initializer_list<topo::HostId> dests,
                                   std::int64_t bytes) const {
    return multicast(source, std::span<const topo::HostId>{dests.begin(),
                                                           dests.size()},
                     bytes);
  }

  /// Multicast to every other host.
  [[nodiscard]] OpReport broadcast(topo::HostId source,
                                   std::int64_t bytes) const;

  /// Result of one streaming broadcast (stream_broadcast).
  struct StreamReport {
    sim::Time makespan;        ///< start to last host completion
    double flits_per_us = 0.0; ///< sustained delivered throughput
    /// p99 gap between consecutive in-order packet completions at a
    /// destination (pooled over destinations).
    sim::Time p99_gap;
    std::int32_t packets = 0;          ///< stream packets
    std::int32_t fanout_bound = 0;     ///< k of every rotation member
    std::int32_t rotation_requested = 1;
    std::int32_t rotation_used = 1;    ///< classes that carried packets
    double overlap_mean = 0.0;  ///< planner channel-overlap fractions
    double overlap_max = 0.0;
    sim::Time contention;       ///< cumulative channel block time
    mcast::Outcome outcome = mcast::Outcome::kComplete;
    std::int32_t delivered = 0; ///< destinations that got the full stream
    std::int32_t repairs = 0;   ///< repair messages launched by the root
    /// Rotation members incrementally re-planned after a fault
    /// (core::replan_rotation).
    std::int32_t replans = 0;
    /// Handoff messages launched by elected replacements after the
    /// source died mid-stream.
    std::int32_t root_handoffs = 0;
    /// Stream indices re-injected by repair and handoff messages.
    std::int64_t packets_resent = 0;
    /// Effective per-packet member policy (rotation_used == 1 degrades
    /// adaptive to static).
    mcast::Selection selection = mcast::Selection::kStatic;
    /// Per-member balance: stream packets issued down each rotation
    /// member and the bottleneck NI work (µs) that share cost — how far
    /// adaptive selection diverged from round-robin. Index = member.
    std::vector<std::int64_t> member_packets;
    std::vector<double> member_ni_work_us;
    /// Telemetry snapshots the adaptive selector scored (0 = static).
    std::int64_t telemetry_snapshots = 0;
  };

  /// Streams `bytes` from `source` to every other host, packetized and
  /// dispatched round-robin over Options::rotation_trees channel-
  /// decorrelated k-binomial trees (member fan-out picked for per-packet
  /// latency, not whole-stream latency — a Theorem 3 choice over the
  /// full stream would collapse to the chain). Requires smart FPFS NIs
  /// (the default style). rotation_trees = 1 is the fixed-tree engine.
  [[nodiscard]] StreamReport stream_broadcast(topo::HostId source,
                                              std::int64_t bytes) const;

  /// Result of one multi-tenant traffic run (run_traffic).
  struct TrafficReport {
    std::int32_t ops = 0;          ///< operations in the mix
    std::int32_t multicasts = 0;
    std::int32_t streams = 0;
    std::int32_t collectives = 0;
    std::int32_t churns = 0;       ///< streams that churned mid-flight
    sim::Time makespan;            ///< first arrival to last completion
    double ops_per_sec = 0.0;      ///< sustained operation throughput
    double flits_per_us = 0.0;     ///< delivered payload throughput
    std::int64_t packets_delivered = 0;
    sim::Time fct_p50;             ///< median flow-completion time
    sim::Time fct_p99;             ///< tail flow-completion time
    std::int64_t deferral_ticks = 0;  ///< paced-scheduler deferrals
    std::int64_t scheduler_ticks = 0;
    sim::Time contention;          ///< cumulative channel block time
    /// Byte-determinism witness over the completion stream.
    std::uint64_t digest = 0;
  };

  /// Runs Options::traffic_workload — N concurrent multicast / stream /
  /// collective tenant groups over this one fabric — admitted by the
  /// Options::traffic_scheduler policy, on Options::style NIs with
  /// Options::reliability and Options::repair; deterministic given the
  /// options. Under faults or loss the mix must be single-phase (no
  /// collectives, no churn), else std::invalid_argument.
  [[nodiscard]] TrafficReport run_traffic() const;

  /// Personalized one-to-all / all-to-one / combining collectives over
  /// the same optimally-shaped tree.
  [[nodiscard]] OpReport scatter(topo::HostId source,
                                 std::int64_t bytes_per_dest) const;
  [[nodiscard]] OpReport gather(topo::HostId root,
                                std::int64_t bytes_per_src) const;
  [[nodiscard]] OpReport reduce(topo::HostId root, std::int64_t bytes) const;
  [[nodiscard]] OpReport allreduce(topo::HostId root,
                                   std::int64_t bytes) const;

  /// The fan-out bound Theorem 3 picks for a message of `bytes` to
  /// `n - 1` destinations on this system — exposed for planning without
  /// running a simulation.
  [[nodiscard]] std::int32_t plan_fanout(std::int32_t n,
                                         std::int64_t bytes) const;
  /// Packets a message of `bytes` fragments into.
  [[nodiscard]] std::int32_t packetize(std::int64_t bytes) const;

 private:
  struct Impl;
  explicit Communicator(std::unique_ptr<Impl> impl);
  /// The one body behind scatter, gather, reduce and allreduce: `kind`
  /// over every host, rooted at `root`, on the optimal tree for `bytes`.
  [[nodiscard]] OpReport collective(collectives::CollectiveKind kind,
                                    topo::HostId root,
                                    std::int64_t bytes) const;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nimcast::api
