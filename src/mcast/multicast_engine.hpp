#pragma once

#include <cstdint>
#include <vector>

#include "core/host_tree.hpp"
#include "core/rotation.hpp"
#include "netif/reliable_ni.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "routing/route_table.hpp"
#include "sim/sim_time.hpp"
#include "sim/trace.hpp"
#include "topology/topology.hpp"

namespace nimcast::mcast {

/// Which network-interface architecture the system runs (paper Sections
/// 2.3 vs 3.1/3.2).
enum class NiStyle : std::uint8_t {
  kConventional,   ///< host forwards every copy
  kSmartFcfs,      ///< NI forwards, child-major
  kSmartFpfs,      ///< NI forwards, packet-major
  kReliableFpfs,   ///< FPFS + hop-by-hop ACK/retransmit (lossy networks)
};

[[nodiscard]] const char* to_string(NiStyle s);

/// Per-packet rotation-member policy for run_streaming.
enum class Selection : std::uint8_t {
  /// Packet g rides member g mod R — the statically planned rotation.
  kStatic,
  /// Packet g rides the member with the lowest congestion score
  /// (channel block-time snapshot + NI injection-queue depth over the
  /// member's footprint, plus a per-packet balance term). Ties break
  /// lexicographically from g mod R, so an idle fabric reproduces the
  /// static stream byte-for-byte. See docs/perf.md, "Adaptive tree
  /// selection".
  kAdaptive,
};

[[nodiscard]] const char* to_string(Selection s);

/// Per-participant NI buffer statistics from one run.
struct BufferStat {
  topo::HostId host = topo::kInvalidId;
  double peak_packets = 0.0;
  double packet_us_integral = 0.0;
};

/// How an operation ended under faults. Fault-free runs are always
/// kComplete (anything else throws, preserving the strict pre-fault
/// contract).
enum class Outcome : std::uint8_t {
  kComplete,  ///< every destination delivered
  kPartial,   ///< some destinations delivered, some lost to faults
  kFailed,    ///< no destination delivered
};

[[nodiscard]] const char* to_string(Outcome o);

/// Per-destination delivery verdict for one operation.
struct DestinationStatus {
  topo::HostId host = topo::kInvalidId;
  bool delivered = false;
  /// Whether the destination was still reachable from the root at the
  /// end of the run (false: excised by a switch death or partition).
  bool reachable = true;
  sim::Time completed_at;  ///< only meaningful when delivered
};

/// What the engine does about destinations orphaned by a fault.
struct RepairPolicy {
  /// Tree-repair rounds after the initial attempt drains (0 disables
  /// repair entirely). Each round re-parents the still-missing,
  /// still-reachable destinations into a fresh k-binomial tree in
  /// contention-free order with failed hosts excised, and resends.
  /// Round r starts 30 us * 2^(r-1) after the previous one drains.
  std::int32_t max_attempts = 2;
  /// Rebuild up*/down* routes on the surviving subgraph after each fault.
  /// Only single-VC route tables can be rebuilt; requesting reroute on a
  /// multi-VC table (dateline torus) with a non-empty fault plan throws
  /// std::invalid_argument — set this false to run such rigs degraded.
  bool reroute = true;
  /// When the initiator dies mid-operation, elect a deterministic
  /// replacement (the lowest-ranked reachable destination already
  /// holding the payload — per packet for streaming) and hand the
  /// remaining send schedule to it, instead of reporting kFailed.
  bool root_handoff = true;
};

/// How one operation's payload reached its destinations — the verdict
/// vocabulary MulticastResult and traffic::OpRecord share.
struct Delivery {
  /// Host-level first completion per delivered destination, in (time,
  /// host) order.
  std::vector<std::pair<topo::HostId, sim::Time>> completions;
  /// Distinct (destination, packet) deliveries.
  std::int64_t packets_delivered = 0;

  Outcome outcome = Outcome::kComplete;
  /// One entry per destination (tree nodes minus root), in tree order.
  /// Empty for single-host trees.
  std::vector<DestinationStatus> destinations;
  /// Tree-repair rounds this operation consumed.
  std::int32_t repairs = 0;
  /// 1 when the root died and a replacement initiator finished the
  /// operation (RepairPolicy::root_handoff), else 0.
  std::int32_t root_handoffs = 0;
  /// The initiator that drove the final repair round: the original root,
  /// or the elected replacement after a handoff.
  topo::HostId effective_root = topo::kInvalidId;

  [[nodiscard]] std::int32_t delivered_count() const;
  /// delivered / destinations; 1.0 for single-host trees.
  [[nodiscard]] double delivery_ratio() const;
};

/// What one simulation run consumed and suffered, fabric-wide — the
/// counter vocabulary MulticastResult, MultiMulticastResult and
/// traffic::TrafficResult share.
struct RunCounters {
  /// System-wide contention across all operations.
  sim::Time total_channel_block_time;
  /// Buffer stats per NI, in ascending host id.
  std::vector<BufferStat> buffers;
  /// Reliable-style protocol counters summed over all NIs (zero for
  /// other styles).
  std::int64_t retransmissions = 0;
  std::int64_t deliveries_failed = 0;
  /// Worms truncated mid-flight by faults.
  std::int64_t packets_killed = 0;
  std::int32_t faults_applied = 0;
  /// Simulator events the run consumed — the denominator-free side of
  /// the events/sec throughput metric bench_scale reports.
  std::int64_t events_dispatched = 0;

  [[nodiscard]] double peak_buffer() const;
  [[nodiscard]] double max_buffer_integral() const;
};

/// Outcome of one multicast operation. run() fills the RunCounters;
/// run_many() leaves them zero per operation (the batch carries them).
struct MulticastResult : Delivery, RunCounters {
  /// Start to last destination *host* completion (includes the final t_r)
  /// — the paper's multicast latency.
  sim::Time latency;
  /// Start to last destination *NI* completion (all packets received and
  /// receive-processed; excludes t_r).
  sim::Time ni_latency;
};

/// One multicast operation for the multi-operation entry point.
struct MulticastSpec {
  core::HostTree tree;
  std::int32_t packet_count = 1;
  /// When the source host issues the send (multiple concurrent
  /// multicasts model the paper's reference [6] "multiple multicast"
  /// workload; staggered starts model bursty traffic).
  sim::Time start = sim::Time::zero();
};

/// Result of a batch of concurrent multicasts.
struct MultiMulticastResult : RunCounters {
  /// Per operation, in spec order. `latency` is measured from that
  /// operation's own start time.
  std::vector<MulticastResult> operations;
  /// Completion of the last operation, from time zero.
  sim::Time makespan;
  /// Always 0. Kept only because the benchmark in perfbench/ still reads
  /// it; it goes when that benchmark is next revised.
  std::int64_t barrier_wall_ns = 0;
};

/// Result of one streaming broadcast (run_streaming): a sustained stream
/// of fixed-size packets from one source to every other participant,
/// packet g dispatched down rotation tree g mod R.
struct StreamingResult {
  /// Start to the last destination *host* completion of the full stream.
  sim::Time makespan;
  /// Start to the last receive-processed stream packet at any
  /// destination NI — the denominator of the throughput metric.
  sim::Time ni_makespan;
  /// Sustained delivered throughput: distinct (destination, packet)
  /// deliveries, in 8-byte flits, per microsecond of ni_makespan.
  double flits_per_us = 0.0;
  /// p99 gap between consecutive in-order packet completions at a
  /// destination, pooled over all destinations. Packet g completes
  /// in order once packets 0..g have all been receive-processed, so
  /// this is the tail stall an in-order consumer of the stream sees.
  sim::Time p99_gap;
  std::int32_t stream_packets = 0;
  /// R the caller asked the planner for.
  std::int32_t rotation_requested = 1;
  /// Classes that actually carried packets:
  /// min(plan size, stream_packets).
  std::int32_t rotation_used = 1;
  /// Measured channel-overlap fractions of the plan (RotationPlan).
  double overlap_mean = 0.0;
  double overlap_max = 0.0;

  Outcome outcome = Outcome::kComplete;
  /// One entry per destination, in member-0 tree order; `delivered`
  /// means the destination received the *entire* stream.
  std::vector<DestinationStatus> destinations;
  /// Repair messages launched by the (live) root.
  std::int32_t repairs = 0;
  /// Rotation members incrementally re-planned after a fault
  /// (core::replan_rotation) — 0 means every member survived verbatim.
  std::int32_t replans = 0;
  /// Handoff messages launched by elected replacement initiators after
  /// the root died (one per per-packet initiator group per round).
  std::int32_t root_handoffs = 0;
  /// Stream indices re-injected by repair and handoff messages.
  std::int64_t packets_resent = 0;
  /// The reachability reference: the root, or (after the root died) the
  /// lowest-ranked surviving destination holding any packet.
  topo::HostId effective_root = topo::kInvalidId;
  /// Distinct (destination, packet) deliveries — counts partial streams.
  std::int64_t packets_delivered = 0;
  sim::Time total_channel_block_time;
  std::int64_t events_dispatched = 0;

  /// Effective per-packet policy this run (an R = 1 plan degrades
  /// adaptive to static — there is nothing to choose between).
  Selection selection = Selection::kStatic;
  /// Stream packets issued down each rotation member, index = member.
  /// Static: the g mod R ceil-split; adaptive: the measured choice.
  /// Repair and handoff resends ride dedicated repair messages and are
  /// not attributed to members (see packets_resent).
  std::vector<std::int64_t> member_packets;
  /// Bottleneck NI work each member's share cost, in µs: member_packets
  /// × max over the member's hosts of (t_rcv for non-roots + children ×
  /// t_snd). Per-packet total work is member-independent (every member
  /// spans the same hosts), so the bottleneck host is what
  /// differentiates members — this is the per-member slice of the
  /// planner's ni_work_bound.
  std::vector<double> member_ni_work_us;
  /// Telemetry snapshots the adaptive selector scored (0 when static —
  /// the static path schedules no snapshot events at all).
  std::int64_t telemetry_snapshots = 0;
  /// FNV-1a digest over every snapshot's member score vector — the
  /// snapshot-equality witness across reruns (0 when static).
  std::uint64_t telemetry_digest = 0;

  /// Member balance: max over members of member_packets divided by their
  /// mean (1 = even split, and 1 when no member carried a packet).
  [[nodiscard]] double member_imbalance() const;
};

/// Runs complete multicast operations on the full simulated system:
/// wormhole network + NIs + hosts. Each `run`/`run_many` builds a fresh
/// simulation over the shared (topology, routes), so results are
/// independent and reproducible.
class MulticastEngine {
 public:
  struct Config {
    netif::SystemParams params;
    net::NetworkConfig network;
    NiStyle style = NiStyle::kSmartFpfs;
    /// Only used by kReliableFpfs. A zero retx_timeout is resolved per
    /// run from the actual tree depth and fan-out via
    /// netif::derived_retx_timeout.
    netif::ReliabilityParams reliability = {};
    /// Only consulted when `network.faults` is non-empty.
    RepairPolicy repair = {};
    /// Must be 1: the constructor throws std::invalid_argument otherwise.
    /// Kept only because the benchmark in perfbench/ still sets it; it
    /// goes when that benchmark is next revised.
    std::int32_t shards = 1;
    /// Never read: run_streaming takes its rotation plan explicitly
    /// (core::RotationConfig::rotation_trees sizes it). Kept for
    /// perfbench only, which still sets it; it goes when that benchmark
    /// is next revised.
    std::int32_t rotation_trees = 1;
    /// Per-packet member policy for run_streaming (run()/run_many()
    /// ignore it). Static keeps the g mod R rotation; adaptive scores
    /// members against periodic telemetry snapshots.
    Selection selection = Selection::kStatic;
    /// Background unicast flows run_streaming injects alongside the
    /// stream (contended-fabric scenarios): `packets` fixed-size
    /// packets from src's NI to dst on the primary routes, launched at
    /// `start`. Endpoints need not be stream participants; the flows
    /// contend for wires and coprocessors but stay out of every stream
    /// metric. run()/run_many() ignore them.
    struct BackgroundFlow {
      topo::HostId src = topo::kInvalidId;
      topo::HostId dst = topo::kInvalidId;
      std::int32_t packets = 1;
      sim::Time start = sim::Time::zero();
    };
    std::vector<BackgroundFlow> background{};
  };

  /// Throws std::invalid_argument when `config.shards` is not 1.
  MulticastEngine(const topo::Topology& topology,
                  const routing::RouteTable& routes, Config config,
                  sim::Trace* trace = nullptr);

  /// Multicasts a `packet_count`-packet message over `tree`. The tree's
  /// nodes must be valid hosts of the topology.
  [[nodiscard]] MulticastResult run(const core::HostTree& tree,
                                    std::int32_t packet_count) const;

  /// Runs several multicasts in one simulation; they share NIs, hosts
  /// and wires and therefore contend. A thin adapter over a FIFO
  /// traffic::TrafficEngine mix, kept because the benchmark in perfbench/
  /// reads MultiMulticastResult.
  [[nodiscard]] MultiMulticastResult run_many(
      const std::vector<MulticastSpec>& specs) const;

  /// Streams `stream_packets` fixed-size packets from the plan's root to
  /// every other participant, packet g dispatched down rotation member
  /// g mod R (R = min(plan size, stream_packets)) under that member's
  /// route class — or, with Config::selection = kAdaptive, down the
  /// member the telemetry-driven selector scores cheapest per packet.
  /// Requires NiStyle::kSmartFpfs: the source interleaves
  /// the classes in one packet-major round-robin (FpfsNi::
  /// start_streaming), so consecutive stream packets leave down
  /// *different* trees and the per-packet NI forwarding load rotates
  /// across hosts. A one-op FIFO traffic mix of a rotation stream
  /// (traffic::StreamOp) plus the background flows as untracked load.
  ///
  /// On a loss-free fabric a plan of size 1 is byte-identical to run()
  /// over the fixed tree with the same packet count. Under loss they
  /// part: run() throws on a shortfall, while the stream repairs from
  /// the root and reports what arrived (docs/robustness.md).
  ///
  /// Under faults, repair patches the plan (core::replan_rotation:
  /// members the faults spared survive verbatim, broken ones are
  /// re-planned) and resends only the missing packets round-robin across
  /// it; with the root dead, each missing packet is handed off to a
  /// survivor that holds it (traffic::StreamOp::repair_round).
  [[nodiscard]] StreamingResult run_streaming(const core::RotationPlan& plan,
                                              std::int32_t stream_packets)
      const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  const topo::Topology& topology_;
  const routing::RouteTable& routes_;
  Config config_;
  sim::Trace* trace_;
};

}  // namespace nimcast::mcast
