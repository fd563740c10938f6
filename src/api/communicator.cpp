#include "api/communicator.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fabric.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/rotation.hpp"
#include "sim/stats.hpp"
#include "traffic/traffic_engine.hpp"

namespace nimcast::api {

namespace {

mcast::MulticastEngine::Config multicast_config(
    const Communicator::Options& options) {
  mcast::MulticastEngine::Config mcfg{options.params, options.network,
                                      options.style, options.reliability,
                                      options.repair};
  mcfg.selection = options.selection;
  return mcfg;
}

}  // namespace

struct Communicator::Impl {
  Impl(const Options& opts, core::Fabric system)
      : options{opts},
        fabric{std::move(system)},
        // Covers messages up to 512 packets (32 KiB at 64 B); larger ones
        // fall back to the direct Theorem 3 solver in choose().
        ktable{std::max<std::int32_t>(2, fabric.num_hosts()), 512},
        mcast_engine{fabric.topology(), fabric.routes(),
                     multicast_config(options)},
        coll_engine{fabric.topology(), fabric.routes(),
                    collectives::CollectiveEngine::Config{
                        options.params, options.network, options.repair}} {}

  Options options;
  core::Fabric fabric;
  core::OptimalKTable ktable;
  mcast::MulticastEngine mcast_engine;
  collectives::CollectiveEngine coll_engine;

  [[nodiscard]] std::int32_t packetize(std::int64_t bytes) const {
    if (bytes < 0) throw std::invalid_argument("packetize: negative bytes");
    const auto per = static_cast<std::int64_t>(options.network.packet_bytes);
    return static_cast<std::int32_t>(std::max<std::int64_t>(
        1, (bytes + per - 1) / per));
  }

  [[nodiscard]] core::OptimalChoice choose(std::int32_t n,
                                           std::int32_t m) const {
    if (n >= 2 && n <= ktable.max_n() && m <= ktable.max_m()) {
      return ktable.lookup(n, m);
    }
    return core::optimal_k(n, m);
  }

  /// The optimal k-binomial tree over `source` + `dests` in CCO order,
  /// for a fan-out `k` the caller already chose.
  [[nodiscard]] core::HostTree tree_for(topo::HostId source,
                                        std::vector<topo::HostId> dests,
                                        std::int32_t k) const {
    const auto n = static_cast<std::int32_t>(dests.size()) + 1;
    const core::Chain members =
        core::arrange_participants(fabric.chain(), source, dests);
    return core::HostTree::bind(core::make_kbinomial(n, k), members);
  }

  [[nodiscard]] std::vector<topo::HostId> everyone_but(
      topo::HostId source) const {
    std::vector<topo::HostId> dests;
    for (topo::HostId h = 0; h < fabric.num_hosts(); ++h) {
      if (h != source) dests.push_back(h);
    }
    return dests;
  }
};

Communicator Communicator::irregular() {
  return irregular(topo::IrregularConfig{}, Options{});
}
Communicator Communicator::irregular(const topo::IrregularConfig& cfg) {
  return irregular(cfg, Options{});
}

Communicator Communicator::irregular(const topo::IrregularConfig& cfg,
                                     const Options& options) {
  sim::Rng rng{options.seed};
  return Communicator{
      std::make_unique<Impl>(options, core::Fabric::irregular(cfg, rng))};
}

Communicator Communicator::mesh(const topo::KAryNCubeConfig& cfg) {
  return mesh(cfg, Options{});
}

Communicator Communicator::mesh(const topo::KAryNCubeConfig& cfg,
                                const Options& options) {
  return Communicator{
      std::make_unique<Impl>(options, core::Fabric::mesh(cfg))};
}

Communicator::Communicator(std::unique_ptr<Impl> impl)
    : impl_{std::move(impl)} {}
Communicator::Communicator(Communicator&&) noexcept = default;
Communicator& Communicator::operator=(Communicator&&) noexcept = default;
Communicator::~Communicator() = default;

std::int32_t Communicator::num_hosts() const {
  return impl_->fabric.num_hosts();
}
const std::string& Communicator::system_name() const {
  return impl_->fabric.topology().name();
}
const Communicator::Options& Communicator::options() const {
  return impl_->options;
}

std::int32_t Communicator::packetize(std::int64_t bytes) const {
  return impl_->packetize(bytes);
}

std::int32_t Communicator::plan_fanout(std::int32_t n,
                                       std::int64_t bytes) const {
  return impl_->choose(n, impl_->packetize(bytes)).k;
}

Communicator::OpReport Communicator::multicast(
    topo::HostId source, std::span<const topo::HostId> dests,
    std::int64_t bytes) const {
  if (dests.empty()) {
    throw std::invalid_argument("multicast: no destinations");
  }
  const std::int32_t m = impl_->packetize(bytes);
  const core::OptimalChoice choice =
      impl_->choose(static_cast<std::int32_t>(dests.size()) + 1, m);
  const core::HostTree tree =
      impl_->tree_for(source, {dests.begin(), dests.end()}, choice.k);
  const mcast::MulticastResult r = impl_->mcast_engine.run(tree, m);
  OpReport report;
  report.latency = r.latency;
  report.packets = m;
  report.fanout_bound = choice.k;
  report.tree_depth = choice.t1;
  report.packets_on_wire = r.packets_delivered;
  report.contention = r.total_channel_block_time;
  report.outcome = r.outcome;
  report.delivered = r.delivered_count();
  for (const auto& d : r.destinations) {
    if (!d.reachable) ++report.unreachable;
  }
  report.repairs = r.repairs;
  report.root_handoffs = r.root_handoffs;
  report.retransmissions = r.retransmissions;
  return report;
}

Communicator::OpReport Communicator::broadcast(topo::HostId source,
                                               std::int64_t bytes) const {
  const auto dests = impl_->everyone_but(source);
  return multicast(source, dests, bytes);
}

Communicator::StreamReport Communicator::stream_broadcast(
    topo::HostId source, std::int64_t bytes) const {
  const auto dests = impl_->everyone_but(source);
  if (dests.empty()) {
    throw std::invalid_argument("stream_broadcast: single-host system");
  }
  const std::int32_t m = impl_->packetize(bytes);
  const auto n = static_cast<std::int32_t>(dests.size()) + 1;
  // Latency-SLO fan-out: pick k for a short reference message, not the
  // whole stream — Theorem 3 over the stream length would collapse to
  // the chain, which is throughput-optimal already but has O(n)
  // per-packet depth.
  const std::int32_t k = std::clamp(
      impl_->choose(n, std::min<std::int32_t>(m, 4)).k, 1, n - 1);
  const core::Fabric& fabric = impl_->fabric;
  const core::Chain members =
      core::arrange_participants(fabric.chain(), source, dests);
  core::RotationPlan plan;
  if (fabric.updown() != nullptr) {
    core::RotationConfig rc;
    rc.rotation_trees = impl_->options.rotation_trees;
    rc.fanout_bound = k;
    plan = core::plan_rotation(fabric.topology(), fabric.routes(),
                               *fabric.updown(), members, rc);
  } else {
    if (impl_->options.rotation_trees > 1) {
      throw std::invalid_argument(
          "stream_broadcast: rotation_trees > 1 requires up*/down* routing");
    }
    plan.requested = 1;
    plan.fanout_bound = k;
    core::RotationMember member;
    member.tree = core::HostTree::bind(core::make_kbinomial(n, k), members);
    plan.members.push_back(std::move(member));
  }
  const mcast::StreamingResult r = impl_->mcast_engine.run_streaming(plan, m);
  StreamReport report;
  report.makespan = r.makespan;
  report.flits_per_us = r.flits_per_us;
  report.p99_gap = r.p99_gap;
  report.packets = r.stream_packets;
  report.fanout_bound = k;
  report.rotation_requested = r.rotation_requested;
  report.rotation_used = r.rotation_used;
  report.overlap_mean = r.overlap_mean;
  report.overlap_max = r.overlap_max;
  report.contention = r.total_channel_block_time;
  report.outcome = r.outcome;
  for (const auto& d : r.destinations) {
    if (d.delivered) ++report.delivered;
  }
  report.repairs = r.repairs;
  report.replans = r.replans;
  report.root_handoffs = r.root_handoffs;
  report.packets_resent = r.packets_resent;
  report.selection = r.selection;
  report.member_packets = r.member_packets;
  report.member_ni_work_us = r.member_ni_work_us;
  report.telemetry_snapshots = r.telemetry_snapshots;
  return report;
}

Communicator::TrafficReport Communicator::run_traffic() const {
  const Options& opt = impl_->options;
  const traffic::TrafficConfig tcfg{opt.params,      opt.network,
                                    opt.traffic_scheduler, opt.style,
                                    opt.reliability, opt.repair};
  const core::Fabric& fabric = impl_->fabric;
  const traffic::TrafficEngine engine{fabric.topology(), fabric.routes(),
                                      tcfg};
  const traffic::Workload mix = traffic::generate_workload(
      fabric.num_hosts(), fabric.chain(), opt.traffic_workload);
  const traffic::TrafficResult r = engine.run(mix);

  TrafficReport report;
  report.ops = static_cast<std::int32_t>(r.ops.size());
  report.multicasts = mix.multicasts;
  report.streams = mix.streams;
  report.collectives = mix.collectives;
  report.churns = mix.churns;
  report.makespan = r.makespan;
  report.ops_per_sec = r.ops_per_sec;
  report.flits_per_us = r.flits_per_us;
  report.packets_delivered = r.packets_delivered;
  sim::Samples fct;
  for (const traffic::OpRecord& rec : r.ops) fct.add(rec.fct().as_us());
  report.fct_p50 = sim::Time::us(fct.percentile(50.0));
  report.fct_p99 = sim::Time::us(fct.percentile(99.0));
  report.deferral_ticks = r.deferral_ticks;
  report.scheduler_ticks = r.ticks;
  report.contention = r.total_channel_block_time;
  report.digest = r.digest;
  return report;
}

Communicator::OpReport Communicator::collective(
    collectives::CollectiveKind kind, topo::HostId root,
    std::int64_t bytes) const {
  const std::int32_t m = impl_->packetize(bytes);
  const auto dests = impl_->everyone_but(root);
  const auto n_participants = static_cast<std::int32_t>(dests.size());
  const core::OptimalChoice choice = impl_->choose(n_participants + 1, m);
  const collectives::CollectiveResult r = impl_->coll_engine.run(
      kind, impl_->tree_for(root, dests, choice.k), m);
  OpReport report;
  report.latency = r.latency;
  report.packets = m;
  report.fanout_bound = choice.k;
  report.tree_depth = choice.t1;
  report.packets_on_wire = r.packets_injected;
  report.contention = r.total_channel_block_time;
  report.outcome = r.outcome;
  // Fault-free runs skip per-participant bookkeeping: everyone delivered.
  report.delivered =
      r.participants.empty() ? n_participants : r.delivered_count();
  for (const auto& p : r.participants) {
    if (!p.reachable) ++report.unreachable;
  }
  report.repairs = r.repairs;
  report.root_handoffs = r.root_handoffs;
  return report;
}

Communicator::OpReport Communicator::scatter(
    topo::HostId source, std::int64_t bytes_per_dest) const {
  return collective(collectives::CollectiveKind::kScatter, source,
                    bytes_per_dest);
}

Communicator::OpReport Communicator::gather(topo::HostId root,
                                            std::int64_t bytes_per_src) const {
  return collective(collectives::CollectiveKind::kGather, root,
                    bytes_per_src);
}

Communicator::OpReport Communicator::reduce(topo::HostId root,
                                            std::int64_t bytes) const {
  return collective(collectives::CollectiveKind::kReduce, root, bytes);
}

Communicator::OpReport Communicator::allreduce(topo::HostId root,
                                               std::int64_t bytes) const {
  return collective(collectives::CollectiveKind::kAllReduce, root, bytes);
}

}  // namespace nimcast::api
