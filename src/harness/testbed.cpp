#include "harness/testbed.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/host_tree.hpp"
#include "core/rotation.hpp"
#include "harness/parallel.hpp"
#include "sim/rng.hpp"
#include "traffic/traffic_engine.hpp"

namespace nimcast::harness {

void MeasurePoint::merge(const MeasurePoint& other) {
  latency_us.merge(other.latency_us);
  block_us.merge(other.block_us);
  peak_buffer.merge(other.peak_buffer);
  buffer_integral.merge(other.buffer_integral);
  events.merge(other.events);
}

void TrafficPoint::merge(const TrafficPoint& other) {
  ops_per_sec.merge(other.ops_per_sec);
  flits_per_us.merge(other.flits_per_us);
  makespan_us.merge(other.makespan_us);
  deferral_ticks.merge(other.deferral_ticks);
  for (double v : other.fct_us.values()) fct_us.add(v);
  for (double v : other.fct_multicast_us.values()) fct_multicast_us.add(v);
  for (double v : other.fct_stream_us.values()) fct_stream_us.add(v);
  for (double v : other.fct_collective_us.values()) fct_collective_us.add(v);
  for (std::int32_t b = 0; b < 64; b += 8) {
    digest ^= (other.digest >> b) & 0xffu;
    digest *= 1099511628211ull;  // FNV-1a prime
  }
}

void StreamingPoint::merge(const StreamingPoint& other) {
  flits_per_us.merge(other.flits_per_us);
  makespan_us.merge(other.makespan_us);
  p99_gap_us.merge(other.p99_gap_us);
  overlap_mean.merge(other.overlap_mean);
  rotation_used.merge(other.rotation_used);
  member_imbalance.merge(other.member_imbalance);
  telemetry_snapshots.merge(other.telemetry_snapshots);
}

namespace {

/// The scalars one replication contributes to a MeasurePoint.
struct RepSample {
  double latency_us = 0.0;
  double block_us = 0.0;
  double peak_buffer = 0.0;
  double buffer_integral = 0.0;
  double events = 0.0;
};

void validate_point(std::int32_t num_hosts, std::int32_t n, std::int32_t m,
                    std::int32_t repetitions) {
  if (n < 2 || n > num_hosts) {
    throw std::invalid_argument("measure_point: n out of [2, hosts]");
  }
  if (m < 1) throw std::invalid_argument("measure_point: m < 1");
  if (repetitions < 1) {
    throw std::invalid_argument("measure_point: repetitions < 1");
  }
}

/// One (destination-set) replication: deterministic given (`seed`, `rep`)
/// alone, so it can run on any worker thread. The engine is shared (its
/// `run` builds a private Simulator per call); everything mutable is
/// local.
RepSample run_replication(const mcast::MulticastEngine& engine,
                          const core::Chain& base_chain,
                          std::int32_t num_hosts, std::int32_t n,
                          const core::RankTree& rank_tree, std::int32_t m,
                          OrderingKind ordering, std::int32_t rep,
                          std::uint64_t seed) {
  // One deterministic stream per repetition: every tree and NI variant
  // sees identical participant draws.
  sim::Rng rng{seed ^ (UINT64_C(0xbf58476d1ce4e5b9) *
                       (static_cast<std::uint64_t>(rep) + 1))};
  const auto draw = rng.sample_without_replacement(
      static_cast<std::size_t>(num_hosts), static_cast<std::size_t>(n));
  const auto source = static_cast<topo::HostId>(draw.front());
  std::vector<topo::HostId> dests;
  dests.reserve(draw.size() - 1);
  for (std::size_t i = 1; i < draw.size(); ++i) {
    dests.push_back(static_cast<topo::HostId>(draw[i]));
  }

  const core::Chain base = ordering == OrderingKind::kCco
                               ? base_chain
                               : core::random_ordering(num_hosts, rng);
  const core::Chain members = core::arrange_participants(base, source, dests);
  const core::HostTree tree = core::HostTree::bind(rank_tree, members);

  const mcast::MulticastResult result = engine.run(tree, m);
  return RepSample{result.latency.as_us(),
                   result.total_channel_block_time.as_us(),
                   result.peak_buffer(), result.max_buffer_integral(),
                   static_cast<double>(result.events_dispatched)};
}

void fold(MeasurePoint& point, const RepSample& s) {
  point.latency_us.add(s.latency_us);
  point.block_us.add(s.block_us);
  point.peak_buffer.add(s.peak_buffer);
  point.buffer_integral.add(s.buffer_integral);
  point.events.add(s.events);
}

}  // namespace

MeasurePoint measure_point(const topo::Topology& topology,
                           const routing::RouteTable& routes,
                           const core::Chain& base_chain,
                           const netif::SystemParams& params,
                           const net::NetworkConfig& network, std::int32_t n,
                           std::int32_t m, const TreeSpec& spec,
                           mcast::NiStyle style, OrderingKind ordering,
                           std::int32_t repetitions, std::uint64_t seed,
                           int threads) {
  const std::int32_t num_hosts = topology.num_hosts();
  validate_point(num_hosts, n, m, repetitions);

  const core::RankTree rank_tree = spec.build(n, m);
  // Thread budget: replication parallelism (embarrassingly parallel).
  const int budget = threads >= 1 ? threads : configured_threads();
  log_parallel_plan(budget);
  const mcast::MulticastEngine::Config ecfg{params, network, style};
  const mcast::MulticastEngine engine{topology, routes, ecfg};

  std::vector<RepSample> samples(static_cast<std::size_t>(repetitions));
  parallel_for_each(
      samples.size(),
      [&](std::size_t rep) {
        samples[rep] =
            run_replication(engine, base_chain, num_hosts, n, rank_tree, m,
                            ordering, static_cast<std::int32_t>(rep), seed);
      },
      budget);

  // Fold in repetition order: bit-identical to the serial loop.
  MeasurePoint point;
  for (const RepSample& s : samples) fold(point, s);
  return point;
}

TestbedSpec TestbedSpec::make_irregular(std::int32_t hosts) {
  if (hosts < 4 || hosts % 4 != 0) {
    throw std::invalid_argument(
        "TestbedSpec::make_irregular: hosts must be a positive multiple of 4");
  }
  TestbedSpec spec;
  spec.fabric = FabricKind::kIrregular;
  spec.num_hosts = hosts;
  spec.irregular.num_hosts = hosts;
  // Paper port budget: 8-port switches, 4 hosts + up to 4 switch links
  // each — hosts=64 reproduces the 16-switch rig exactly.
  spec.irregular.num_switches = hosts / 4;
  return spec;
}

TestbedSpec TestbedSpec::make_fat_tree(std::int32_t hosts) {
  if (hosts < 4) {
    throw std::invalid_argument("TestbedSpec::make_fat_tree: hosts < 4");
  }
  auto edge = static_cast<std::int32_t>(std::sqrt(static_cast<double>(hosts)));
  while (hosts % edge != 0) --edge;  // terminates: edge=1 divides anything
  TestbedSpec spec;
  spec.fabric = FabricKind::kFatTree;
  spec.num_hosts = hosts;
  spec.fat_tree.edge_switches = edge;
  spec.fat_tree.hosts_per_edge = hosts / edge;
  spec.fat_tree.spine_switches = edge / 2 > 2 ? edge / 2 : 2;
  spec.num_topologies = 1;  // deterministic fabric
  return spec;
}

Testbed::Testbed(TestbedSpec spec) : spec_{std::move(spec)} {
  if (spec_.num_topologies < 1 || spec_.sets_per_topology < 1) {
    throw std::invalid_argument("Testbed: non-positive repetitions");
  }
  const auto start = std::chrono::steady_clock::now();
  instances_.reserve(static_cast<std::size_t>(spec_.num_topologies));
  if (spec_.fabric == FabricKind::kIrregular) {
    topo::IrregularConfig cfg = spec_.irregular;
    cfg.num_hosts = spec_.num_hosts;
    // Single generator across topologies: instance t depends on the
    // draws of 0..t-1, matching the original IrregularTestbed stream.
    sim::Rng topo_rng{spec_.seed};
    for (std::int32_t t = 0; t < spec_.num_topologies; ++t) {
      Instance inst;
      inst.topology = std::make_unique<topo::Topology>(
          topo::make_irregular(cfg, topo_rng));
      inst.router = std::make_shared<const routing::UpDownRouter>(
          inst.topology->switches());
      inst.routes = std::make_unique<routing::RouteTable>(*inst.topology,
                                                          inst.router);
      inst.cco = core::cco_ordering(*inst.topology, *inst.router);
      instances_.push_back(std::move(inst));
    }
  } else {
    const topo::FatTreeConfig& cfg = spec_.fat_tree;
    const std::int64_t fabric_hosts =
        static_cast<std::int64_t>(cfg.edge_switches) * cfg.hosts_per_edge;
    if (fabric_hosts != spec_.num_hosts) {
      throw std::invalid_argument(
          "Testbed: fat_tree config disagrees with num_hosts");
    }
    for (std::int32_t t = 0; t < spec_.num_topologies; ++t) {
      Instance inst;
      inst.topology =
          std::make_unique<topo::Topology>(topo::make_fat_tree(cfg));
      inst.router = std::make_shared<const routing::UpDownRouter>(
          inst.topology->switches(), topo::fat_tree_levels(cfg));
      inst.routes = std::make_unique<routing::RouteTable>(*inst.topology,
                                                          inst.router);
      inst.cco = core::cco_ordering(*inst.topology, *inst.router);
      instances_.push_back(std::move(inst));
    }
  }
  build_ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
}

std::size_t Testbed::route_memory_bytes() const {
  std::size_t total = 0;
  for (const Instance& inst : instances_) {
    total += inst.routes->memory_bytes();
  }
  return total;
}

Testbed::Point Testbed::measure(std::int32_t n, std::int32_t m,
                                const TreeSpec& spec, mcast::NiStyle style,
                                OrderingKind ordering, int threads) const {
  const std::int32_t hosts = spec_.num_hosts;
  validate_point(hosts, n, m, spec_.sets_per_topology);

  const core::RankTree rank_tree = spec.build(n, m);
  // As in measure_point: replications fill the worker budget.
  const auto sets = static_cast<std::size_t>(spec_.sets_per_topology);
  const std::size_t replications = instances_.size() * sets;
  const int budget = threads >= 1 ? threads : configured_threads();
  log_parallel_plan(budget);
  std::vector<mcast::MulticastEngine> engines;
  engines.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    const mcast::MulticastEngine::Config ecfg{spec_.params, spec_.network,
                                              style};
    engines.emplace_back(*inst.topology, *inst.routes, ecfg);
  }

  // Every (topology, destination-set) pair is one independent job; the
  // sample array keeps them in (topology-major, set-minor) order so the
  // summary fold below matches the serial nesting exactly.
  std::vector<RepSample> samples(replications);
  parallel_for_each(
      samples.size(),
      [&](std::size_t job) {
        const std::size_t t = job / sets;
        const std::size_t rep = job % sets;
        const std::uint64_t seed =
            spec_.seed ^ (UINT64_C(0x9e3779b97f4a7c15) * (t + 1));
        samples[job] = run_replication(engines[t], instances_[t].cco, hosts,
                                       n, rank_tree, m, ordering,
                                       static_cast<std::int32_t>(rep), seed);
      },
      budget);

  Point point;
  for (std::size_t t = 0; t < instances_.size(); ++t) {
    MeasurePoint inst_point;
    for (std::size_t rep = 0; rep < sets; ++rep) {
      fold(inst_point, samples[t * sets + rep]);
    }
    point.merge(inst_point);
  }
  return point;
}

StreamingPoint Testbed::measure_streaming(
    std::int32_t stream_packets, std::int32_t rotation_trees,
    std::int32_t fanout_bound, int threads,
    mcast::Selection selection) const {
  const std::int32_t hosts = spec_.num_hosts;
  if (hosts < 2) {
    throw std::invalid_argument("measure_streaming: fewer than 2 hosts");
  }
  if (stream_packets < 1) {
    throw std::invalid_argument("measure_streaming: stream_packets < 1");
  }
  if (rotation_trees < 1) {
    throw std::invalid_argument("measure_streaming: rotation_trees < 1");
  }

  struct StreamSample {
    double flits_per_us = 0.0;
    double makespan_us = 0.0;
    double p99_gap_us = 0.0;
    double overlap_mean = 0.0;
    double rotation_used = 0.0;
    double member_imbalance = 1.0;
    double telemetry_snapshots = 0.0;
  };

  switch (configured_selection()) {
    case SelectionOverride::kStatic:
      selection = mcast::Selection::kStatic;
      break;
    case SelectionOverride::kAdaptive:
      selection = mcast::Selection::kAdaptive;
      break;
    case SelectionOverride::kUnset:
      break;
  }
  const auto sets = static_cast<std::size_t>(spec_.sets_per_topology);
  const std::size_t replications = instances_.size() * sets;
  const int budget = threads >= 1 ? threads : configured_threads();
  log_parallel_plan(budget, mcast::to_string(selection), rotation_trees);
  std::vector<mcast::MulticastEngine> engines;
  engines.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    mcast::MulticastEngine::Config ecfg{spec_.params, spec_.network,
                                        mcast::NiStyle::kSmartFpfs};
    ecfg.rotation_trees = rotation_trees;
    ecfg.selection = selection;
    engines.emplace_back(*inst.topology, *inst.routes, ecfg);
  }

  std::vector<StreamSample> samples(replications);
  parallel_for_each(
      samples.size(),
      [&](std::size_t job) {
        const std::size_t t = job / sets;
        const std::size_t rep = job % sets;
        const Instance& inst = instances_[t];
        const std::uint64_t seed =
            spec_.seed ^ (UINT64_C(0x9e3779b97f4a7c15) * (t + 1));
        // Same per-replication stream as run_replication, so streaming
        // sweeps draw paired sources across (S, R) configurations.
        sim::Rng rng{seed ^ (UINT64_C(0xbf58476d1ce4e5b9) *
                             (static_cast<std::uint64_t>(rep) + 1))};
        const auto draw = rng.sample_without_replacement(
            static_cast<std::size_t>(hosts), 1);
        const auto source = static_cast<topo::HostId>(draw.front());
        std::vector<topo::HostId> dests;
        dests.reserve(static_cast<std::size_t>(hosts) - 1);
        for (topo::HostId h = 0; h < hosts; ++h) {
          if (h != source) dests.push_back(h);
        }
        const core::Chain members =
            core::arrange_participants(inst.cco, source, dests);
        core::RotationConfig rc;
        rc.rotation_trees = rotation_trees;
        rc.fanout_bound = fanout_bound;
        const core::RotationPlan plan = core::plan_rotation(
            *inst.topology, *inst.routes, *inst.router, members, rc);
        const mcast::StreamingResult r =
            engines[t].run_streaming(plan, stream_packets);
        double imbalance = 1.0;
        if (!r.member_packets.empty()) {
          std::int64_t total = 0;
          std::int64_t peak = 0;
          for (std::int64_t n : r.member_packets) {
            total += n;
            peak = std::max(peak, n);
          }
          if (total > 0) {
            imbalance = static_cast<double>(peak) *
                        static_cast<double>(r.member_packets.size()) /
                        static_cast<double>(total);
          }
        }
        samples[job] =
            StreamSample{r.flits_per_us, r.makespan.as_us(),
                         r.p99_gap.as_us(), r.overlap_mean,
                         static_cast<double>(r.rotation_used), imbalance,
                         static_cast<double>(r.telemetry_snapshots)};
      },
      budget);

  StreamingPoint point;
  for (std::size_t t = 0; t < instances_.size(); ++t) {
    StreamingPoint inst_point;
    for (std::size_t rep = 0; rep < sets; ++rep) {
      const StreamSample& s = samples[t * sets + rep];
      inst_point.flits_per_us.add(s.flits_per_us);
      inst_point.makespan_us.add(s.makespan_us);
      inst_point.p99_gap_us.add(s.p99_gap_us);
      inst_point.overlap_mean.add(s.overlap_mean);
      inst_point.rotation_used.add(s.rotation_used);
      inst_point.member_imbalance.add(s.member_imbalance);
      inst_point.telemetry_snapshots.add(s.telemetry_snapshots);
    }
    point.merge(inst_point);
  }
  return point;
}

TrafficPoint Testbed::measure_traffic(
    const traffic::WorkloadConfig& workload,
    const traffic::SchedulerConfig& scheduler, int threads) const {
  const std::int32_t hosts = spec_.num_hosts;

  struct TrafficSample {
    double ops_per_sec = 0.0;
    double flits_per_us = 0.0;
    double makespan_us = 0.0;
    double deferral_ticks = 0.0;
    std::vector<std::pair<traffic::OpClass, double>> fct_us;
    std::uint64_t digest = 0;
  };

  const auto sets = static_cast<std::size_t>(spec_.sets_per_topology);
  const std::size_t replications = instances_.size() * sets;
  const int budget = threads >= 1 ? threads : configured_threads();
  log_parallel_plan(budget);
  std::vector<traffic::TrafficEngine> engines;
  engines.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    traffic::TrafficConfig tcfg;
    tcfg.params = spec_.params;
    tcfg.network = spec_.network;
    tcfg.scheduler = scheduler;
    engines.emplace_back(*inst.topology, *inst.routes, tcfg);
  }

  std::vector<TrafficSample> samples(replications);
  parallel_for_each(
      samples.size(),
      [&](std::size_t job) {
        const std::size_t t = job / sets;
        const std::size_t rep = job % sets;
        // Same (topology, set) seed derivation as measure(), so traffic
        // sweeps are paired across scheduler policies and load levels.
        traffic::WorkloadConfig wcfg = workload;
        wcfg.seed = workload.seed ^
                    (UINT64_C(0x9e3779b97f4a7c15) * (t + 1)) ^
                    (UINT64_C(0xbf58476d1ce4e5b9) * (rep + 1));
        const traffic::Workload mix =
            traffic::generate_workload(hosts, instances_[t].cco, wcfg);
        const traffic::TrafficResult r = engines[t].run(mix);
        TrafficSample s;
        s.ops_per_sec = r.ops_per_sec;
        s.flits_per_us = r.flits_per_us;
        s.makespan_us = r.makespan.as_us();
        s.deferral_ticks = static_cast<double>(r.deferral_ticks);
        s.fct_us.reserve(r.ops.size());
        for (const traffic::OpRecord& rec : r.ops) {
          s.fct_us.emplace_back(rec.cls, rec.fct().as_us());
        }
        s.digest = r.digest;
        samples[job] = std::move(s);
      },
      budget);

  TrafficPoint point;
  for (std::size_t t = 0; t < instances_.size(); ++t) {
    TrafficPoint inst_point;
    for (std::size_t rep = 0; rep < sets; ++rep) {
      const TrafficSample& s = samples[t * sets + rep];
      inst_point.ops_per_sec.add(s.ops_per_sec);
      inst_point.flits_per_us.add(s.flits_per_us);
      inst_point.makespan_us.add(s.makespan_us);
      inst_point.deferral_ticks.add(s.deferral_ticks);
      for (const auto& [cls, fct] : s.fct_us) {
        inst_point.fct_us.add(fct);
        switch (cls) {
          case traffic::OpClass::kMulticast:
            inst_point.fct_multicast_us.add(fct);
            break;
          case traffic::OpClass::kStream:
            inst_point.fct_stream_us.add(fct);
            break;
          case traffic::OpClass::kCollective:
            inst_point.fct_collective_us.add(fct);
            break;
        }
      }
      for (std::int32_t b = 0; b < 64; b += 8) {
        inst_point.digest ^= (s.digest >> b) & 0xffu;
        inst_point.digest *= 1099511628211ull;  // FNV-1a prime
      }
    }
    point.merge(inst_point);
  }
  return point;
}

namespace {

TestbedSpec to_spec(const IrregularTestbed::Config& cfg) {
  TestbedSpec spec;
  spec.fabric = FabricKind::kIrregular;
  spec.num_hosts = cfg.topology.num_hosts;
  spec.irregular = cfg.topology;
  spec.params = cfg.params;
  spec.network = cfg.network;
  spec.num_topologies = cfg.num_topologies;
  spec.sets_per_topology = cfg.sets_per_topology;
  spec.seed = cfg.seed;
  return spec;
}

}  // namespace

IrregularTestbed::IrregularTestbed(Config config)
    : cfg_{std::move(config)}, testbed_{to_spec(cfg_)} {}

}  // namespace nimcast::harness
