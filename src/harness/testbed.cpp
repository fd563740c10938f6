#include "harness/testbed.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <type_traits>
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
  digest = sim::fnv1a(digest, other.digest);
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

/// Seed of topology `t` in a Testbed sweep.
std::uint64_t topology_seed(std::uint64_t seed, std::size_t t) {
  return seed ^ (UINT64_C(0x9e3779b97f4a7c15) * (t + 1));
}

/// Seed of replication `rep` under a topology (or measure_point) seed.
std::uint64_t replication_seed(std::uint64_t seed, std::size_t rep) {
  return seed ^ (UINT64_C(0xbf58476d1ce4e5b9) * (rep + 1));
}

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
  sim::Rng rng{replication_seed(seed, static_cast<std::size_t>(rep))};
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

/// The sweep scaffold under Testbed's three measure functions: one
/// `Engine` per fabric built from `config`, every (topology t, set rep)
/// pair one job on the worker budget, and the samples folded set-minor
/// into a per-topology point that is merged in topology order — the
/// serial nesting exactly, so the point is bit-identical for every
/// thread count. `run(engine, t, rep)` derives its own seed from
/// (t, rep) and returns the replication's sample; `fold(point, sample)`
/// adds it. `selection` and `rotation_trees` go to log_parallel_plan.
template <typename Point, typename Engine, typename Config, typename Run,
          typename Fold>
Point replicate(const std::vector<core::Fabric>& fabrics, std::size_t sets,
                int threads, const Config& config, Run run, Fold fold,
                const char* selection = nullptr,
                std::int32_t rotation_trees = 0) {
  const int budget = threads >= 1 ? threads : configured_threads();
  log_parallel_plan(budget, selection, rotation_trees);
  std::vector<Engine> engines;
  engines.reserve(fabrics.size());
  for (const core::Fabric& fabric : fabrics) {
    engines.emplace_back(fabric.topology(), fabric.routes(), config);
  }

  using Sample = std::invoke_result_t<Run&, const Engine&, std::size_t,
                                      std::size_t>;
  std::vector<Sample> samples(fabrics.size() * sets);
  parallel_for_each(
      samples.size(),
      [&](std::size_t job) {
        const std::size_t t = job / sets;
        samples[job] = run(engines[t], t, job % sets);
      },
      budget);

  Point point;
  for (std::size_t t = 0; t < fabrics.size(); ++t) {
    Point fabric_point;
    for (std::size_t rep = 0; rep < sets; ++rep) {
      fold(fabric_point, samples[t * sets + rep]);
    }
    point.merge(fabric_point);
  }
  return point;
}

}  // namespace

MeasurePoint measure_point(const core::Fabric& fabric,
                           const netif::SystemParams& params,
                           const net::NetworkConfig& network, std::int32_t n,
                           std::int32_t m, const TreeSpec& spec,
                           mcast::NiStyle style, OrderingKind ordering,
                           std::int32_t repetitions, std::uint64_t seed,
                           int threads) {
  const std::int32_t num_hosts = fabric.num_hosts();
  validate_point(num_hosts, n, m, repetitions);

  const core::RankTree rank_tree = spec.build(n, m);
  // Thread budget: replication parallelism (embarrassingly parallel).
  const int budget = threads >= 1 ? threads : configured_threads();
  log_parallel_plan(budget);
  const mcast::MulticastEngine::Config ecfg{params, network, style};
  const mcast::MulticastEngine engine{fabric.topology(), fabric.routes(),
                                      ecfg};

  std::vector<RepSample> samples(static_cast<std::size_t>(repetitions));
  parallel_for_each(
      samples.size(),
      [&](std::size_t rep) {
        samples[rep] = run_replication(engine, fabric.chain(), num_hosts, n,
                                       rank_tree, m, ordering,
                                       static_cast<std::int32_t>(rep), seed);
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
  const bool irregular = spec_.fabric == FabricKind::kIrregular;
  const topo::FatTreeConfig& fat = spec_.fat_tree;
  const std::int64_t fat_hosts =
      static_cast<std::int64_t>(fat.edge_switches) * fat.hosts_per_edge;
  if (!irregular && fat_hosts != spec_.num_hosts) {
    throw std::invalid_argument(
        "Testbed: fat_tree config disagrees with num_hosts");
  }
  const auto start = std::chrono::steady_clock::now();
  topo::IrregularConfig cfg = spec_.irregular;
  cfg.num_hosts = spec_.num_hosts;
  // Single generator across topologies: irregular instance t depends on
  // the draws of 0..t-1. The fat tree is deterministic and draws nothing.
  sim::Rng topo_rng{spec_.seed};
  fabrics_.reserve(static_cast<std::size_t>(spec_.num_topologies));
  for (std::int32_t t = 0; t < spec_.num_topologies; ++t) {
    fabrics_.push_back(irregular ? core::Fabric::irregular(cfg, topo_rng)
                                 : core::Fabric::fat_tree(fat));
  }
  build_ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
}

std::size_t Testbed::route_memory_bytes() const {
  std::size_t total = 0;
  for (const core::Fabric& fabric : fabrics_) {
    total += fabric.routes().memory_bytes();
  }
  return total;
}

Testbed::Point Testbed::measure(std::int32_t n, std::int32_t m,
                                const TreeSpec& spec, mcast::NiStyle style,
                                OrderingKind ordering, int threads) const {
  const std::int32_t hosts = spec_.num_hosts;
  validate_point(hosts, n, m, spec_.sets_per_topology);

  const core::RankTree rank_tree = spec.build(n, m);
  return replicate<Point, mcast::MulticastEngine>(
      fabrics_, static_cast<std::size_t>(spec_.sets_per_topology), threads,
      mcast::MulticastEngine::Config{spec_.params, spec_.network, style},
      [&](const mcast::MulticastEngine& engine, std::size_t t,
          std::size_t rep) {
        return run_replication(engine, fabrics_[t].chain(), hosts, n,
                               rank_tree, m, ordering,
                               static_cast<std::int32_t>(rep),
                               topology_seed(spec_.seed, t));
      },
      fold);
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
  mcast::MulticastEngine::Config ecfg{spec_.params, spec_.network,
                                      mcast::NiStyle::kSmartFpfs};
  ecfg.rotation_trees = rotation_trees;
  ecfg.selection = selection;

  const auto run = [&](const mcast::MulticastEngine& engine, std::size_t t,
                       std::size_t rep) {
    const core::Fabric& fabric = fabrics_[t];
    // Same per-replication stream as run_replication, so streaming
    // sweeps draw paired sources across (S, R) configurations.
    sim::Rng rng{replication_seed(topology_seed(spec_.seed, t), rep)};
    const auto draw =
        rng.sample_without_replacement(static_cast<std::size_t>(hosts), 1);
    const auto source = static_cast<topo::HostId>(draw.front());
    std::vector<topo::HostId> dests;
    dests.reserve(static_cast<std::size_t>(hosts) - 1);
    for (topo::HostId h = 0; h < hosts; ++h) {
      if (h != source) dests.push_back(h);
    }
    const core::Chain members =
        core::arrange_participants(fabric.chain(), source, dests);
    core::RotationConfig rc;
    rc.rotation_trees = rotation_trees;
    rc.fanout_bound = fanout_bound;
    const core::RotationPlan plan = core::plan_rotation(
        fabric.topology(), fabric.routes(), *fabric.updown(), members, rc);
    const mcast::StreamingResult r = engine.run_streaming(plan, stream_packets);
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
    return StreamSample{r.flits_per_us, r.makespan.as_us(), r.p99_gap.as_us(),
                        r.overlap_mean, static_cast<double>(r.rotation_used),
                        imbalance, static_cast<double>(r.telemetry_snapshots)};
  };
  const auto fold_stream = [](StreamingPoint& point, const StreamSample& s) {
    point.flits_per_us.add(s.flits_per_us);
    point.makespan_us.add(s.makespan_us);
    point.p99_gap_us.add(s.p99_gap_us);
    point.overlap_mean.add(s.overlap_mean);
    point.rotation_used.add(s.rotation_used);
    point.member_imbalance.add(s.member_imbalance);
    point.telemetry_snapshots.add(s.telemetry_snapshots);
  };
  return replicate<StreamingPoint, mcast::MulticastEngine>(
      fabrics_, static_cast<std::size_t>(spec_.sets_per_topology), threads,
      ecfg, run, fold_stream, mcast::to_string(selection), rotation_trees);
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

  traffic::TrafficConfig tcfg;
  tcfg.params = spec_.params;
  tcfg.network = spec_.network;
  tcfg.scheduler = scheduler;

  const auto run = [&](const traffic::TrafficEngine& engine, std::size_t t,
                       std::size_t rep) {
    // Same (topology, set) seed derivation as measure(), so traffic
    // sweeps are paired across scheduler policies and load levels.
    traffic::WorkloadConfig wcfg = workload;
    wcfg.seed = replication_seed(topology_seed(workload.seed, t), rep);
    const traffic::Workload mix =
        traffic::generate_workload(hosts, fabrics_[t].chain(), wcfg);
    const traffic::TrafficResult r = engine.run(mix);
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
    return s;
  };
  const auto fold_traffic = [](TrafficPoint& point, const TrafficSample& s) {
    point.ops_per_sec.add(s.ops_per_sec);
    point.flits_per_us.add(s.flits_per_us);
    point.makespan_us.add(s.makespan_us);
    point.deferral_ticks.add(s.deferral_ticks);
    for (const auto& [cls, fct] : s.fct_us) {
      point.fct_us.add(fct);
      switch (cls) {
        case traffic::OpClass::kMulticast:
          point.fct_multicast_us.add(fct);
          break;
        case traffic::OpClass::kStream:
          point.fct_stream_us.add(fct);
          break;
        case traffic::OpClass::kCollective:
          point.fct_collective_us.add(fct);
          break;
      }
    }
    point.digest = sim::fnv1a(point.digest, s.digest);
  };
  return replicate<TrafficPoint, traffic::TrafficEngine>(
      fabrics_, static_cast<std::size_t>(spec_.sets_per_topology), threads,
      tcfg, run, fold_traffic);
}

}  // namespace nimcast::harness
