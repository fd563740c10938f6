#include "traffic/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "sim/rng.hpp"

namespace nimcast::traffic {

const char* to_string(OpClass c) {
  switch (c) {
    case OpClass::kMulticast: return "multicast";
    case OpClass::kStream: return "stream";
    case OpClass::kCollective: return "collective";
  }
  return "?";
}

namespace {

/// Exponent of the bounded-Zipf group-size distribution.
constexpr double kZipfExponent = 1.2;
/// Packets per message of the fixed-size classes.
constexpr std::int32_t kMulticastPackets = 4;
constexpr std::int32_t kCollectivePackets = 2;

/// Optimal-k tree over the group, bound in CCO order — the same
/// construction every single-op harness entry point uses.
core::HostTree bind_group(const core::Chain& cco, topo::HostId root,
                          const std::vector<topo::HostId>& dests,
                          std::int32_t packets) {
  const auto n = static_cast<std::int32_t>(dests.size()) + 1;
  const core::Chain members = core::arrange_participants(cco, root, dests);
  const std::int32_t k = n > 1 ? core::optimal_k(n, packets).k : 1;
  return core::HostTree::bind(core::make_kbinomial(n, k), members);
}

void validate(std::int32_t num_hosts, const WorkloadConfig& cfg) {
  if (num_hosts < 2) {
    throw std::invalid_argument("generate_workload: num_hosts < 2");
  }
  if (cfg.num_ops < 1) {
    throw std::invalid_argument("generate_workload: num_ops < 1");
  }
  if (!(cfg.ops_per_ms > 0.0)) {
    throw std::invalid_argument("generate_workload: ops_per_ms <= 0");
  }
  if (cfg.min_group < 2 || cfg.max_group < cfg.min_group ||
      cfg.max_group > num_hosts) {
    throw std::invalid_argument(
        "generate_workload: group bounds out of [2, num_hosts]");
  }
  if (cfg.stream_fraction < 0.0 || cfg.collective_fraction < 0.0 ||
      cfg.stream_fraction + cfg.collective_fraction > 1.0) {
    throw std::invalid_argument("generate_workload: bad class fractions");
  }
  if (cfg.stream_packets < 1) {
    throw std::invalid_argument("generate_workload: stream_packets < 1");
  }
}

}  // namespace

Workload generate_workload(std::int32_t num_hosts, const core::Chain& cco,
                           const WorkloadConfig& cfg) {
  validate(num_hosts, cfg);
  sim::Rng rng{cfg.seed ^ UINT64_C(0x7261666669636b31)};

  // Bounded-Zipf cumulative weights over group sizes.
  const std::size_t sizes =
      static_cast<std::size_t>(cfg.max_group - cfg.min_group) + 1;
  std::vector<double> cum(sizes, 0.0);
  double total = 0.0;
  for (std::size_t j = 0; j < sizes; ++j) {
    total += std::pow(static_cast<double>(j + 1), -kZipfExponent);
    cum[j] = total;
  }

  const double mean_gap_ns = 1.0e6 / cfg.ops_per_ms;
  Workload wl;
  wl.ops.reserve(static_cast<std::size_t>(cfg.num_ops));
  sim::Time t = sim::Time::zero();
  for (std::int32_t i = 0; i < cfg.num_ops; ++i) {
    // Poisson arrivals: exponential inter-arrival gaps, quantized to the
    // simulator's nanosecond grid (at least 1 ns so arrival coordination
    // keys stay per-op FIFO even under extreme offered load).
    const double u = std::max(rng.next_double(), 1.0e-12);
    const double gap = -std::log(u) * mean_gap_ns;
    t = t + sim::Time::ns(std::max<sim::Time::rep>(
            1, static_cast<sim::Time::rep>(std::llround(gap))));

    const double uz = rng.next_double() * total;
    std::size_t j = 0;
    while (j + 1 < sizes && cum[j] < uz) ++j;
    const auto group = cfg.min_group + static_cast<std::int32_t>(j);

    const auto draw = rng.sample_without_replacement(
        static_cast<std::size_t>(num_hosts), static_cast<std::size_t>(group));
    const auto root = static_cast<topo::HostId>(draw.front());
    std::vector<topo::HostId> dests;
    dests.reserve(draw.size() - 1);
    for (std::size_t d = 1; d < draw.size(); ++d) {
      dests.push_back(static_cast<topo::HostId>(draw[d]));
    }

    TrafficOp op;
    op.arrival = t;
    const double uc = rng.next_double();
    if (uc < cfg.collective_fraction) {
      op.cls = OpClass::kCollective;
      op.packets = kCollectivePackets;
    } else if (uc < cfg.collective_fraction + cfg.stream_fraction) {
      op.cls = OpClass::kStream;
      op.packets = cfg.stream_packets;
    } else {
      op.cls = OpClass::kMulticast;
      op.packets = kMulticastPackets;
    }
    op.tree = bind_group(cco, root, dests, op.packets);

    if (op.cls == OpClass::kStream && group >= 3 && op.packets >= 2 &&
        rng.next_double() < cfg.churn_probability) {
      // One member leaves; when a spare host exists, one joins. The
      // leaver draw burns an rng step even when churn ends up a no-op
      // re-bind, keeping the stream position independent of topology.
      const auto leave_ix = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(dests.size())));
      std::vector<topo::HostId> dests2;
      dests2.reserve(dests.size());
      for (std::size_t d = 0; d < dests.size(); ++d) {
        if (d != leave_ix) dests2.push_back(dests[d]);
      }
      if (group < num_hosts) {
        std::vector<std::uint8_t> in_group(
            static_cast<std::size_t>(num_hosts), 0);
        for (std::size_t d : draw) in_group[d] = 1;
        auto joiner = static_cast<topo::HostId>(
            rng.next_below(static_cast<std::uint64_t>(num_hosts)));
        while (in_group[static_cast<std::size_t>(joiner)] != 0) {
          joiner = (joiner + 1) % num_hosts;
        }
        dests2.push_back(joiner);
      }
      op.churn = true;
      op.split = 1 + static_cast<std::int32_t>(rng.next_below(
                         static_cast<std::uint64_t>(op.packets - 1)));
      op.tree2 = bind_group(cco, root, dests2, op.packets - op.split);
      ++wl.churns;
    }

    switch (op.cls) {
      case OpClass::kMulticast: ++wl.multicasts; break;
      case OpClass::kStream: ++wl.streams; break;
      case OpClass::kCollective: ++wl.collectives; break;
    }
    wl.ops.push_back(std::move(op));
  }
  return wl;
}

}  // namespace nimcast::traffic
