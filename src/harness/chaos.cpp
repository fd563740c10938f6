#include "harness/chaos.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "collectives/collective_engine.hpp"
#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering.hpp"
#include "core/rotation.hpp"
#include "harness/testbed.hpp"
#include "mcast/multicast_engine.hpp"
#include "network/fault_plan.hpp"
#include "routing/route_table.hpp"
#include "routing/up_down.hpp"
#include "sim/rng.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"

namespace nimcast::harness {

namespace {

/// Order-sensitive digest fold (boost-style hash_combine over FNV prime):
/// two result streams fold to the same digest iff they are identical.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + UINT64_C(0x9e3779b97f4a7c15) + (h << 6) + (h >> 2);
  return h * UINT64_C(0x100000001b3);
}

std::uint64_t mix_time(std::uint64_t h, sim::Time t) {
  return mix(h, static_cast<std::uint64_t>(t.count_ns()));
}

/// The campaign's one operation, drawn from a uniform mix.
enum class ChaosOp : std::uint8_t {
  kMulticastSmart,
  kMulticastReliable,
  kStreaming,
  kCollBroadcast,
  kCollScatter,
  kCollGather,
  kCollReduce,
  kCollAllReduce,
};
constexpr std::uint64_t kOpCount = 8;

const char* to_string(ChaosOp op) {
  switch (op) {
    case ChaosOp::kMulticastSmart: return "multicast-smart";
    case ChaosOp::kMulticastReliable: return "multicast-reliable";
    case ChaosOp::kStreaming: return "streaming";
    case ChaosOp::kCollBroadcast: return "coll-broadcast";
    case ChaosOp::kCollScatter: return "coll-scatter";
    case ChaosOp::kCollGather: return "coll-gather";
    case ChaosOp::kCollReduce: return "coll-reduce";
    case ChaosOp::kCollAllReduce: return "coll-allreduce";
  }
  return "?";
}

/// Delivery-side invariants shared by every operation: reachable
/// participants must have delivered unless the payload died with the
/// root (`check_reachable` false skips that clause — streaming handoffs
/// legitimately lose the stream indices only the dead source held), and
/// the outcome verdict must agree with the delivery count.
void check_statuses(CampaignResult& out,
                    const std::vector<mcast::DestinationStatus>& statuses,
                    mcast::Outcome outcome, bool check_reachable) {
  std::int32_t delivered = 0;
  for (const auto& st : statuses) {
    if (st.delivered) ++delivered;
    if (!st.reachable) ++out.unreachable;
    if (check_reachable && outcome != mcast::Outcome::kFailed &&
        st.reachable && !st.delivered) {
      out.violations.push_back("reachable host " + std::to_string(st.host) +
                               " undelivered on a non-failed operation");
    }
  }
  out.delivered = delivered;
  if (statuses.empty()) return;  // fault-free: no per-host bookkeeping
  const auto n = static_cast<std::int32_t>(statuses.size());
  const bool consistent =
      (outcome == mcast::Outcome::kComplete && delivered == n) ||
      (outcome == mcast::Outcome::kFailed && delivered == 0) ||
      (outcome == mcast::Outcome::kPartial && delivered > 0 && delivered < n);
  if (!consistent) {
    out.violations.push_back("outcome " +
                             std::string(mcast::to_string(outcome)) +
                             " inconsistent with delivered=" +
                             std::to_string(delivered) + "/" +
                             std::to_string(n));
  }
}

/// Each host completes an operation at most once, repair rounds included.
void check_completions(
    CampaignResult& out,
    const std::vector<std::pair<topo::HostId, sim::Time>>& completions) {
  std::unordered_set<topo::HostId> seen;
  for (const auto& [h, t] : completions) {
    if (!seen.insert(h).second) {
      out.violations.push_back("duplicate completion at host " +
                               std::to_string(h));
    }
  }
}

std::uint64_t fold_statuses(std::uint64_t d,
                            const std::vector<mcast::DestinationStatus>& sts) {
  for (const auto& st : sts) {
    d = mix(d, static_cast<std::uint64_t>(st.host));
    d = mix(d, (st.delivered ? 2u : 0u) | (st.reachable ? 1u : 0u));
    d = mix_time(d, st.completed_at);
  }
  return d;
}

std::uint64_t fold_completions(
    std::uint64_t d,
    const std::vector<std::pair<topo::HostId, sim::Time>>& completions) {
  for (const auto& [h, t] : completions) {
    d = mix(d, static_cast<std::uint64_t>(h));
    d = mix_time(d, t);
  }
  return d;
}

}  // namespace

ChaosSoak::ChaosSoak(ChaosConfig config) : config_{config} {
  if (config_.campaigns < 1) {
    throw std::invalid_argument("ChaosSoak: campaigns < 1");
  }
  if (config_.num_hosts < 4 || config_.num_hosts % 4 != 0) {
    throw std::invalid_argument(
        "ChaosSoak: num_hosts must be a positive multiple of 4");
  }
}

CampaignResult ChaosSoak::campaign(const ChaosConfig& config,
                                   std::int32_t index, std::int32_t shards,
                                   std::int32_t shard_threads) {
  if (shards != 1 || shard_threads != 0) {
    throw std::invalid_argument(
        "ChaosSoak::campaign: shards must be 1 and shard_threads 0 (the "
        "sharded engine was removed; campaigns run on the serial "
        "simulator)");
  }
  CampaignResult out;
  out.index = index;
  sim::Rng rng{config.seed ^ (UINT64_C(0x9e3779b97f4a7c15) *
                              (static_cast<std::uint64_t>(index) + 1))};

  // Fabric: campaigns alternate the random irregular family and the
  // deterministic fat tree, both at the configured host count.
  const bool fat = index % 2 == 1;
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<routing::UpDownRouter> router;
  if (fat) {
    const TestbedSpec spec = TestbedSpec::make_fat_tree(config.num_hosts);
    topology =
        std::make_unique<topo::Topology>(topo::make_fat_tree(spec.fat_tree));
    router = std::make_unique<routing::UpDownRouter>(
        topology->switches(), topo::fat_tree_levels(spec.fat_tree));
  } else {
    const TestbedSpec spec = TestbedSpec::make_irregular(config.num_hosts);
    topology = std::make_unique<topo::Topology>(
        topo::make_irregular(spec.irregular, rng));
    router = std::make_unique<routing::UpDownRouter>(topology->switches());
  }
  // A campaign touches a handful of switch pairs, so only those are
  // routed. `router` outlives the table.
  const routing::RouteTable routes{*topology, *router};
  const core::Chain cco = core::cco_ordering(*topology, *router);
  out.fabric = topology->name();

  // Participant draw: a random (source, destination-set) of n hosts.
  const std::int32_t n =
      std::clamp(config.participants, 2, topology->num_hosts());
  out.participants = n - 1;
  const auto draw = rng.sample_without_replacement(
      static_cast<std::size_t>(topology->num_hosts()),
      static_cast<std::size_t>(n));
  const auto source = static_cast<topo::HostId>(draw.front());
  std::vector<topo::HostId> dests;
  dests.reserve(draw.size() - 1);
  for (std::size_t i = 1; i < draw.size(); ++i) {
    dests.push_back(static_cast<topo::HostId>(draw[i]));
  }
  const core::Chain members = core::arrange_participants(cco, source, dests);
  const std::int32_t m = config.message_packets;
  const core::HostTree tree = core::HostTree::bind(
      core::make_kbinomial(n, core::optimal_k(n, m).k), members);

  const auto op = static_cast<ChaosOp>(rng.next_below(kOpCount));
  out.operation = to_string(op);

  // Fault schedule: background link/switch/host Bernoullis, an optional
  // link flap (failed links revive), and an optional targeted kill of
  // the operation's initiator mid-run.
  net::FaultPlan::RandomConfig fr;
  fr.link_fail_prob = config.link_fail_prob;
  fr.switch_fail_prob = config.switch_fail_prob;
  fr.host_fail_prob = config.host_fail_prob;
  fr.window_start = sim::Time::us(1.0);
  fr.window_end = sim::Time::us(150.0);
  const bool flap = rng.next_bool(config.link_flap_prob);
  if (flap) fr.link_recover_after = sim::Time::us(300.0);
  net::FaultPlan plan = net::FaultPlan::random(
      topology->switches(), topology->num_hosts(), fr, rng);
  out.root_killed = rng.next_bool(config.root_kill_prob);
  const sim::Time kill_at = sim::Time::us(
      static_cast<double>(rng.next_in(5, 80)));
  if (out.root_killed) plan.host_down(kill_at, source);

  std::uint64_t d = mix(0, static_cast<std::uint64_t>(op));
  try {
    switch (op) {
      case ChaosOp::kMulticastSmart:
      case ChaosOp::kMulticastReliable:
      case ChaosOp::kStreaming: {
        mcast::MulticastEngine::Config ecfg;
        ecfg.network.faults = plan;
        ecfg.style = op == ChaosOp::kMulticastReliable
                         ? mcast::NiStyle::kReliableFpfs
                         : mcast::NiStyle::kSmartFpfs;
        const mcast::MulticastEngine engine{*topology, routes, ecfg};
        if (op == ChaosOp::kStreaming) {
          core::RotationConfig rc;
          rc.rotation_trees = config.rotation_trees;
          rc.fanout_bound = std::clamp(core::optimal_k(n, 4).k, 1, n - 1);
          const core::RotationPlan rplan =
              core::plan_rotation(*topology, routes, *router, members, rc);
          const auto r = engine.run_streaming(rplan, config.stream_packets);
          out.outcome = mcast::to_string(r.outcome);
          out.repairs = r.repairs;
          out.replans = r.replans;
          out.root_handoffs = r.root_handoffs;
          // A per-packet handoff legitimately loses the indices only the
          // dead source held, so reachable destinations may hold partial
          // streams; with the source alive, reachable must mean full.
          check_statuses(out, r.destinations, r.outcome,
                         r.root_handoffs == 0);
          d = mix_time(d, r.makespan);
          d = mix_time(d, r.ni_makespan);
          d = mix(d, static_cast<std::uint64_t>(r.packets_delivered));
          d = mix(d, static_cast<std::uint64_t>(r.packets_resent));
          d = mix(d, static_cast<std::uint64_t>(r.effective_root));
          d = fold_statuses(d, r.destinations);
        } else {
          const auto r = engine.run(tree, m);
          out.outcome = mcast::to_string(r.outcome);
          out.repairs = r.repairs;
          out.root_handoffs = r.root_handoffs;
          check_statuses(out, r.destinations, r.outcome, true);
          check_completions(out, r.completions);
          d = mix_time(d, r.latency);
          d = mix(d, static_cast<std::uint64_t>(r.packets_delivered));
          d = mix(d, static_cast<std::uint64_t>(r.retransmissions));
          d = mix(d, static_cast<std::uint64_t>(r.effective_root));
          d = fold_statuses(d, r.destinations);
          d = fold_completions(d, r.completions);
        }
        break;
      }
      case ChaosOp::kCollBroadcast:
      case ChaosOp::kCollScatter:
      case ChaosOp::kCollGather:
      case ChaosOp::kCollReduce:
      case ChaosOp::kCollAllReduce: {
        const auto kind = [op] {
          switch (op) {
            case ChaosOp::kCollScatter:
              return collectives::CollectiveKind::kScatter;
            case ChaosOp::kCollGather:
              return collectives::CollectiveKind::kGather;
            case ChaosOp::kCollReduce:
              return collectives::CollectiveKind::kReduce;
            case ChaosOp::kCollAllReduce:
              return collectives::CollectiveKind::kAllReduce;
            default:
              return collectives::CollectiveKind::kBroadcast;
          }
        }();
        collectives::CollectiveEngine::Config ccfg;
        ccfg.network.faults = plan;
        const collectives::CollectiveEngine engine{*topology, routes, ccfg};
        const auto r = engine.run(kind, tree, m);
        out.outcome = mcast::to_string(r.outcome);
        out.repairs = r.repairs;
        out.root_handoffs = r.root_handoffs;
        out.faults_applied = r.faults_applied;
        check_statuses(out, r.participants, r.outcome, true);
        check_completions(out, r.completions);
        d = mix_time(d, r.latency);
        d = mix(d, static_cast<std::uint64_t>(r.packets_injected));
        d = mix(d, static_cast<std::uint64_t>(r.effective_root));
        d = mix(d, r.root_alive ? 1u : 0u);
        d = fold_statuses(d, r.participants);
        d = fold_completions(d, r.completions);
        for (topo::HostId h : r.contributors) {
          d = mix(d, static_cast<std::uint64_t>(h));
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    out.violations.push_back("engine threw: " + std::string(e.what()));
    out.outcome = "threw";
  }
  d = mix(d, static_cast<std::uint64_t>(out.repairs));
  d = mix(d, static_cast<std::uint64_t>(out.replans));
  d = mix(d, static_cast<std::uint64_t>(out.root_handoffs));
  out.digest = d;
  return out;
}

ChaosReport ChaosSoak::run() const {
  ChaosReport report;
  report.campaigns = config_.campaigns;
  std::uint64_t soak_digest = 0;
  for (std::int32_t c = 0; c < config_.campaigns; ++c) {
    CampaignResult r = campaign(config_, c, 1, 0);

    // Byte-determinism: the same campaign rerun must fold to the same
    // digest.
    const CampaignResult rerun = campaign(config_, c, 1, 0);
    if (rerun.digest != r.digest) {
      r.violations.push_back("rerun digest mismatch (campaign " +
                             std::to_string(c) + ")");
    }

    if (r.outcome == "complete") ++report.complete;
    if (r.outcome == "partial") ++report.partial;
    if (r.outcome == "failed") ++report.failed;
    if (r.root_killed) ++report.root_kills;
    report.root_handoffs += r.root_handoffs;
    report.repairs += r.repairs;
    report.replans += r.replans;
    report.violations += static_cast<std::int32_t>(r.violations.size());
    for (const auto& v : r.violations) {
      if (report.violation_messages.size() < 16) {
        report.violation_messages.push_back("campaign " + std::to_string(c) +
                                            " (" + r.operation + " on " +
                                            r.fabric + "): " + v);
      }
    }
    soak_digest = mix(soak_digest, r.digest);
    report.results.push_back(std::move(r));
  }
  report.digest = soak_digest;
  return report;
}

}  // namespace nimcast::harness
