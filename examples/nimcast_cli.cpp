// Command-line front end: run any supported operation on any supported
// system from the shell, optionally dumping a Perfetto-compatible trace.
//
//   ./build/examples/nimcast_cli --op multicast --dests 15 --bytes 1024
//   ./build/examples/nimcast_cli --system mesh --radix 8 --op broadcast
//       --tree binomial --style fcfs --trace /tmp/run.json
//
// Exit code 0 on success; 2 on bad usage.

#include <cstdio>
#include <optional>

#include "collectives/collective_engine.hpp"
#include "core/fabric.hpp"
#include "core/host_tree.hpp"
#include "core/optimal_k.hpp"
#include "core/ordering_quality.hpp"
#include "harness/cli.hpp"
#include "harness/tree_spec.hpp"
#include "mcast/multicast_engine.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace nimcast;

core::Fabric build_system(const std::string& kind, std::int64_t radix,
                          std::int64_t dims, std::uint64_t seed) {
  if (kind == "irregular") {
    sim::Rng rng{seed};
    return core::Fabric::irregular(topo::IrregularConfig{}, rng);
  }
  if (kind == "mesh") {
    return core::Fabric::mesh({static_cast<std::int32_t>(radix),
                               static_cast<std::int32_t>(dims), false});
  }
  throw std::invalid_argument("--system must be irregular or mesh");
}

harness::TreeSpec parse_tree(const std::string& t) {
  if (t == "optimal") return harness::TreeSpec::optimal();
  if (t == "binomial") return harness::TreeSpec::binomial();
  if (t == "linear") return harness::TreeSpec::linear();
  if (t.rfind("k=", 0) == 0) {
    return harness::TreeSpec::kbinomial(std::stoi(t.substr(2)));
  }
  throw std::invalid_argument("--tree must be optimal|binomial|linear|k=K");
}

mcast::NiStyle parse_style(const std::string& s) {
  if (s == "fpfs") return mcast::NiStyle::kSmartFpfs;
  if (s == "fcfs") return mcast::NiStyle::kSmartFcfs;
  if (s == "conventional") return mcast::NiStyle::kConventional;
  if (s == "reliable") return mcast::NiStyle::kReliableFpfs;
  throw std::invalid_argument(
      "--style must be fpfs|fcfs|conventional|reliable");
}

std::optional<collectives::CollectiveKind> parse_collective(
    const std::string& op) {
  using K = collectives::CollectiveKind;
  if (op == "broadcast") return K::kBroadcast;
  if (op == "scatter") return K::kScatter;
  if (op == "gather") return K::kGather;
  if (op == "reduce") return K::kReduce;
  if (op == "allreduce") return K::kAllReduce;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Cli cli{argc, argv};
  cli.describe("system", "irregular (default) or mesh")
      .describe("radix", "mesh radix k (default 8)")
      .describe("dims", "mesh dimensions n (default 2)")
      .describe("seed", "topology seed (default 1997)")
      .describe("op",
                "multicast (default) | broadcast | scatter | gather | "
                "reduce | allreduce | assess-ordering")
      .describe("dests", "multicast destination count (default 15)")
      .describe("bytes", "message bytes (default 512)")
      .describe("tree", "optimal (default) | binomial | linear | k=K")
      .describe("style", "fpfs (default) | fcfs | conventional | reliable")
      .describe("loss", "packet loss probability in [0,1) (default 0)")
      .describe("source", "source/root host id (default 0)")
      .describe("trace", "write a Perfetto JSON trace to this path");

  try {
    const auto system_kind = cli.get_string("system", "irregular");
    const auto radix = cli.get_int("radix", 8);
    const auto dims = cli.get_int("dims", 2);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1997));
    const auto op = cli.get_string("op", "multicast");
    const auto dest_count = cli.get_int("dests", 15);
    const auto bytes = cli.get_int("bytes", 512);
    const auto tree_spec = parse_tree(cli.get_string("tree", "optimal"));
    const auto style = parse_style(cli.get_string("style", "fpfs"));
    const auto source =
        static_cast<topo::HostId>(cli.get_int("source", 0));
    const auto loss = cli.get_double("loss", 0.0);
    const auto trace_path = cli.get_string("trace", "");
    if (!cli.finish()) {
      std::fputs(cli.usage().c_str(), stdout);
      return 0;
    }

    const core::Fabric system = build_system(system_kind, radix, dims, seed);
    const std::int32_t hosts = system.topology().num_hosts();
    net::NetworkConfig netcfg;
    netcfg.loss_rate = loss;
    const auto m = static_cast<std::int32_t>(
        std::max<std::int64_t>(1, (bytes + netcfg.packet_bytes - 1) /
                                      netcfg.packet_bytes));
    std::printf("system: %s, %d hosts, routing %s\n",
                system.topology().name().c_str(), hosts,
                system.router().name());

    sim::Trace trace;
    sim::Trace* trace_ptr = nullptr;
    if (!trace_path.empty()) {
      trace.enable();
      trace_ptr = &trace;
    }

    if (op == "assess-ordering") {
      sim::Rng rng{seed + 1};
      const auto q = core::assess_ordering_sampled(
          system.topology(), system.routes(), system.chain(), 50'000, rng);
      std::printf("ordering violation rate: %.4f (%lld / %lld quadruples)\n",
                  q.violation_rate(),
                  static_cast<long long>(q.violations),
                  static_cast<long long>(q.checked));
      return 0;
    }

    if (const auto kind = parse_collective(op)) {
      // Collective over all hosts.
      std::vector<topo::HostId> dests;
      for (topo::HostId h = 0; h < hosts; ++h) {
        if (h != source) dests.push_back(h);
      }
      const auto choice = core::optimal_k(hosts, m);
      const auto members =
          core::arrange_participants(system.chain(), source, dests);
      const auto tree = core::HostTree::bind(
          tree_spec.build(hosts, m), members);
      const collectives::CollectiveEngine engine{
          system.topology(), system.routes(),
          collectives::CollectiveEngine::Config{netif::SystemParams{},
                                                netcfg},
          trace_ptr};
      const auto result = engine.run(*kind, tree, m);
      std::printf("%s: %d hosts, %lld B -> %d packets, k=%d\n", op.c_str(),
                  hosts, static_cast<long long>(bytes), m, choice.k);
      std::printf("latency %.1f us, %lld packets on wire, contention %.1f "
                  "us\n",
                  result.latency.as_us(),
                  static_cast<long long>(result.packets_injected),
                  result.total_channel_block_time.as_us());
    } else if (op == "multicast") {
      if (dest_count < 1 || dest_count >= hosts) {
        throw std::invalid_argument("--dests out of range");
      }
      std::vector<topo::HostId> dests;
      for (topo::HostId h = 0; h < hosts && static_cast<std::int64_t>(
                                                dests.size()) < dest_count;
           ++h) {
        if (h != source) dests.push_back(h);
      }
      const auto n = static_cast<std::int32_t>(dests.size()) + 1;
      const auto members =
          core::arrange_participants(system.chain(), source, dests);
      const auto tree =
          core::HostTree::bind(tree_spec.build(n, m), members);
      const mcast::MulticastEngine engine{
          system.topology(), system.routes(),
          mcast::MulticastEngine::Config{netif::SystemParams{}, netcfg,
                                         style},
          trace_ptr};
      const auto result = engine.run(tree, m);
      std::printf("multicast: %lld B to %d dests over %s tree, %s NI\n",
                  static_cast<long long>(bytes), n - 1,
                  tree_spec.name().c_str(), mcast::to_string(style));
      std::printf("latency %.1f us (NI-level %.1f us), contention %.1f us, "
                  "peak NI buffer %.0f packets\n",
                  result.latency.as_us(), result.ni_latency.as_us(),
                  result.total_channel_block_time.as_us(),
                  result.peak_buffer());
    } else {
      throw std::invalid_argument("unknown --op " + op);
    }

    if (trace_ptr != nullptr) {
      sim::write_chrome_trace(trace, trace_path);
      std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                  trace.records().size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), cli.usage().c_str());
    return 2;
  }
}
