// Micro-benchmarks (google-benchmark) of the library's hot paths: tree
// construction, the Theorem 3 solver and optimal-k table at Communicator
// sizes, participant arrangement, the step-model executor, the event
// queue (batch churn and a 1024-host run's fixed-delay mix), route
// construction (irregular wiring, the up*/down* BFS, the route table
// build) and lookup, the NI coprocessor's task queue, one FPFS receive-and-forward
// through an NI, a full end-to-end multicast simulation, the fixed
// per-call scaffolding of a 1024-host engine call, and whole
// multi-tenant traffic mixes. These
// guard the experiment harness's own performance — regenerating the
// figures runs hundreds of thousands of these operations.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/host_tree.hpp"
#include "core/kbinomial.hpp"
#include "core/fabric.hpp"
#include "core/optimal_k.hpp"
#include "harness/testbed.hpp"
#include "mcast/multicast_engine.hpp"
#include "mcast/step_model.hpp"
#include "netif/serial_server.hpp"
#include "netif/smart_ni.hpp"
#include "routing/up_down.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace nimcast;

void BM_MakeKBinomial(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_kbinomial(n, 3));
  }
}
BENCHMARK(BM_MakeKBinomial)->Arg(16)->Arg(64)->Arg(1024);

void BM_OptimalK(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  core::CoverageTable cov;
  for (auto _ : state) {
    for (std::int32_t m = 1; m <= 32; ++m) {
      benchmark::DoNotOptimize(core::optimal_k(n, m, cov));
    }
  }
}
BENCHMARK(BM_OptimalK)->Arg(64)->Arg(1024);

void BM_OptimalKTableBuild(benchmark::State& state) {
  // {num_hosts, 512} is the table every api::Communicator builds.
  const auto max_n = static_cast<std::int32_t>(state.range(0));
  const auto max_m = static_cast<std::int32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::OptimalKTable{max_n, max_m});
  }
}
BENCHMARK(BM_OptimalKTableBuild)
    ->Args({64, 32})
    ->Args({64, 512})
    ->Args({1024, 512})
    ->Unit(benchmark::kMicrosecond);

void BM_ArrangeParticipants(benchmark::State& state) {
  // A broadcast's participant arrangement: every host but the source,
  // in a shuffled chain.
  const auto hosts = static_cast<std::int32_t>(state.range(0));
  sim::Rng rng{7};
  const core::Chain chain = core::random_ordering(hosts, rng);
  std::vector<topo::HostId> dests;
  for (topo::HostId h = 1; h < hosts; ++h) dests.push_back(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::arrange_participants(chain, 0, dests));
  }
}
BENCHMARK(BM_ArrangeParticipants)->Arg(1024);

void BM_StepSchedule(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto m = static_cast<std::int32_t>(state.range(1));
  const auto tree = core::make_kbinomial(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mcast::step_schedule(tree, m, mcast::Discipline::kFpfs));
  }
}
BENCHMARK(BM_StepSchedule)->Args({64, 8})->Args({64, 64})->Args({1024, 8});

void BM_EventQueueChurn(benchmark::State& state) {
  const auto batch = state.range(0);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::int64_t i = 0; i < batch; ++i) {
      q.schedule(sim::Time::ns(i * 37 % 1000), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(10000);

// fabric1024's schedule mix — 100 ns hops 34.4%, 500 / 2000 / 3000 ns
// NI and drain costs 21.4% each, 12.5 us host start-up 1.3% — shuffled.
std::vector<sim::Time> fixed_delay_mix() {
  std::vector<sim::Time> mix;
  for (const auto& [ns, per_mille] :
       {std::pair{100, 344}, std::pair{500, 214}, std::pair{2000, 214},
        std::pair{3000, 214}, std::pair{12500, 14}}) {
    mix.insert(mix.end(), static_cast<std::size_t>(per_mille),
               sim::Time::ns(ns));
  }
  sim::Rng rng{1024};
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[static_cast<std::size_t>(rng.next_below(i + 1))]);
  }
  return mix;
}

// The mix at a constant pending depth: every pop schedules one event at
// its firing time plus the next delay. `schedule(q, when)` schedules one
// event; the popped one is dropped uninvoked.
template <typename Schedule>
void fixed_delays(benchmark::State& state, Schedule schedule) {
  const auto depth = state.range(0);
  const std::vector<sim::Time> mix = fixed_delay_mix();
  sim::EventQueue q;
  std::size_t next = 0;
  for (std::int64_t i = 0; i < depth; ++i) {
    schedule(q, mix[next++ % mix.size()]);
  }
  for (auto _ : state) {
    auto fired = q.pop();
    schedule(q, fired.time + mix[next++ % mix.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}

// Generic events: an empty EventCallback each.
void BM_EventQueueFixedDelays(benchmark::State& state) {
  fixed_delays(state, [](sim::EventQueue& q, sim::Time when) {
    q.schedule(when, [] {});
  });
}
BENCHMARK(BM_EventQueueFixedDelays)->Arg(64)->Arg(700);

// Typed twin: the same mix as typed events, the form of the hot hop,
// completion and NI finish events.
void BM_EventQueueFixedDelaysTyped(benchmark::State& state) {
  fixed_delays(state, [](sim::EventQueue& q, sim::Time when) {
    q.schedule(
        when, [](void*, std::uint64_t) {}, nullptr, 0,
        sim::EventKind::kNetwork);
  });
}
BENCHMARK(BM_EventQueueFixedDelaysTyped)->Arg(64)->Arg(700);

// An NI coprocessor's task churn: `batch` receive tasks (t_rcv, low
// lane), each of which queues two send copies (t_snd, normal lane), every
// task capturing its packet as the firmware's do, served by one worker
// until the simulator drains. Items are tasks.
void BM_SerialServerChurn(benchmark::State& state) {
  const auto batch = state.range(0);
  sim::Simulator simctx;
  netif::SerialServer server{simctx};
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) {
      net::Packet p;
      p.packet_index = static_cast<std::int32_t>(i);
      server.enqueue_low(sim::Time::ns(500), [&server, &sink, p] {
        for (std::int32_t c = 0; c < 2; ++c) {
          server.enqueue(sim::Time::ns(2000),
                         [&sink, p, c] { sink += p.packet_index + c; });
        }
      });
    }
    simctx.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch * 3);
}
BENCHMARK(BM_SerialServerChurn)->Arg(64)->Arg(1024);

/// The 1024-host irregular fabric of fabric-scale runs: 256 switches, 4
/// hosts each, 8 ports.
topo::Topology irregular_1024() {
  topo::IrregularConfig cfg;
  cfg.num_hosts = 1024;
  cfg.num_switches = 256;
  sim::Rng rng{5};
  return topo::make_irregular(cfg, rng);
}

// One up*/down* BFS between a far-apart switch pair on 256 switches.
void BM_UpDownTryRoute(benchmark::State& state) {
  const auto topology = irregular_1024();
  const routing::UpDownRouter router{topology.switches()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.try_route(7, 250));
  }
}
BENCHMARK(BM_UpDownTryRoute);

// Construction of a route table: the component map plus the switch-pair
// index, no route materialized.
void BM_RouteTableBuild(benchmark::State& state) {
  const auto topology = irregular_1024();
  const routing::UpDownRouter router{topology.switches()};
  for (auto _ : state) {
    const routing::RouteTable table{topology, router};
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_RouteTableBuild);

// Lookups of already materialized routes: 4096 random host pairs on the
// 1024-host fabric, walked in a fixed order (the per-worm path() call).
void BM_RouteTableLookup(benchmark::State& state) {
  const auto topology = irregular_1024();
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable table{topology, router};
  sim::Rng rng{11};
  std::vector<std::pair<topo::HostId, topo::HostId>> pairs(4096);
  for (auto& [src, dst] : pairs) {
    src = static_cast<topo::HostId>(rng.next_below(1024));
    dst = static_cast<topo::HostId>(rng.next_below(1024));
    (void)table.path(src, dst);
  }
  for (auto _ : state) {
    for (const auto& [src, dst] : pairs) {
      benchmark::DoNotOptimize(&table.path(src, dst));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_RouteTableLookup);

// Rejection-sampled wiring at the chaos (32) and paper (64) host counts.
void BM_MakeIrregular(benchmark::State& state) {
  topo::IrregularConfig cfg;
  cfg.num_hosts = static_cast<std::int32_t>(state.range(0));
  cfg.num_switches = cfg.num_hosts / 4;
  sim::Rng rng{5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::make_irregular(cfg, rng));
  }
}
BENCHMARK(BM_MakeIrregular)->Arg(32)->Arg(64);

void BM_FullMulticastSimulation(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto m = static_cast<std::int32_t>(state.range(1));
  sim::Rng rng{5};
  const auto fabric = core::Fabric::irregular(topo::IrregularConfig{}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::measure_point(
        fabric, netif::SystemParams{}, net::NetworkConfig{}, n, m,
        harness::TreeSpec::optimal(), mcast::NiStyle::kSmartFpfs,
        harness::OrderingKind::kCco, 1, 42));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1) * m);
}
BENCHMARK(BM_FullMulticastSimulation)
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({64, 32});

// A one-packet broadcast to every host of the 1024-host irregular fabric
// through MulticastEngine::run: 1,023 receive tasks and as many copies,
// so building the session (network, hosts, NIs, forwarding entries),
// reducing the result and tearing it all down weigh as much as the
// drain. The first call, outside the timing, materializes the routes.
void BM_SessionScaffold(benchmark::State& state) {
  const auto topology = irregular_1024();
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  const auto chain = core::cco_ordering(topology, router);
  const auto n = topology.num_hosts();
  const auto tree = core::HostTree::bind(
      core::make_kbinomial(n, core::optimal_k(n, 1).k), chain);
  const mcast::MulticastEngine engine{topology, routes,
                                      mcast::MulticastEngine::Config{}};
  benchmark::DoNotOptimize(engine.run(tree, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(tree, 1));
  }
}
BENCHMARK(BM_SessionScaffold)->Unit(benchmark::kMicrosecond);

// One FPFS receive-and-forward at an intermediate NI: receive processing
// (t_rcv), the forwarding-entry lookup, holding the packet, and one copy
// to each of two children, which the wormhole fabric then delivers. The
// packets cycle through 1024 installed messages, the store size of a busy
// NI in a multi-tenant mix, so this is the NI-store layer's per-packet
// cost.
void BM_FpfsForward(benchmark::State& state) {
  struct NullSink final : net::DeliverySink {
    void on_packet_delivered(const net::Packet&) override {}
  };
  const topo::Topology topology{topo::Graph{1, {}},
                                std::vector<topo::SwitchId>(4, 0), "star"};
  const routing::UpDownRouter router{topology.switches()};
  const routing::RouteTable routes{topology, router};
  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology, routes, {}};
  NullSink leaves;
  network.bind_sink(2, &leaves);
  network.bind_sink(3, &leaves);
  netif::FpfsNi ni{simctx, network, netif::SystemParams{}, 1};
  constexpr std::int64_t kMessages = 1024;
  constexpr std::int32_t kPackets = 64;
  const netif::ForwardingEntry entry{{2, 3}, kPackets, true};
  for (net::MessageId m = 1; m <= kMessages; ++m) ni.install(m, entry);
  net::Packet packet;
  packet.packet_count = kPackets;
  packet.sender = 0;
  packet.dest = 1;
  std::int64_t k = 0;
  for (auto _ : state) {
    packet.message = static_cast<net::MessageId>(1 + k % kMessages);
    packet.packet_index = static_cast<std::int32_t>(k / kMessages % kPackets);
    // A message whose packets all arrived restarts its receive count.
    if (packet.packet_index == 0 && k >= kMessages) {
      ni.install(packet.message, entry);
    }
    ++k;
    ni.deliver(packet);
    simctx.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FpfsForward);

// A whole multi-tenant mix on the 64-host irregular rig at bench_traffic's
// constrained bandwidth and paced operating point, at a fixed offered
// load: wall time per op should stay flat as the mix grows 100x.
void BM_TrafficRun(benchmark::State& state) {
  const auto ops = static_cast<std::int32_t>(state.range(0));
  sim::Rng rng{1997};
  const auto fabric = core::Fabric::irregular(topo::IrregularConfig{}, rng);
  traffic::WorkloadConfig mix;
  mix.num_ops = ops;
  mix.ops_per_ms = 40.0;
  const traffic::Workload workload =
      traffic::generate_workload(fabric.num_hosts(), fabric.chain(), mix);
  traffic::TrafficConfig cfg;
  cfg.network.bandwidth_bytes_per_us = 16.0;
  cfg.scheduler.policy = traffic::Policy::kPaced;
  cfg.scheduler.overlap_tolerance_x1000 = 500;
  cfg.scheduler.max_defer_ticks = 2;
  cfg.scheduler.tick = sim::Time::us(5.0);
  const traffic::TrafficEngine engine{fabric.topology(), fabric.routes(),
                                      cfg};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(workload));
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_TrafficRun)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
