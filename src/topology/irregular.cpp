#include "topology/irregular.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace nimcast::topo {
namespace {

std::vector<SwitchId> round_robin_hosts(const IrregularConfig& cfg) {
  std::vector<SwitchId> host_switch(static_cast<std::size_t>(cfg.num_hosts));
  for (std::int32_t h = 0; h < cfg.num_hosts; ++h) {
    host_switch[static_cast<std::size_t>(h)] = h % cfg.num_switches;
  }
  return host_switch;
}

/// Minimum inter-switch links per switch of a multi-switch network.
constexpr std::int32_t kMinSwitchLinks = 2;

/// One attempt at a configuration-model pairing of the spare ports of
/// `n` switches: shuffles a copy of `all_stubs` into `stubs` and pairs
/// neighbours into `out`. Returns false on a self-loop or a parallel
/// link, and the caller retries. `seen` is an n² bitmap that is all
/// clear on entry and on return, so an attempt allocates nothing once
/// the buffers have grown.
bool try_draw(std::size_t n, const std::vector<SwitchId>& all_stubs,
              sim::Rng& rng, std::vector<SwitchId>& stubs,
              std::vector<std::uint8_t>& seen,
              std::vector<Graph::Edge>& out) {
  stubs.assign(all_stubs.begin(), all_stubs.end());
  rng.shuffle(stubs);
  out.clear();
  bool simple = true;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    SwitchId a = stubs[i];
    SwitchId b = stubs[i + 1];
    if (a == b) {  // self-loop; reject the whole draw
      simple = false;
      break;
    }
    if (a > b) std::swap(a, b);
    auto& bit =
        seen[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)];
    if (bit != 0) {  // parallel link
      simple = false;
      break;
    }
    bit = 1;
    out.push_back(Graph::Edge{a, b});
  }
  for (const auto& e : out) {
    seen[static_cast<std::size_t>(e.a) * n + static_cast<std::size_t>(e.b)] = 0;
  }
  return simple;
}

}  // namespace

Topology make_irregular(const IrregularConfig& cfg, sim::Rng& rng) {
  if (cfg.num_switches < 1 || cfg.num_hosts < 1 || cfg.ports_per_switch < 1) {
    throw std::invalid_argument("make_irregular: non-positive sizes");
  }
  auto host_switch = round_robin_hosts(cfg);

  std::vector<std::int32_t> spare(static_cast<std::size_t>(cfg.num_switches),
                                  cfg.ports_per_switch);
  for (SwitchId s : host_switch) {
    if (--spare[static_cast<std::size_t>(s)] < 0) {
      throw std::invalid_argument(
          "make_irregular: switch out of ports for hosts");
    }
  }
  if (cfg.num_switches > 1) {
    for (std::int32_t sp : spare) {
      if (sp < kMinSwitchLinks) {
        throw std::invalid_argument(
            "make_irregular: a switch has fewer spare ports (" +
            std::to_string(sp) + ") than the " +
            std::to_string(kMinSwitchLinks) + " inter-switch links required");
      }
    }
  }

  std::vector<SwitchId> all_stubs;
  for (SwitchId s = 0; s < cfg.num_switches; ++s) {
    for (std::int32_t p = 0; p < spare[static_cast<std::size_t>(s)]; ++p) {
      all_stubs.push_back(s);
    }
  }
  if (all_stubs.size() % 2 != 0) all_stubs.pop_back();

  constexpr int kMaxAttempts = 100'000;
  std::vector<SwitchId> stubs;
  const auto n = static_cast<std::size_t>(cfg.num_switches);
  std::vector<std::uint8_t> seen(n * n);
  std::vector<Graph::Edge> edges;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (!try_draw(n, all_stubs, rng, stubs, seen, edges)) continue;
    Graph g{cfg.num_switches, edges};
    if (!g.connected()) continue;
    return Topology{std::move(g), std::move(host_switch),
                    "irregular(" + std::to_string(cfg.num_switches) + "sw," +
                        std::to_string(cfg.num_hosts) + "h," +
                        std::to_string(cfg.ports_per_switch) + "p)"};
  }
  throw std::runtime_error(
      "make_irregular: no simple connected wiring found; "
      "config likely infeasible");
}

}  // namespace nimcast::topo
