#include "mcast/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/kbinomial.hpp"
#include "netif/conventional_ni.hpp"
#include "netif/reliable_ni.hpp"
#include "netif/smart_ni.hpp"
#include "routing/repair.hpp"

namespace nimcast::mcast {

namespace {
/// Delay before repair round r starts: kRepairBackoff * 2^(r-1).
constexpr sim::Time kRepairBackoff = sim::Time::us(30.0);
}  // namespace

Session::Session(const topo::Topology& topology,
                 const routing::RouteTable& routes,
                 const netif::SystemParams& params,
                 const net::NetworkConfig& network, const RepairPolicy& repair,
                 const char* owner, sim::Trace* trace)
    : topology_{topology},
      routes_{routes},
      params_{params},
      repair_{repair},
      owner_{owner},
      trace_{trace},
      faulty_{!network.faults.empty()},
      num_hosts_{static_cast<std::size_t>(topology.num_hosts())},
      network_{sim_, topology, routes, network, trace},
      hosts_(num_hosts_),
      nis_(num_hosts_) {
  if (!faulty_ || !repair_.reroute) return;
  // The hook fires on *every* fault event — failures AND kLinkUp
  // recoveries — each with a fresh epoch, so a recovered link rejoins the
  // routes immediately. rebuild_updown emits a single-VC table, which
  // would renumber a multi-VC fabric's channels under its feet, hence the
  // loud refusal. Route classes bound by streaming rotation stay stale on
  // purpose: their worms die at dead channels and repair redelivers.
  if (routes_.virtual_channels() != 1) {
    throw std::invalid_argument(
        std::string{owner_} +
        ": fault-time reroute cannot rebuild a multi-VC route table "
        "(dateline torus); set RepairPolicy::reroute = false to run "
        "degraded on the original routes");
  }
  network_.on_fault = [this](const net::FaultEvent& ev) {
    // A host death leaves the switch graph (and thus every route)
    // unchanged — no rebuild needed.
    if (ev.kind == net::FaultKind::kHostDown) return;
    auto table = routing::rebuild_updown(
        topology_, network_.fault_state(),
        static_cast<std::int32_t>(repaired_tables_.size()) + 1);
    network_.rebind_routes(*table);
    repaired_tables_.push_back(std::move(table));
  };
}

void Session::add_host(topo::HostId h) {
  auto& host = hosts_[static_cast<std::size_t>(h)];
  if (!host) host = std::make_unique<netif::Host>(sim_, h, params_);
}

void Session::add_ni(topo::HostId h, NiStyle style,
                     const netif::ReliabilityParams& reliability) {
  add_host(h);
  auto& ni = nis_[static_cast<std::size_t>(h)];
  if (ni) return;
  switch (style) {
    case NiStyle::kConventional:
      ni = std::make_unique<netif::ConventionalNi>(sim_, network_, params_, h,
                                                   trace_);
      break;
    case NiStyle::kSmartFcfs:
      ni = std::make_unique<netif::FcfsNi>(sim_, network_, params_, h, trace_);
      break;
    case NiStyle::kSmartFpfs:
      ni = std::make_unique<netif::FpfsNi>(sim_, network_, params_, h, trace_);
      break;
    case NiStyle::kReliableFpfs:
      ni = std::make_unique<netif::ReliableFpfsNi>(sim_, network_, params_,
                                                   reliability, h, trace_);
      break;
  }
}

net::MessageId Session::new_message(std::size_t key) {
  message_key_.push_back(key);
  return static_cast<net::MessageId>(message_key_.size());
}

void Session::install_tree(net::MessageId message, const core::HostTree& tree,
                           std::int32_t packets, std::int32_t route_class) {
  for (topo::HostId h : tree.nodes) {
    netif::ForwardingEntry entry;
    entry.children = tree.children.at(h);
    entry.packet_count = packets;
    entry.is_destination = (h != tree.root);
    entry.route_class = route_class;
    ni(h).install(message, std::move(entry));
  }
}

void Session::install_unicast(net::MessageId message, topo::HostId src,
                              topo::HostId dst, std::int32_t packets) {
  ni(src).install(message, netif::ForwardingEntry{{dst}, packets, false, 0});
  ni(dst).install(message, netif::ForwardingEntry{{}, packets, true, 0});
}

void Session::start(topo::HostId root, net::MessageId message) {
  ni(root).start_from_host(message, host(root));
}

void Session::start_at(sim::Time when, topo::HostId root,
                       net::MessageId message) {
  sim_.schedule_at(when, [this, root, message] { start(root, message); });
}

void Session::drain() {
  sim_.run();
  if (network_.in_flight() != 0) {
    throw std::runtime_error(std::string{owner_} +
                             ": network deadlock (worms still in flight)");
  }
}

void Session::track_completions(std::size_t keys,
                                std::function<void(std::size_t)> on_first) {
  arrived_.assign(keys * num_hosts_, 0);
  on_first_ = std::move(on_first);
  for (auto& slot : nis_) {
    if (!slot) continue;
    slot->on_message_at_ni = [this](topo::HostId dest, net::MessageId msg) {
      const std::size_t key = message_key_[static_cast<std::size_t>(msg - 1)];
      auto& seen = arrived_[key * num_hosts_ + static_cast<std::size_t>(dest)];
      if (seen != 0) return;
      seen = 1;
      if (on_first_) on_first_(key);
      host(dest).software_receive([this, dest, msg, key] {
        host_done_.push_back(Completion{key, dest, sim_.now()});
        ni(dest).after_host_receive(msg, host(dest));
      });
    };
  }
}

std::vector<Session::Completion> Session::host_completions() const {
  std::vector<Completion> out = host_done_;
  std::sort(out.begin(), out.end(),
            [](const Completion& a, const Completion& b) {
              return std::tie(a.at, a.host, a.key) <
                     std::tie(b.at, b.host, b.key);
            });
  return out;
}

void Session::repair_rounds(
    const std::function<bool(sim::Time start_at)>& round) {
  for (std::int32_t r = 1; r <= repair_.max_attempts; ++r) {
    const sim::Time wait = kRepairBackoff * (sim::Time::rep{1} << (r - 1));
    if (!round(sim_.now() + wait)) return;
    drain();
  }
}

topo::HostId Session::elect(
    const std::vector<topo::HostId>& order, topo::HostId excluded,
    const std::function<bool(topo::HostId)>& holds) const {
  for (topo::HostId h : order) {
    if (h != excluded && network_.host_alive(h) && holds(h)) return h;
  }
  return topo::kInvalidId;
}

std::optional<core::HostTree> Session::repair_tree(
    topo::HostId initiator, const std::vector<topo::HostId>& order,
    const std::function<bool(topo::HostId)>& needs,
    std::int32_t fanout) const {
  // Hosts that already got what they came for and hosts the surviving
  // fabric cannot reach are excised; the survivors keep their relative
  // contention-free order, so the repair tree inherits as much of the
  // original link-disjointness as the fault left intact.
  core::Chain chain{initiator};
  for (topo::HostId h : order) {
    if (h == initiator || !needs(h)) continue;
    if (!network_.reachable(initiator, h)) continue;
    chain.push_back(h);
  }
  if (chain.size() < 2) return std::nullopt;
  const auto n = static_cast<std::int32_t>(chain.size());
  const std::int32_t k = std::clamp(fanout, 1, std::max(n - 1, 1));
  return core::HostTree::bind(core::make_kbinomial(n, k), chain);
}

std::vector<DestinationStatus> Session::verdicts(
    const std::vector<topo::HostId>& nodes, topo::HostId root,
    topo::HostId reference,
    std::vector<std::pair<topo::HostId, sim::Time>> done) const {
  std::sort(done.begin(), done.end());
  std::vector<DestinationStatus> out;
  for (topo::HostId h : nodes) {
    if (h == root) continue;
    DestinationStatus st;
    st.host = h;
    st.reachable = network_.reachable(reference, h);
    const auto it = std::lower_bound(
        done.begin(), done.end(), std::make_pair(h, sim::Time::zero()));
    if (it != done.end() && it->first == h) {
      st.delivered = true;
      st.completed_at = it->second;
    }
    out.push_back(st);
  }
  return out;
}

Outcome outcome_of(const std::vector<DestinationStatus>& destinations) {
  const auto delivered = static_cast<std::size_t>(
      std::count_if(destinations.begin(), destinations.end(),
                    [](const DestinationStatus& d) { return d.delivered; }));
  if (delivered == destinations.size()) return Outcome::kComplete;
  return delivered == 0 ? Outcome::kFailed : Outcome::kPartial;
}

}  // namespace nimcast::mcast
