#include "network/wormhole_network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace nimcast::net {

WormholeNetwork::WormholeNetwork(sim::Simulator& simctx,
                                 const topo::Topology& topology,
                                 const routing::RouteTable& routes,
                                 NetworkConfig config, sim::Trace* trace)
    : sim_{simctx},
      topology_{topology},
      routes_{&routes},
      config_{std::move(config)},
      trace_{trace} {
  if (config_.loss_rate < 0.0 || config_.loss_rate >= 1.0) {
    throw std::invalid_argument(
        "WormholeNetwork: loss_rate must be in [0, 1)");
  }
  // Switch channels come first (expanded by the routes' virtual-channel
  // multiplicity), then per-host injection and ejection channels.
  const auto num_channels = static_cast<std::size_t>(
      2 * topology_.switches().num_edges() * routes_->virtual_channels() +
      2 * topology_.num_hosts());
  channel_busy_.assign(num_channels, 0);
  wait_head_.assign(num_channels, nullptr);
  wait_tail_.assign(num_channels, nullptr);
  sinks_.assign(static_cast<std::size_t>(topology_.num_hosts()), nullptr);
  // Per-channel congestion telemetry (block ns + acquisition counts),
  // bumped at the two acquisition sites below.
  chan_block_ns_.assign(num_channels, 0);
  chan_acq_.assign(num_channels, 0);
  for (const FaultEvent& ev : config_.faults.events()) {
    const auto bound = ev.kind == FaultKind::kSwitchDown
                           ? topology_.num_switches()
                       : ev.kind == FaultKind::kHostDown
                           ? topology_.num_hosts()
                           : topology_.switches().num_edges();
    if (ev.id < 0 || ev.id >= bound) {
      throw std::invalid_argument("WormholeNetwork: fault id out of range");
    }
    sim_.schedule_at(ev.at, [this, ev] { apply_fault(ev); });
  }
}

void WormholeNetwork::bind_sink(topo::HostId host, DeliverySink* sink) {
  if (host < 0 || host >= topology_.num_hosts()) {
    throw std::invalid_argument(
        "WormholeNetwork::bind_sink: host out of range");
  }
  sinks_[static_cast<std::size_t>(host)] = sink;
}

void WormholeNetwork::rebind_routes(const routing::RouteTable& routes) {
  if (routes.num_hosts() != routes_->num_hosts() ||
      routes.virtual_channels() != routes_->virtual_channels()) {
    throw std::invalid_argument(
        "WormholeNetwork::rebind_routes: table shape mismatch");
  }
  routes_ = &routes;
}

void WormholeNetwork::bind_route_class(std::int32_t cls,
                                       const routing::RouteTable& routes) {
  if (cls < 1) {
    throw std::invalid_argument(
        "WormholeNetwork::bind_route_class: class must be >= 1");
  }
  if (routes.num_hosts() != routes_->num_hosts() ||
      routes.virtual_channels() != routes_->virtual_channels()) {
    throw std::invalid_argument(
        "WormholeNetwork::bind_route_class: table shape mismatch");
  }
  const auto ix = static_cast<std::size_t>(cls - 1);
  if (class_routes_.size() <= ix) class_routes_.resize(ix + 1, nullptr);
  class_routes_[ix] = &routes;
}

const routing::RouteTable& WormholeNetwork::class_table(
    std::int32_t cls) const {
  if (cls < 1 || static_cast<std::size_t>(cls) > class_routes_.size()) {
    return *routes_;
  }
  const routing::RouteTable* t =
      class_routes_[static_cast<std::size_t>(cls - 1)];
  return t != nullptr ? *t : *routes_;
}

bool WormholeNetwork::host_alive(topo::HostId h) const {
  if (!dead_host_.empty() && dead_host_[static_cast<std::size_t>(h)]) {
    return false;
  }
  return mask_.switch_alive(topology_.switch_of(h));
}

bool WormholeNetwork::reachable(topo::HostId src, topo::HostId dst) const {
  return host_alive(src) && host_alive(dst) && routes_->reachable(src, dst);
}

std::int32_t WormholeNetwork::injection_channel(topo::HostId h) const {
  return 2 * topology_.switches().num_edges() * routes_->virtual_channels() +
         h;
}

std::int32_t WormholeNetwork::ejection_channel(topo::HostId h) const {
  return 2 * topology_.switches().num_edges() * routes_->virtual_channels() +
         topology_.num_hosts() + h;
}

void WormholeNetwork::build_path(topo::HostId src, topo::HostId dst,
                                 std::int32_t cls,
                                 std::vector<std::int32_t>& out) const {
  out.push_back(injection_channel(src));
  routing::append_route_channels(topology_.switches(),
                                 class_table(cls).path(src, dst),
                                 routes_->virtual_channels(), out);
  out.push_back(ejection_channel(dst));
}

sim::Time WormholeNetwork::uncontended_latency(std::size_t hops) const {
  // One t_hop per acquired channel (injection + hops + ejection gets the
  // header to the far side of each), then the payload drains.
  const auto total_channels = static_cast<sim::Time::rep>(hops) + 2;
  return config_.t_hop * total_channels + config_.serialization_time();
}

WormholeNetwork::Worm* WormholeNetwork::alloc_worm() {
  Worm* w;
  if (free_head_ != nullptr) {
    w = free_head_;
    free_head_ = w->next_waiter;
    --free_count_;
  } else {
    arena_.emplace_back();
    w = &arena_.back();
  }
  // Recycled vectors keep their capacity — the steady state allocates
  // nothing per packet.
  w->path.clear();
  w->acquired_at.clear();
  w->pending_releases.clear();
  w->next = 0;
  w->pending = sim::EventId{};
  w->next_waiter = nullptr;
  w->released_below = 0;
  w->parked = false;
  w->draining = false;
  w->in_use = true;
  return w;
}

void WormholeNetwork::free_worm(Worm* w) {
  assert(w->in_use);
  w->in_use = false;
  w->next_waiter = free_head_;
  free_head_ = w;
  ++free_count_;
}

void WormholeNetwork::push_waiter(std::int32_t chan, Worm* w) {
  const auto c = static_cast<std::size_t>(chan);
  w->next_waiter = nullptr;
  if (wait_tail_[c] == nullptr) {
    wait_head_[c] = w;
  } else {
    wait_tail_[c]->next_waiter = w;
  }
  wait_tail_[c] = w;
}

WormholeNetwork::Worm* WormholeNetwork::pop_waiter(std::int32_t chan) {
  const auto c = static_cast<std::size_t>(chan);
  Worm* w = wait_head_[c];
  if (w == nullptr) return nullptr;
  wait_head_[c] = w->next_waiter;
  if (wait_head_[c] == nullptr) wait_tail_[c] = nullptr;
  w->next_waiter = nullptr;
  return w;
}

void WormholeNetwork::erase_waiter(std::int32_t chan, Worm* w) {
  // Mid-queue removal for the fault path only; the list walk is fine
  // there — truncation is rare and queues are short.
  const auto c = static_cast<std::size_t>(chan);
  Worm* prev = nullptr;
  Worm* cur = wait_head_[c];
  while (cur != nullptr && cur != w) {
    prev = cur;
    cur = cur->next_waiter;
  }
  assert(cur == w);
  Worm* after = w->next_waiter;
  if (prev == nullptr) {
    wait_head_[c] = after;
  } else {
    prev->next_waiter = after;
  }
  if (wait_tail_[c] == w) wait_tail_[c] = prev;
  w->next_waiter = nullptr;
}

void WormholeNetwork::send(const Packet& packet) {
  if (packet.sender < 0 || packet.sender >= topology_.num_hosts() ||
      packet.dest < 0 || packet.dest >= topology_.num_hosts()) {
    throw std::invalid_argument("WormholeNetwork::send: host out of range");
  }
  if (packet.sender == packet.dest) {
    throw std::invalid_argument("WormholeNetwork::send: self-send");
  }
  if (sinks_[static_cast<std::size_t>(packet.dest)] == nullptr) {
    throw std::logic_error("WormholeNetwork::send: no sink bound for dest");
  }
  if (!host_alive(packet.sender) || !host_alive(packet.dest) ||
      !class_table(packet.route_class)
           .reachable(packet.sender, packet.dest)) {
    // The fabric segment between the endpoints is dead: a CRC-style
    // silent drop at injection. Reliable NIs see it as loss and retry or
    // give up against their reachability check.
    ++dropped_;
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kPacket,
                     packet.sender,
                     "DROP-unreachable msg=" + std::to_string(packet.message) +
                         " pkt=" + std::to_string(packet.packet_index) +
                         " -> host " + std::to_string(packet.dest));
    }
    return;
  }
  Worm* w = alloc_worm();
  w->packet = packet;
  build_path(packet.sender, packet.dest, packet.route_class, w->path);
  ++in_flight_;
  if (in_flight_ > peak_in_flight_) peak_in_flight_ = in_flight_;
  if (trace_) {
    trace_->record(sim_.now(), sim::TraceCategory::kPacket,
                   packet.sender,
                   "inject msg=" + std::to_string(packet.message) + " pkt=" +
                       std::to_string(packet.packet_index) + " -> host " +
                       std::to_string(packet.dest));
  }
  progress(w);
}

void WormholeNetwork::progress(Worm* w) {
  assert(w->in_use && w->next < w->path.size());
  const std::int32_t chan = w->path[w->next];
  if (channel_dead(chan)) {
    // The header ran into a link/switch that died after injection.
    kill_worm(w);
    return;
  }
  if (channel_busy_[static_cast<std::size_t>(chan)]) {
    w->block_start = sim_.now();
    w->parked = true;
    push_waiter(chan, w);
    if (trace_) {
      trace_->record(sim_.now(), sim::TraceCategory::kChannel, chan,
                     "block pkt=" + std::to_string(w->packet.packet_index) +
                         " dest=" + std::to_string(w->packet.dest));
    }
    return;
  }
  channel_busy_[static_cast<std::size_t>(chan)] = 1;
  acquire_next(w);
}

void WormholeNetwork::acquire_next(Worm* w) {
  ++chan_acq_[static_cast<std::size_t>(w->path[w->next])];
  if (config_.release_model == ReleaseModel::kPipelined) {
    w->acquired_at.push_back(sim_.now());
  }
  ++w->next;
  if (w->next == w->path.size()) {
    schedule_drain(w);
  } else {
    schedule_hop(w);
  }
}

void WormholeNetwork::hop_event(void* net, std::uint64_t worm) {
  static_cast<WormholeNetwork*>(net)->progress(reinterpret_cast<Worm*>(worm));
}

void WormholeNetwork::complete_event(void* net, std::uint64_t worm) {
  static_cast<WormholeNetwork*>(net)->complete(reinterpret_cast<Worm*>(worm));
}

void WormholeNetwork::schedule_hop(Worm* w) {
  w->pending = sim_.schedule_at(sim_.now() + config_.t_hop, &hop_event, this,
                                reinterpret_cast<std::uintptr_t>(w),
                                sim::EventKind::kNetwork);
}

void WormholeNetwork::schedule_drain(Worm* w) {
  w->draining = true;
  // Header crosses the final (ejection) channel, then the payload drains
  // into the destination NI.
  const sim::Time delivery =
      sim_.now() + config_.t_hop + config_.serialization_time();
  if (config_.release_model == ReleaseModel::kPipelined) {
    // The tail flit trails the header by one hop per remaining channel;
    // upstream channels free as it passes (never before the head of the
    // packet has fully left them, and never after delivery). Release
    // times are non-decreasing in i (consecutive acquisitions and tail
    // positions are both >= t_hop apart) and scheduled in index order,
    // so the FIFO tie-break makes released_below advance monotonically.
    const std::size_t len = w->path.size();
    w->pending_releases.reserve(len);
    for (std::size_t i = 0; i + 1 < len; ++i) {
      const sim::Time earliest = w->acquired_at[i] + config_.t_hop +
                                 config_.serialization_time();
      const sim::Time tail_passes =
          delivery - config_.t_hop * static_cast<sim::Time::rep>(len - 1 - i);
      const sim::Time at = std::max(earliest, tail_passes);
      const std::int32_t chan = w->path[i];
      const auto eid = sim_.schedule_at(at, [this, w, i, chan] {
        w->released_below = i + 1;
        release_channel(chan);
      });
      w->pending_releases.push_back(PendingRelease{chan, eid});
    }
  }
  w->pending = sim_.schedule_at(delivery, &complete_event, this,
                                reinterpret_cast<std::uintptr_t>(w),
                                sim::EventKind::kNetwork);
}

void WormholeNetwork::release_channel(std::int32_t chan) {
  const auto c = static_cast<std::size_t>(chan);
  assert(channel_busy_[c]);
  if (channel_dead(chan)) {
    // A condemned channel never hands off; any worm still waiting on it
    // is truncated by the same fault sweep that condemned it.
    channel_busy_[c] = 0;
    return;
  }
  Worm* next = pop_waiter(chan);
  if (next == nullptr) {
    channel_busy_[c] = 0;
    return;
  }
  // Immediate FIFO hand-off: the channel never goes idle, the head waiter
  // owns it as of now. Keeps arbitration strictly first-come-first-served.
  next->parked = false;
  total_block_ += sim_.now() - next->block_start;
  chan_block_ns_[c] += (sim_.now() - next->block_start).count_ns();
  assert(next->path[next->next] == chan);
  acquire_next(next);
}

bool WormholeNetwork::packet_lost(const Packet& p) const {
  if (config_.loss_rate <= 0.0) return false;
  // Chain the identity components through the SplitMix64 finalizer; the
  // attempt counter makes each retransmission (and its ACK) an
  // independent draw.
  std::uint64_t h = sim::hash_mix(config_.loss_seed);
  h = sim::hash_mix(h ^ static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(p.message)));
  h = sim::hash_mix(
      h ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                p.packet_index))
            << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.attempt))));
  h = sim::hash_mix(
      h ^
      ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.sender))
        << 32) |
       static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.dest))));
  return sim::hash_unit(h) < config_.loss_rate;
}

void WormholeNetwork::complete(Worm* w) {
  if (config_.release_model == ReleaseModel::kAtDelivery) {
    for (std::int32_t chan : w->path) release_channel(chan);
  } else {
    // Pipelined mode already released the upstream channels; only the
    // final (ejection) channel is still held.
    release_channel(w->path.back());
  }
  w->pending_releases.clear();
  --in_flight_;
  const bool lost = packet_lost(w->packet);
  if (lost) {
    ++dropped_;
  } else {
    ++delivered_;
  }
  if (trace_) {
    trace_->record(sim_.now(), sim::TraceCategory::kPacket,
                   w->packet.dest,
                   std::string(lost ? "DROP" : "deliver") + " msg=" +
                       std::to_string(w->packet.message) + " pkt=" +
                       std::to_string(w->packet.packet_index));
  }
  // Free the slot before invoking delivery: a reentrant send() from the
  // receiver may recycle it.
  const Packet packet = w->packet;
  free_worm(w);
  if (lost) return;
  sinks_[static_cast<std::size_t>(packet.dest)]->on_packet_delivered(packet);
}

void WormholeNetwork::apply_fault(const FaultEvent& ev) {
  ++faults_applied_;
  if (mask_.dead_link.empty()) {
    mask_.dead_link.assign(
        static_cast<std::size_t>(topology_.switches().num_edges()), false);
    mask_.dead_switch.assign(static_cast<std::size_t>(topology_.num_switches()),
                             false);
  }
  const auto id = static_cast<std::size_t>(ev.id);
  switch (ev.kind) {
    case FaultKind::kLinkDown: mask_.dead_link[id] = true; break;
    case FaultKind::kLinkUp: mask_.dead_link[id] = false; break;
    case FaultKind::kSwitchDown: mask_.dead_switch[id] = true; break;
    case FaultKind::kHostDown:
      if (dead_host_.empty()) {
        dead_host_.assign(static_cast<std::size_t>(topology_.num_hosts()),
                          false);
      }
      dead_host_[id] = true;
      break;
  }
  refresh_dead_channels();
  if (trace_) {
    trace_->record(sim_.now(), sim::TraceCategory::kChannel, ev.id,
                   std::string("FAULT ") + to_string(ev.kind) + " id=" +
                       std::to_string(ev.id));
  }
  if (ev.kind != FaultKind::kLinkUp) {
    // Collect the victims first: kill_worm may hand surviving channels to
    // other worms, so the sweep reads current state one victim at a time.
    std::vector<Worm*> victims;
    for (Worm& w : arena_) {
      if (!w.in_use) continue;
      // Channels the worm currently pins: everything acquired but not
      // yet released, plus (for a parked worm) the dead channel it waits
      // on — that wait can never be satisfied once the channel is
      // condemned.
      const std::size_t held_end =
          w.draining ? w.path.size() : w.next + (w.parked ? 1u : 0u);
      for (std::size_t i = w.released_below; i < held_end; ++i) {
        if (channel_dead(w.path[i])) {
          victims.push_back(&w);
          break;
        }
      }
    }
    for (Worm* w : victims) kill_worm(w);
  }
  if (on_fault) on_fault(ev);
}

void WormholeNetwork::refresh_dead_channels() {
  channel_dead_.assign(channel_busy_.size(), false);
  const auto& g = topology_.switches();
  const auto vcs = routes_->virtual_channels();
  for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    const bool dead = !mask_.link_alive(e) || !mask_.switch_alive(edge.a) ||
                      !mask_.switch_alive(edge.b);
    if (!dead) continue;
    for (std::int32_t dir = 0; dir < 2; ++dir) {
      const std::int32_t base = (2 * e + dir) * vcs;
      for (std::int32_t v = 0; v < vcs; ++v) {
        channel_dead_[static_cast<std::size_t>(base + v)] = true;
      }
    }
  }
  for (topo::HostId h = 0; h < topology_.num_hosts(); ++h) {
    const bool host_dead =
        !dead_host_.empty() && dead_host_[static_cast<std::size_t>(h)];
    if (!host_dead && mask_.switch_alive(topology_.switch_of(h))) continue;
    channel_dead_[static_cast<std::size_t>(injection_channel(h))] = true;
    channel_dead_[static_cast<std::size_t>(ejection_channel(h))] = true;
  }
}

void WormholeNetwork::kill_worm(Worm* w) {
  if (w->parked) {
    // Un-park: the worm leaves the waiter FIFO it sits in.
    erase_waiter(w->path[w->next], w);
    w->parked = false;
  } else {
    // Cancel the in-flight hop / drain-completion event. cancel() is a
    // no-op (false) if it already fired, in which case the worm's state
    // was advanced by the callback and reflects reality.
    sim_.cancel(w->pending);
  }
  // Pipelined staggered releases that have not fired yet still hold
  // their channel: cancel each and release it here. Fired ones already
  // advanced released_below.
  for (const auto& pr : w->pending_releases) {
    if (sim_.cancel(pr.id)) release_channel(pr.chan);
  }
  w->pending_releases.clear();
  if (w->draining) {
    if (config_.release_model == ReleaseModel::kAtDelivery) {
      for (std::int32_t chan : w->path) release_channel(chan);
    } else {
      // Pipelined: upstream channels were handled above (fired or
      // canceled); only the final (ejection) channel remains held.
      release_channel(w->path.back());
    }
  } else {
    for (std::size_t i = w->released_below; i < w->next; ++i) {
      release_channel(w->path[i]);
    }
  }
  --in_flight_;
  ++dropped_;
  ++killed_;
  if (trace_) {
    trace_->record(sim_.now(), sim::TraceCategory::kPacket,
                   w->packet.dest,
                   "KILL msg=" + std::to_string(w->packet.message) +
                       " pkt=" + std::to_string(w->packet.packet_index) +
                       " from=" + std::to_string(w->packet.sender));
  }
  free_worm(w);
}

}  // namespace nimcast::net
