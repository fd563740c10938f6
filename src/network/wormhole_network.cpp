#include "network/wormhole_network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace nimcast::net {

namespace {
/// Global-event tie-break class for hop replays: after fault events
/// (which use hi = 0) at the same instant.
constexpr std::uint64_t kReplayHi = 1;
}  // namespace

WormholeNetwork::WormholeNetwork(sim::Simulator& simctx,
                                 const topo::Topology& topology,
                                 const routing::RouteTable& routes,
                                 NetworkConfig config, sim::Trace* trace)
    : serial_sim_{&simctx},
      topology_{topology},
      routes_{&routes},
      config_{std::move(config)},
      trace_{trace} {
  init_channels_and_faults();
}

WormholeNetwork::WormholeNetwork(sim::ShardedSimulator& sharded,
                                 const topo::Topology& topology,
                                 const routing::RouteTable& routes,
                                 NetworkConfig config,
                                 std::vector<std::int32_t> switch_shard)
    : sharded_{&sharded},
      topology_{topology},
      routes_{&routes},
      config_{std::move(config)},
      trace_{nullptr} {
  if (switch_shard.size() !=
      static_cast<std::size_t>(topology.num_switches())) {
    throw std::invalid_argument(
        "WormholeNetwork: switch_shard size != num_switches");
  }
  for (std::int32_t s : switch_shard) {
    if (s < 0 || s >= sharded.num_shards()) {
      throw std::invalid_argument(
          "WormholeNetwork: switch_shard entry out of range");
    }
  }
  if (sharded.lookahead() > config_.t_hop) {
    throw std::invalid_argument(
        "WormholeNetwork: driver lookahead exceeds t_hop — cross-shard "
        "hops would violate the conservative window");
  }
  // Lossy configs shard freely: a packet's fate is a pure hash of its
  // identity (see packet_lost()), not an ordered RNG draw. Pipelined
  // release shards too, but its staggered remote releases fire
  // serialization_time - (path_len-2)*t_hop after the drain is scheduled;
  // schedule_drain() enforces per worm that this clears the driver
  // lookahead and says which window width would work.
  init_channels_and_faults();
  // Channel ownership: a directed switch channel belongs to the shard of
  // its upstream (sending) switch, so consecutive channels of a route
  // change owner exactly where the route crosses the partition — every
  // cut link is one cross-shard mailbox hop.
  chan_shard_.assign(channel_busy_.size(), 0);
  const auto& g = topology_.switches();
  const std::int32_t vcs = routes_->virtual_channels();
  for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    for (std::int32_t dir = 0; dir < 2; ++dir) {
      const topo::SwitchId from = dir == 0 ? edge.a : edge.b;
      const std::int32_t base = (2 * e + dir) * vcs;
      for (std::int32_t v = 0; v < vcs; ++v) {
        chan_shard_[static_cast<std::size_t>(base + v)] =
            switch_shard[static_cast<std::size_t>(from)];
      }
    }
  }
  for (topo::HostId h = 0; h < topology_.num_hosts(); ++h) {
    const std::int32_t s =
        switch_shard[static_cast<std::size_t>(topology_.switch_of(h))];
    chan_shard_[static_cast<std::size_t>(injection_channel(h))] = s;
    chan_shard_[static_cast<std::size_t>(ejection_channel(h))] = s;
  }
}

void WormholeNetwork::init_channels_and_faults() {
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
  // Channel -> driving switch, and the per-switch acquisition counters
  // behind switch_load(): the measured weights load-aware partitioning
  // feeds back into topo::partition_switches. A switch's counter is only
  // ever touched from the shard that owns its channels, so the counts
  // are race-free and thread-count-independent.
  chan_switch_.assign(num_channels, 0);
  {
    const auto& g = topology_.switches();
    const std::int32_t vcs = routes_->virtual_channels();
    for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      for (std::int32_t dir = 0; dir < 2; ++dir) {
        const topo::SwitchId from = dir == 0 ? edge.a : edge.b;
        const std::int32_t base = (2 * e + dir) * vcs;
        for (std::int32_t v = 0; v < vcs; ++v) {
          chan_switch_[static_cast<std::size_t>(base + v)] = from;
        }
      }
    }
    for (topo::HostId h = 0; h < topology_.num_hosts(); ++h) {
      const topo::SwitchId sw = topology_.switch_of(h);
      chan_switch_[static_cast<std::size_t>(injection_channel(h))] = sw;
      chan_switch_[static_cast<std::size_t>(ejection_channel(h))] = sw;
    }
  }
  switch_load_.assign(static_cast<std::size_t>(topology_.num_switches()), 0);
  // Per-channel congestion telemetry (block ns + acquisition counts):
  // bumped at the two acquisition sites below, read by the adaptive
  // streaming selector at barrier-consistent snapshots.
  chan_block_ns_.assign(num_channels, 0);
  chan_acq_.assign(num_channels, 0);
  const int shards = is_sharded() ? sharded_->num_shards() : 1;
  shard_state_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shard_state_.push_back(std::make_unique<ShardState>());
  }
  for (const FaultEvent& ev : config_.faults.events()) {
    const auto bound = ev.kind == FaultKind::kSwitchDown
                           ? topology_.num_switches()
                       : ev.kind == FaultKind::kHostDown
                           ? topology_.num_hosts()
                           : topology_.switches().num_edges();
    if (ev.id < 0 || ev.id >= bound) {
      throw std::invalid_argument("WormholeNetwork: fault id out of range");
    }
    if (is_sharded()) {
      // Fault application mutates channel state across every shard, so
      // it runs in the single-threaded barrier phase with all clocks
      // advanced to exactly ev.at — the instant the serial engine runs
      // it (fault events carry the lowest insertion order there too).
      sharded_->schedule_global(ev.at, [this, ev] { apply_fault(ev); });
    } else {
      serial_sim_->schedule_at(ev.at, [this, ev] { apply_fault(ev); });
    }
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

std::int32_t WormholeNetwork::shard_of_host(topo::HostId h) const {
  if (h < 0 || h >= topology_.num_hosts()) {
    throw std::invalid_argument(
        "WormholeNetwork::shard_of_host: host out of range");
  }
  return chan_shard(injection_channel(h));
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

std::int32_t WormholeNetwork::in_flight() const {
  std::int32_t total = 0;
  for (const auto& st : shard_state_) total += st->in_flight;
  return total;
}

std::int64_t WormholeNetwork::packets_delivered() const {
  std::int64_t total = 0;
  for (const auto& st : shard_state_) total += st->delivered;
  return total;
}

std::int64_t WormholeNetwork::packets_dropped() const {
  std::int64_t total = 0;
  for (const auto& st : shard_state_) total += st->dropped;
  return total;
}

std::int64_t WormholeNetwork::packets_killed() const {
  std::int64_t total = 0;
  for (const auto& st : shard_state_) total += st->killed;
  return total;
}

sim::Time WormholeNetwork::total_block_time() const {
  sim::Time total = sim::Time::zero();
  for (const auto& st : shard_state_) total += st->total_block;
  return total;
}

std::size_t WormholeNetwork::worm_pool_slots() const {
  std::size_t total = 0;
  for (const auto& st : shard_state_) total += st->arena.size();
  return total;
}

std::size_t WormholeNetwork::worm_pool_free() const {
  std::size_t total = 0;
  for (const auto& st : shard_state_) total += st->free_count;
  return total;
}

std::int32_t WormholeNetwork::peak_in_flight() const {
  std::int32_t total = 0;
  for (const auto& st : shard_state_) total += st->peak_in_flight;
  return total;
}

WormholeNetwork::Worm* WormholeNetwork::alloc_worm(std::int32_t shard) {
  ShardState& st = state_of(shard);
  Worm* w;
  if (st.free_head != nullptr) {
    w = st.free_head;
    st.free_head = w->next_waiter;
    --st.free_count;
  } else {
    st.arena.emplace_back();
    w = &st.arena.back();
    w->replay_key = (static_cast<std::uint64_t>(shard) << 32) |
                    static_cast<std::uint64_t>(st.arena.size() - 1);
  }
  // Recycled vectors keep their capacity — the steady state allocates
  // nothing per packet.
  w->path.clear();
  w->acquired_at.clear();
  w->pending_releases.clear();
  w->next = 0;
  w->pending = sim::EventId{};
  w->pending_shard = 0;
  w->next_waiter = nullptr;
  w->shard = shard;
  w->released_below = 0;
  w->parked = false;
  w->draining = false;
  w->in_use = true;
  w->doomed = false;
  return w;
}

void WormholeNetwork::free_worm(Worm* w, std::int32_t shard) {
  ShardState& st = state_of(shard);
  assert(w->in_use);
  w->in_use = false;
  ++w->doom_epoch;  // invalidate any replay global still pointing here
  w->next_waiter = st.free_head;
  st.free_head = w;
  ++st.free_count;
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
  const std::int32_t s = chan_shard(injection_channel(packet.sender));
  if (!host_alive(packet.sender) || !host_alive(packet.dest) ||
      !class_table(packet.route_class)
           .reachable(packet.sender, packet.dest)) {
    // The fabric segment between the endpoints is dead: a CRC-style
    // silent drop at injection. Reliable NIs see it as loss and retry or
    // give up against their reachability check.
    ++state_of(s).dropped;
    if (trace_) {
      trace_->record(serial_sim_->now(), sim::TraceCategory::kPacket,
                     packet.sender,
                     "DROP-unreachable msg=" + std::to_string(packet.message) +
                         " pkt=" + std::to_string(packet.packet_index) +
                         " -> host " + std::to_string(packet.dest));
    }
    return;
  }
  Worm* w = alloc_worm(s);
  w->packet = packet;
  build_path(packet.sender, packet.dest, packet.route_class, w->path);
  ShardState& st = state_of(s);
  ++st.in_flight;
  if (st.in_flight > st.peak_in_flight) st.peak_in_flight = st.in_flight;
  if (trace_) {
    trace_->record(serial_sim_->now(), sim::TraceCategory::kPacket,
                   packet.sender,
                   "inject msg=" + std::to_string(packet.message) + " pkt=" +
                       std::to_string(packet.packet_index) + " -> host " +
                       std::to_string(packet.dest));
  }
  progress(w);
}

void WormholeNetwork::progress(Worm* w) {
  assert(w->in_use && w->next < w->path.size());
  // A replay global that reached progress() is resolved either way — the
  // worm acquires/parks (channel recovered) or dies right here.
  w->doomed = false;
  const std::int32_t chan = w->path[w->next];
  const std::int32_t s = chan_shard(chan);
  sim::Simulator& shard_sim = sim_of(s);
  if (channel_dead(chan)) {
    // The header ran into a link/switch that died after injection. In
    // sharded mode this only happens inside the barrier phase (the
    // replay path), where the cross-shard teardown is safe.
    kill_worm(w);
    return;
  }
  if (channel_busy_[static_cast<std::size_t>(chan)]) {
    w->block_start = shard_sim.now();
    w->parked = true;
    push_waiter(chan, w);
    if (trace_) {
      trace_->record(shard_sim.now(), sim::TraceCategory::kChannel, chan,
                     "block pkt=" + std::to_string(w->packet.packet_index) +
                         " dest=" + std::to_string(w->packet.dest));
    }
    return;
  }
  channel_busy_[static_cast<std::size_t>(chan)] = 1;
  ++switch_load_[static_cast<std::size_t>(
      chan_switch_[static_cast<std::size_t>(chan)])];
  ++chan_acq_[static_cast<std::size_t>(chan)];
  w->acquired_at.push_back(shard_sim.now());
  ++w->next;
  if (w->next == w->path.size()) {
    schedule_drain(w);
  } else {
    schedule_hop(w, s);
  }
}

void WormholeNetwork::schedule_hop(Worm* w, std::int32_t from) {
  sim::Simulator& shard_sim = sim_of(from);
  const sim::Time at = shard_sim.now() + config_.t_hop;
  const std::int32_t target = w->path[w->next];
  const std::int32_t to = chan_shard(target);
  w->hop_at = at;
  if (is_sharded() && channel_dead(target)) {
    // The arrival would tear the worm down mid-window with channel
    // releases on several shards; route it through the barrier phase at
    // the exact arrival instant instead (and let it re-check liveness —
    // the channel may have recovered by then, as in the serial engine).
    doom(w, at);
    return;
  }
  w->pending_shard = to;
  if (to == from) {
    w->pending = shard_sim.schedule_at(at, [this, w] { progress(w); });
  } else {
    sharded_->post(from, to, at, [this, w] { progress(w); }, &w->pending);
  }
}

void WormholeNetwork::doom(Worm* w, sim::Time at) {
  w->doomed = true;
  w->pending = sim::EventId{};
  const std::uint64_t ep = w->doom_epoch;
  sharded_->schedule_global_keyed(at, kReplayHi, w->replay_key,
                                  [this, w, ep] {
                                    // The worm may have been killed (and
                                    // even recycled) by a fault sweep in
                                    // the meantime.
                                    if (!w->in_use || w->doom_epoch != ep) {
                                      return;
                                    }
                                    progress(w);
                                  });
}

void WormholeNetwork::schedule_drain(Worm* w) {
  const std::int32_t ds = chan_shard(w->path.back());
  sim::Simulator& shard_sim = sim_of(ds);
  w->draining = true;
  // Header crosses the final (ejection) channel, then the payload drains
  // into the destination NI.
  const sim::Time delivery =
      shard_sim.now() + config_.t_hop + config_.serialization_time();
  const std::size_t len = w->path.size();
  if (config_.release_model == ReleaseModel::kPipelined) {
    // The tail flit trails the header by one hop per remaining channel;
    // upstream channels free as it passes (never before the head of the
    // packet has fully left them, and never after delivery). Release
    // times are non-decreasing in i (consecutive acquisitions and tail
    // positions are both >= t_hop apart) and scheduled in index order,
    // so the FIFO tie-break makes released_below advance monotonically —
    // and under sharding, two releases of one worm never share a window,
    // which makes the cross-shard released_below updates barrier-ordered.
    w->pending_releases.reserve(len);
    for (std::size_t i = 0; i + 1 < len; ++i) {
      const sim::Time earliest = w->acquired_at[i] + config_.t_hop +
                                 config_.serialization_time();
      const sim::Time tail_passes =
          delivery - config_.t_hop * static_cast<sim::Time::rep>(len - 1 - i);
      const sim::Time at = std::max(earliest, tail_passes);
      const std::int32_t chan = w->path[i];
      const std::int32_t owner = chan_shard(chan);
      if (!is_sharded() || owner == ds) {
        const auto eid =
            shard_sim.schedule_at(at, [this, w, i, chan] {
              w->released_below = i + 1;
              release_channel(chan);
            });
        w->pending_releases.push_back(PendingRelease{chan, eid});
      } else {
        // A remote release is an ordinary logical event (the serial
        // engine schedules it too), mailed to the channel's owner. It
        // must clear the conservative window; when it cannot, report the
        // window width that would have worked instead of letting the
        // flush die on a generic lookahead violation.
        if (at < shard_sim.now() + sharded_->lookahead()) {
          const sim::Time slack = at - shard_sim.now();
          throw std::invalid_argument(
              "WormholeNetwork: pipelined release needs a conservative "
              "window of at most " +
              std::to_string(std::max<sim::Time::rep>(slack.count_ns(), 0)) +
              " ns on this path (driver lookahead is " +
              std::to_string(sharded_->lookahead().count_ns()) +
              " ns) — shrink NIMCAST_WINDOW, use fewer shards, or raise "
              "packet_bytes");
        }
        w->pending_releases.push_back(PendingRelease{chan, sim::EventId{}});
        sharded_->post(ds, owner, at,
                       [this, w, i, chan] {
                         w->released_below = i + 1;
                         release_channel(chan);
                       },
                       &w->pending_releases.back().id);
      }
    }
  } else if (is_sharded()) {
    // At-delivery releases of channels owned by other shards cannot run
    // inside complete() (that would mutate foreign channel state
    // mid-window); mail each one to its owner, timed at the delivery
    // instant — which is at least one lookahead away, since delivery is
    // t_hop + serialization past now. They are synthetic: the serial
    // engine performs them inline, so they must not count as logical
    // events. reserve() up front: post() keeps a pointer into the
    // vector until the next barrier flush binds the EventId.
    w->pending_releases.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::int32_t chan = w->path[i];
      const std::int32_t owner = chan_shard(chan);
      if (owner == ds) continue;
      w->pending_releases.push_back(PendingRelease{chan, sim::EventId{}});
      sharded_->post(ds, owner, delivery,
                     [this, chan, owner] {
                       sharded_->note_synthetic(owner);
                       release_channel(chan);
                     },
                     &w->pending_releases.back().id);
    }
  }
  w->pending_shard = ds;
  w->pending = shard_sim.schedule_at(delivery, [this, w] { complete(w); });
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
  const std::int32_t s = chan_shard(chan);
  sim::Simulator& shard_sim = sim_of(s);
  next->parked = false;
  state_of(s).total_block += shard_sim.now() - next->block_start;
  chan_block_ns_[c] += (shard_sim.now() - next->block_start).count_ns();
  assert(next->path[next->next] == chan);
  ++switch_load_[static_cast<std::size_t>(
      chan_switch_[static_cast<std::size_t>(chan)])];
  ++chan_acq_[c];
  next->acquired_at.push_back(shard_sim.now());
  ++next->next;
  if (next->next == next->path.size()) {
    schedule_drain(next);
  } else {
    schedule_hop(next, s);
  }
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
  const std::int32_t ds = chan_shard(w->path.back());
  if (config_.release_model == ReleaseModel::kAtDelivery) {
    if (is_sharded()) {
      // Locally-owned channels release here; the rest were mailed to
      // their owner shards at drain-scheduling time and fire at this
      // same instant over there.
      for (std::int32_t chan : w->path) {
        if (chan_shard(chan) == ds) release_channel(chan);
      }
    } else {
      for (std::int32_t chan : w->path) release_channel(chan);
    }
  } else {
    // Pipelined mode already released the upstream channels; only the
    // final (ejection) channel is still held.
    release_channel(w->path.back());
  }
  w->pending_releases.clear();
  ShardState& st = state_of(ds);
  --st.in_flight;
  const bool lost = packet_lost(w->packet);
  if (lost) {
    ++st.dropped;
  } else {
    ++st.delivered;
  }
  if (trace_) {
    trace_->record(serial_sim_->now(), sim::TraceCategory::kPacket,
                   w->packet.dest,
                   std::string(lost ? "DROP" : "deliver") + " msg=" +
                       std::to_string(w->packet.message) + " pkt=" +
                       std::to_string(w->packet.packet_index));
  }
  // Free the slot before invoking delivery: a reentrant send() from the
  // receiver may recycle it.
  const Packet packet = w->packet;
  free_worm(w, ds);
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
    trace_->record(serial_sim_->now(), sim::TraceCategory::kChannel, ev.id,
                   std::string("FAULT ") + to_string(ev.kind) + " id=" +
                       std::to_string(ev.id));
  }
  if (ev.kind != FaultKind::kLinkUp) {
    // Collect the victims first: kill_worm may hand surviving channels to
    // other worms, so the sweep reads current state one victim at a time.
    std::vector<Worm*> victims;
    for (auto& stp : shard_state_) {
      for (Worm& w : stp->arena) {
        if (!w.in_use) continue;
        // Channels the worm currently pins: everything acquired but not
        // yet released, plus (for a parked worm) the dead channel it
        // waits on — that wait can never be satisfied once the channel
        // is condemned.
        const std::size_t held_end =
            w.draining ? w.path.size() : w.next + (w.parked ? 1u : 0u);
        for (std::size_t i = w.released_below; i < held_end; ++i) {
          if (channel_dead(w.path[i])) {
            victims.push_back(&w);
            break;
          }
        }
      }
    }
    for (Worm* w : victims) kill_worm(w);
    if (is_sharded()) {
      // Survivors whose *pending hop* targets a channel this fault just
      // condemned: the serial engine lets the hop fire and the worm die
      // on arrival. Here that teardown would release channels on several
      // shards mid-window, so convert each such hop into a barrier-phase
      // replay at the same arrival instant (which double-checks
      // liveness, preserving the recovered-in-time case).
      for (auto& stp : shard_state_) {
        for (Worm& w : stp->arena) {
          if (!w.in_use || w.parked || w.draining || w.doomed) continue;
          if (!channel_dead(w.path[w.next])) continue;
          const bool canceled = sim_of(w.pending_shard).cancel(w.pending);
          assert(canceled);
          static_cast<void>(canceled);
          doom(&w, w.hop_at);
        }
      }
    }
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
  } else if (!w->doomed) {
    // Cancel the in-flight hop / drain-completion event. cancel() is a
    // no-op (false) if it already fired, in which case the worm's state
    // was advanced by the callback and reflects reality. A doomed worm
    // has no live event — its replay global no-ops via the epoch guard.
    sim_of(w->pending_shard).cancel(w->pending);
  }
  // Releases that have not fired yet (pipelined staggered releases, or
  // sharded remote at-delivery releases) still hold their channel:
  // cancel each and release it here. Fired pipelined ones already
  // advanced released_below.
  for (const auto& pr : w->pending_releases) {
    if (sim_of(chan_shard(pr.chan)).cancel(pr.id)) release_channel(pr.chan);
  }
  w->pending_releases.clear();
  if (w->draining) {
    if (config_.release_model == ReleaseModel::kAtDelivery) {
      if (is_sharded()) {
        // The remote at-delivery releases were canceled-and-released
        // just above; only the destination shard's channels remain.
        const std::int32_t ds = chan_shard(w->path.back());
        for (std::int32_t chan : w->path) {
          if (chan_shard(chan) == ds) release_channel(chan);
        }
      } else {
        for (std::int32_t chan : w->path) release_channel(chan);
      }
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
  ShardState& st = state_of(w->shard);
  --st.in_flight;
  ++st.dropped;
  ++st.killed;
  if (trace_) {
    trace_->record(serial_sim_->now(), sim::TraceCategory::kPacket,
                   w->packet.dest,
                   "KILL msg=" + std::to_string(w->packet.message) +
                       " pkt=" + std::to_string(w->packet.packet_index) +
                       " from=" + std::to_string(w->packet.sender));
  }
  free_worm(w, w->shard);
}

}  // namespace nimcast::net
