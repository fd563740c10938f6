// The collective firmware: what an NI does with a CollectiveRole's packets.

#include <algorithm>

#include "netif/ni_base.hpp"

namespace nimcast::netif {

namespace {
/// Packet tags of the reduce/all-reduce phases; scatter and gather tag a
/// packet with a host id (>= 0) instead.
constexpr std::int32_t kUpPhase = -2;
constexpr std::int32_t kDownPhase = -3;
}  // namespace

const char* to_string(CollectiveKind k) {
  constexpr const char* kNames[] = {"broadcast", "scatter", "gather",
                                    "reduce", "allreduce"};
  return kNames[static_cast<std::size_t>(k)];
}

void NetworkInterface::install_role(net::MessageId message,
                                    CollectiveRole role) {
  role.folded.assign(static_cast<std::size_t>(role.packets), 0);
  role.child_folded.assign(role.children.size(), 0);
  install(message, ForwardingEntry{{}, role.packets, false, 0});
  // The role joins its slot's allocation; a slot the message already had
  // moves into it.
  auto& slot = slots_[slot_of_[static_cast<std::size_t>(message)] - 1];
  slot.reset(new RoleSlot(std::move(*slot), std::move(role)));
}

const CollectiveRole* NetworkInterface::role(net::MessageId message) const {
  const MessageSlot* slot = find_slot(message);
  return slot == nullptr ? nullptr : slot->role;
}

void NetworkInterface::start_role(net::MessageId message) {
  const CollectiveRole& role = *find_slot(message)->role;
  // (next hop, tag) of every copy of each packet index. Reduce leaves
  // stream their contribution up; interior nodes hold theirs as the
  // initial partial and wait for their children.
  std::vector<std::pair<topo::HostId, std::int32_t>> targets;
  switch (role.kind) {
    case CollectiveKind::kBroadcast:
      for (topo::HostId c : role.children) targets.emplace_back(c, kDownPhase);
      break;
    case CollectiveKind::kScatter:
      for (const auto& [dest, hop] : role.next_hop) {
        targets.emplace_back(hop, dest);
      }
      break;
    case CollectiveKind::kGather:
      if (role.parent != topo::kInvalidId) {
        targets.emplace_back(role.parent, self_);
      }
      break;
    case CollectiveKind::kReduce:
    case CollectiveKind::kAllReduce:
      if (role.children.empty() && role.parent != topo::kInvalidId) {
        targets.emplace_back(role.parent, kUpPhase);
      }
      break;
  }
  // Packet-major: packet 0 to every target, then packet 1, ... (FPFS;
  // for scatter it keeps every subtree's pipeline fed).
  for (std::int32_t j = 0; j < role.packets; ++j) {
    for (const auto& [to, tag] : targets) {
      inject_copy(message, j, role.packets, to, 0, tag);
    }
  }
}

void NetworkInterface::role_progress(CollectiveRole& role,
                                     net::MessageId message,
                                     std::int32_t goal) {
  if (++role.progress != goal) return;
  role.done = true;
  if (on_message_at_ni) on_message_at_ni(self_, message);
}

void NetworkInterface::role_handle(CollectiveRole& role,
                                   const net::Packet& packet) {
  const net::MessageId message = packet.message;
  const std::int32_t index = packet.packet_index;
  switch (role.kind) {
    case CollectiveKind::kScatter:
      if (packet.tag == self_) {
        role_progress(role, message, role.packets);
      } else {
        const auto it = std::lower_bound(
            role.next_hop.begin(), role.next_hop.end(),
            std::make_pair(packet.tag, topo::kInvalidId));
        inject_copy(message, index, role.packets, it->second, 0, packet.tag);
      }
      return;
    case CollectiveKind::kGather: {
      if (role.parent != topo::kInvalidId) {
        inject_copy(message, index, role.packets, role.parent, 0, packet.tag);
        return;
      }
      // Root: per-source accounting (a faulty fabric may gather some
      // sources whole and lose others).
      const auto src = static_cast<std::size_t>(packet.tag);
      if (src >= role.source_received.size()) {
        role.source_received.resize(src + 1);
      }
      if (++role.source_received[src] == role.packets) {
        role.sources_done.emplace_back(packet.tag, sim_.now());
      }
      role_progress(role, message,
                    static_cast<std::int32_t>(role.next_hop.size()) *
                        role.packets);
      return;
    }
    case CollectiveKind::kReduce:
    case CollectiveKind::kAllReduce:
      if (packet.tag == kUpPhase) {
        role_fold(role, packet);
        return;
      }
      break;  // the all-reduce down phase forwards like a broadcast
    case CollectiveKind::kBroadcast:
      break;
  }
  for (topo::HostId c : role.children) {
    inject_copy(message, index, role.packets, c, 0, kDownPhase);
  }
  role_progress(role, message, role.packets);
}

void NetworkInterface::role_fold(CollectiveRole& role,
                                 const net::Packet& packet) {
  // t_comb of coprocessor time per folded packet; once every child's j-th
  // packet is folded, index j moves up (or, at the root, is final).
  coproc_.enqueue(params_.t_comb, [this, r = &role, packet] {
    const auto& kids = r->children;
    const auto child = std::find(kids.begin(), kids.end(), packet.sender);
    if (child != kids.end()) {
      ++r->child_folded[static_cast<std::size_t>(child - kids.begin())];
    }
    const std::int32_t index = packet.packet_index;
    if (++r->folded[static_cast<std::size_t>(index)] <
        static_cast<std::int32_t>(kids.size())) {
      return;
    }
    if (r->parent != topo::kInvalidId) {
      inject_copy(packet.message, index, r->packets, r->parent, 0, kUpPhase);
      return;
    }
    if (r->kind == CollectiveKind::kAllReduce) {
      // Pipeline the finished index straight back down; the root holds
      // the full result once every index has folded.
      for (topo::HostId c : kids) {
        inject_copy(packet.message, index, r->packets, c, 0, kDownPhase);
      }
    }
    role_progress(*r, packet.message, r->packets);
  });
}

}  // namespace nimcast::netif
