#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/sim_time.hpp"
#include "topology/ids.hpp"

namespace nimcast::netif {

/// Collectives on packetization + smart NI support (the paper's §7
/// extension): each runs over a contention-free tree of participants and
/// pipelines at packet granularity, FPFS style.
enum class CollectiveKind : std::uint8_t {
  kBroadcast,  ///< root's message to every node (multicast to all)
  kScatter,    ///< root sends a distinct m-packet message to every node
  kGather,     ///< every node sends a distinct m-packet message to root
  kReduce,     ///< in-network combining up the tree; result at root
  kAllReduce,  ///< reduce, then the result pipelined back down
};

[[nodiscard]] const char* to_string(CollectiveKind k);

/// One host's part in one collective message, installed on its NI in
/// place of a ForwardingEntry: its place in the message's tree, then the
/// firmware's progress (the engine reads it once the run drains).
struct CollectiveRole {
  CollectiveKind kind = CollectiveKind::kBroadcast;
  topo::HostId parent = topo::kInvalidId;  ///< kInvalidId at the root
  std::vector<topo::HostId> children;
  /// (descendant, child it hangs under), sorted by descendant, at every
  /// scatter host and at the root: scatter routes by it, a gather root
  /// counts its sources by it, a reduce root salvages by it.
  std::vector<std::pair<topo::HostId, topo::HostId>> next_hop;
  /// m: per destination (scatter), per source (gather), else per message.
  std::int32_t packets = 1;
  std::int32_t delivered = 0;  ///< packets the network delivered here
  bool done = false;           ///< the obligation fired on_message_at_ni
  /// Gather root: each source whose full message arrived, and when.
  std::vector<std::pair<topo::HostId, sim::Time>> sources_done;
  /// Reduce/all-reduce: up-phase packets folded per child (tree order;
  /// at `packets`, the child's whole subtree is in) and children folded
  /// per packet index.
  std::vector<std::int32_t> child_folded;
  std::vector<std::int32_t> folded;
  std::vector<std::int32_t> source_received;  ///< gather: per source host
  /// Own packets received (broadcast, scatter, all-reduce down phase),
  /// packets gathered (gather root) or indexes reduced (reduce root).
  std::int32_t progress = 0;

  /// Whether the host pays t_s and starts the role: the root of a
  /// broadcast or scatter, every gather source, everyone in a reduce.
  [[nodiscard]] bool starts() const {
    if (parent == topo::kInvalidId) return kind != CollectiveKind::kGather;
    return kind != CollectiveKind::kBroadcast &&
           kind != CollectiveKind::kScatter;
  }
};

}  // namespace nimcast::netif
