#pragma once

#include <cstdint>

#include "topology/ids.hpp"

namespace nimcast::net {

/// Identifies a multicast operation in flight; packets of different
/// operations are distinguished by this id at the receiving NI.
using MessageId = std::int32_t;

/// Wire-level packet metadata. The payload itself is never materialized —
/// the simulator moves time, not bytes — but the header fields the NI
/// coprocessor reads (message id, packet index, count) are carried so the
/// FCFS/FPFS forwarding logic sees exactly what firmware would see.
struct Packet {
  MessageId message = -1;
  std::int32_t packet_index = 0;   ///< 0-based index within the message
  std::int32_t packet_count = 1;   ///< total packets in the message
  topo::HostId sender = topo::kInvalidId;  ///< immediate upstream host
  topo::HostId dest = topo::kInvalidId;    ///< this copy's destination host
  /// Opaque per-protocol header field; multicast leaves it unused, the
  /// collectives layer carries the scatter final-destination or the
  /// gather origin here.
  std::int32_t tag = -1;
  /// Route table the network consults at injection: 0 is the primary
  /// table, higher classes select a bound alternative (streaming
  /// rotation members travel over decorrelated up*/down* alternatives).
  std::int32_t route_class = 0;
  /// Retransmission attempt number (0 = first transmission). The lossy
  /// fabric draws a packet's fate as a pure hash of its identity — so
  /// the draw does not depend on the order events run in — and the
  /// attempt counter is part of that identity: a retransmitted copy (and
  /// the ACK it provokes) gets an independent draw instead of the
  /// original's.
  std::int32_t attempt = 0;
};

}  // namespace nimcast::net
