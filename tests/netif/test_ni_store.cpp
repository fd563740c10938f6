// The NI's per-message store: one dense slot per message id holding the
// forwarding entry, the receive count, and each held packet's
// outstanding-copy count.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "netif/ni_base.hpp"
#include "routing/up_down.hpp"

namespace nimcast::netif {
namespace {

/// Exposes the store's protected surface; the forwarding hooks are
/// no-ops because these tests drive the store directly.
class ProbeNi final : public NetworkInterface {
 public:
  using NetworkInterface::NetworkInterface;
  using NetworkInterface::find_entry;
  using NetworkInterface::hold_packet;
  using NetworkInterface::note_data_processed;
  using NetworkInterface::release_copy;

  void start_from_host(net::MessageId, Host&) override {}
  [[nodiscard]] const char* style() const override { return "probe"; }

 protected:
  void on_packet_received(const net::Packet&,
                          const ForwardingEntry&) override {}
};

struct Rig {
  topo::Topology topology{topo::Graph{1, {}},
                          std::vector<topo::SwitchId>(3, 0), "star"};
  routing::UpDownRouter router{topology.switches()};
  routing::RouteTable routes{topology, router};
  sim::Simulator simctx;
  net::WormholeNetwork network{simctx, topology, routes, {}};
  ProbeNi ni{simctx, network, SystemParams{}, 0};
};

net::Packet packet_of(net::MessageId message, std::int32_t index) {
  net::Packet p;
  p.message = message;
  p.packet_index = index;
  return p;
}

TEST(NiStore, ReinstallResetsTheReceivedCount) {
  Rig rig;
  std::int32_t completions = 0;
  rig.ni.on_message_at_ni = [&](topo::HostId, net::MessageId) {
    ++completions;
  };
  rig.ni.install(1, ForwardingEntry{{}, 2, true});
  const ForwardingEntry* entry = rig.ni.find_entry(1);
  ASSERT_NE(entry, nullptr);
  rig.ni.note_data_processed(packet_of(1, 0), *entry);
  EXPECT_EQ(completions, 0);
  rig.ni.note_data_processed(packet_of(1, 1), *entry);
  EXPECT_EQ(completions, 1);
  EXPECT_THROW(rig.ni.note_data_processed(packet_of(1, 1), *entry),
               std::logic_error);

  // The reinstall reuses the same entry and starts counting afresh.
  rig.ni.install(1, ForwardingEntry{{}, 2, true});
  EXPECT_EQ(rig.ni.find_entry(1), entry);
  rig.ni.note_data_processed(packet_of(1, 0), *entry);
  rig.ni.note_data_processed(packet_of(1, 1), *entry);
  EXPECT_EQ(completions, 2);
}

TEST(NiStore, ZeroCopyPacketReleasesItsSlotAtOnce) {
  Rig rig;
  rig.ni.install(1, ForwardingEntry{{1}, 1, false});
  rig.ni.hold_packet(1, 0, 0);
  EXPECT_EQ(rig.ni.buffer().current(), 0.0);
  EXPECT_EQ(rig.ni.buffer().peak(), 1.0);
  // The slot is free again: the same packet can be held once more.
  rig.ni.hold_packet(1, 0, 1);
  EXPECT_EQ(rig.ni.buffer().current(), 1.0);
  rig.ni.release_copy(1, 0);
  EXPECT_EQ(rig.ni.buffer().current(), 0.0);
}

TEST(NiStore, ReleaseCopyFreesTheSlotOnTheLastCopy) {
  Rig rig;
  rig.ni.install(7, ForwardingEntry{{1, 2}, 3, false});
  rig.ni.hold_packet(7, 0, 2);
  rig.ni.hold_packet(7, 2, 1);
  EXPECT_EQ(rig.ni.buffer().current(), 2.0);
  rig.ni.release_copy(7, 0);
  EXPECT_EQ(rig.ni.buffer().current(), 2.0);
  rig.ni.release_copy(7, 2);
  EXPECT_EQ(rig.ni.buffer().current(), 1.0);
  rig.ni.release_copy(7, 0);
  EXPECT_EQ(rig.ni.buffer().current(), 0.0);
  EXPECT_EQ(rig.ni.buffer().peak(), 2.0);
}

TEST(NiStore, FindEntryPointerSurvivesLaterInstalls) {
  Rig rig;
  rig.ni.install(1, ForwardingEntry{{1, 2}, 3, false, 4});
  const ForwardingEntry* entry = rig.ni.find_entry(1);
  ASSERT_NE(entry, nullptr);
  for (net::MessageId m = 2; m <= 1001; ++m) {
    rig.ni.install(m, ForwardingEntry{{1}, 1 + m % 5, true});
  }
  EXPECT_EQ(rig.ni.find_entry(1), entry);
  EXPECT_EQ(entry->children, (std::vector<topo::HostId>{1, 2}));
  EXPECT_EQ(entry->packet_count, 3);
  EXPECT_FALSE(entry->is_destination);
  EXPECT_EQ(entry->route_class, 4);
  ASSERT_NE(rig.ni.find_entry(1001), nullptr);
  EXPECT_EQ(rig.ni.find_entry(1001)->packet_count, 1 + 1001 % 5);
}

TEST(NiStore, UnknownMessagesHaveNoState) {
  Rig rig;
  rig.ni.install(3, ForwardingEntry{{}, 1, true});
  EXPECT_EQ(rig.ni.find_entry(0), nullptr);
  EXPECT_EQ(rig.ni.find_entry(2), nullptr);
  EXPECT_EQ(rig.ni.find_entry(4), nullptr);
  EXPECT_EQ(rig.ni.find_entry(-1), nullptr);
  EXPECT_THROW(rig.ni.hold_packet(2, 0, 1), std::logic_error);
  EXPECT_THROW(rig.ni.install(-1, ForwardingEntry{{}, 1, true}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nimcast::netif
