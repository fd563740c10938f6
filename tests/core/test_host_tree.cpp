#include "core/host_tree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/kbinomial.hpp"
#include "sim/rng.hpp"

namespace nimcast::core {
namespace {

std::vector<topo::HostId> kids(const HostTree& t, topo::HostId h) {
  const auto span = t.children(h);
  return {span.begin(), span.end()};
}

/// The map form HostTree once had: every participant's children by
/// host, in send order.
std::unordered_map<topo::HostId, std::vector<topo::HostId>> reference_children(
    const RankTree& tree, const Chain& order) {
  std::unordered_map<topo::HostId, std::vector<topo::HostId>> out;
  for (std::int32_t r = 0; r < tree.size(); ++r) {
    auto& list = out[order[static_cast<std::size_t>(r)]];
    for (std::int32_t c : tree.children[static_cast<std::size_t>(r)]) {
      list.push_back(order[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

TEST(HostTree, BindMapsRanksToHosts) {
  const RankTree rt = make_binomial(4);  // 0 -> (2 -> (3), 1)
  const Chain order{10, 20, 30, 40};
  const HostTree ht = HostTree::bind(rt, order);
  EXPECT_EQ(ht.root, 10);
  EXPECT_EQ(ht.size(), 4);
  EXPECT_EQ(kids(ht, 10), (std::vector<topo::HostId>{30, 20}));
  EXPECT_EQ(kids(ht, 30), (std::vector<topo::HostId>{40}));
  EXPECT_TRUE(ht.children(20).empty());
  EXPECT_TRUE(ht.children(40).empty());
  EXPECT_EQ(ht.root_children(), 2);
}

TEST(HostTree, NodesPreserveRankOrder) {
  const RankTree rt = make_linear(3);
  const HostTree ht = HostTree::bind(rt, {7, 5, 3});
  EXPECT_EQ(ht.nodes, (std::vector<topo::HostId>{7, 5, 3}));
}

TEST(HostTree, EveryParticipantHasChildrenEntry) {
  const RankTree rt = make_kbinomial(10, 2);
  Chain order;
  for (topo::HostId h = 0; h < 10; ++h) order.push_back(h * 3);
  const HostTree ht = HostTree::bind(rt, order);
  for (std::size_t r = 0; r < ht.nodes.size(); ++r) {
    EXPECT_TRUE(ht.contains(ht.nodes[r]));
    EXPECT_EQ(ht.rank_of(ht.nodes[r]), static_cast<std::int32_t>(r));
  }
}

TEST(HostTree, BindRejectsSizeMismatch) {
  const RankTree rt = make_binomial(4);
  EXPECT_THROW((void)HostTree::bind(rt, {1, 2, 3}), std::invalid_argument);
}

TEST(HostTree, SingletonTree) {
  const RankTree rt = make_binomial(1);
  const HostTree ht = HostTree::bind(rt, {42});
  EXPECT_EQ(ht.root, 42);
  EXPECT_EQ(ht.root_children(), 0);
}

// Every k-binomial tree up to 1024 ranks, bound to a shuffled host
// arrangement, answers exactly what the old by-host map did, both by
// host and by rank.
TEST(HostTree, BindMatchesMapReferenceForEveryKBinomial) {
  sim::Rng rng{25};
  Chain hosts(2048);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    hosts[i] = static_cast<topo::HostId>(i);
  }
  rng.shuffle(hosts);
  for (const std::int32_t k : {1, 2, 3, 4, 7, 12}) {
    for (std::int32_t n = 1; n <= 1024; ++n) {
      const RankTree rt = make_kbinomial(n, k);
      const Chain order(hosts.begin(),
                        hosts.begin() + static_cast<std::ptrdiff_t>(n));
      const HostTree ht = HostTree::bind(rt, order);
      const auto ref = reference_children(rt, order);
      ASSERT_EQ(ht.nodes, order);
      ASSERT_EQ(ht.root, order.front());
      for (std::size_t r = 0; r < order.size(); ++r) {
        const auto at = ht.children_at(r);
        ASSERT_EQ(std::vector<topo::HostId>(at.begin(), at.end()),
                  ref.at(order[r]))
            << "n=" << n << " k=" << k << " rank=" << r;
        ASSERT_EQ(kids(ht, order[r]), ref.at(order[r]));
      }
    }
  }
}

// A hand-built star answers what the old map form did, and the
// child-list constructor reproduces bind for the same shape.
TEST(HostTree, HandBuiltTreesMatchBind) {
  const Chain order{9, 4, 7, 1, 12};
  std::vector<std::vector<topo::HostId>> star(order.size());
  star[0].assign(order.begin() + 1, order.end());
  const HostTree hand{order, star};
  std::unordered_map<topo::HostId, std::vector<topo::HostId>> ref;
  ref[9] = {};
  for (std::size_t i = 1; i < order.size(); ++i) {
    ref[9].push_back(order[i]);
    ref[order[i]] = {};
  }
  EXPECT_EQ(hand.root, 9);
  EXPECT_EQ(hand.root_children(), 4);
  for (topo::HostId h : order) EXPECT_EQ(kids(hand, h), ref.at(h));

  const RankTree rt = make_kbinomial(9, 2);
  Chain nine{30, 10, 80, 50, 20, 60, 90, 40, 70};
  std::vector<std::vector<topo::HostId>> lists(nine.size());
  for (std::size_t r = 0; r < nine.size(); ++r) {
    for (std::int32_t c : rt.children[r]) {
      lists[r].push_back(nine[static_cast<std::size_t>(c)]);
    }
  }
  const HostTree built{nine, lists};
  const HostTree via_bind = HostTree::bind(rt, nine);
  for (topo::HostId h : nine) EXPECT_EQ(kids(built, h), kids(via_bind, h));
}

TEST(HostTree, ChildrenThrowsForNonMember) {
  const HostTree ht = HostTree::bind(make_binomial(4), {10, 20, 30, 40});
  EXPECT_THROW((void)ht.children(25), std::out_of_range);
  EXPECT_THROW((void)ht.children(-1), std::out_of_range);
  EXPECT_FALSE(ht.contains(50));
  EXPECT_EQ(ht.rank_of(5), -1);
  const HostTree empty;
  EXPECT_EQ(empty.size(), 0);
  EXPECT_THROW((void)empty.children(0), std::out_of_range);
  EXPECT_THROW((void)empty.root_children(), std::out_of_range);
}

TEST(HostTree, ConstructorRejectsMalformedChildLists) {
  // One child list per node.
  EXPECT_THROW((HostTree{{0, 1}, {{1}}}), std::invalid_argument);
  // A host may appear once.
  EXPECT_THROW((HostTree{{0, 1, 0}, {{1}, {}, {}}}), std::invalid_argument);
  // Every child must be a node.
  EXPECT_THROW((HostTree{{0, 1}, {{1, 5}, {}}}), std::invalid_argument);
  EXPECT_NO_THROW((HostTree{{0, 1}, {{1}, {}}}));
}

}  // namespace
}  // namespace nimcast::core
