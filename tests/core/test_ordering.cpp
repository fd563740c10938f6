#include "core/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>

#include "sim/rng.hpp"
#include "topology/irregular.hpp"

namespace nimcast::core {
namespace {

struct Rig {
  topo::Topology topology;
  routing::UpDownRouter router;

  explicit Rig(std::uint64_t seed)
      : topology{[&] {
          sim::Rng rng{seed};
          return topo::make_irregular(topo::IrregularConfig{}, rng);
        }()},
        router{topology.switches()} {}
};

bool is_permutation_of_hosts(const Chain& c, std::int32_t n) {
  if (c.size() != static_cast<std::size_t>(n)) return false;
  std::set<topo::HostId> seen{c.begin(), c.end()};
  return seen.size() == c.size() && *seen.begin() == 0 &&
         *seen.rbegin() == n - 1;
}

TEST(Ordering, CcoIsAPermutation) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Rig rig{seed};
    const Chain c = cco_ordering(rig.topology, rig.router);
    EXPECT_TRUE(is_permutation_of_hosts(c, 64)) << "seed " << seed;
  }
}

TEST(Ordering, CcoKeepsSwitchHostsConsecutive) {
  const Rig rig{3};
  const Chain c = cco_ordering(rig.topology, rig.router);
  // Hosts of the same switch form one contiguous block.
  std::set<topo::SwitchId> closed;
  topo::SwitchId current = rig.topology.switch_of(c.front());
  for (topo::HostId h : c) {
    const topo::SwitchId s = rig.topology.switch_of(h);
    if (s != current) {
      EXPECT_FALSE(closed.contains(s)) << "switch " << s << " revisited";
      closed.insert(current);
      current = s;
    }
  }
}

TEST(Ordering, CcoStartsAtRootSwitch) {
  const Rig rig{4};
  const Chain c = cco_ordering(rig.topology, rig.router);
  EXPECT_EQ(rig.topology.switch_of(c.front()), rig.router.root());
}

TEST(Ordering, CcoSubtreeHostsStayContiguous) {
  // Hosts under any BFS subtree occupy one contiguous chain range —
  // the property that makes disjoint segments use disjoint subtree links.
  const Rig rig{5};
  const Chain c = cco_ordering(rig.topology, rig.router);
  // position of each host in the chain
  std::vector<std::size_t> pos(64);
  for (std::size_t i = 0; i < c.size(); ++i) {
    pos[static_cast<std::size_t>(c[i])] = i;
  }
  // For each switch, all hosts on it must be adjacent in the chain.
  for (topo::SwitchId s = 0; s < rig.topology.num_switches(); ++s) {
    const auto hosts = rig.topology.hosts_of(s);
    std::vector<std::size_t> ps;
    for (auto h : hosts) ps.push_back(pos[static_cast<std::size_t>(h)]);
    std::sort(ps.begin(), ps.end());
    for (std::size_t i = 0; i + 1 < ps.size(); ++i) {
      EXPECT_EQ(ps[i + 1], ps[i] + 1);
    }
  }
}

TEST(Ordering, DimensionChainIsIdentity) {
  const topo::Topology cube =
      topo::make_kary_ncube(topo::KAryNCubeConfig{4, 2, false});
  const Chain c = dimension_chain(cube);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], static_cast<topo::HostId>(i));
  }
}

TEST(Ordering, RandomOrderingIsSeededPermutation) {
  sim::Rng a{9};
  sim::Rng b{9};
  const Chain ca = random_ordering(64, a);
  const Chain cb = random_ordering(64, b);
  EXPECT_EQ(ca, cb);
  EXPECT_TRUE(is_permutation_of_hosts(ca, 64));
  sim::Rng c{10};
  EXPECT_NE(random_ordering(64, c), ca);
}

TEST(ArrangeParticipants, SourceFirstRestInChainOrder) {
  const Chain chain{5, 3, 8, 1, 9, 0};
  const Chain got = arrange_participants(chain, 1, {9, 5, 8});
  EXPECT_EQ(got, (Chain{1, 9, 5, 8}));  // rotate at 1, wrap to 5, 8
}

TEST(ArrangeParticipants, SourceAlreadyFirst) {
  const Chain chain{0, 1, 2, 3};
  EXPECT_EQ(arrange_participants(chain, 0, {2, 3}), (Chain{0, 2, 3}));
}

TEST(ArrangeParticipants, FullSet) {
  const Chain chain{2, 0, 1};
  EXPECT_EQ(arrange_participants(chain, 1, {0, 2}), (Chain{1, 2, 0}));
}

TEST(ArrangeParticipants, RejectsDuplicatesAndSourceInDests) {
  const Chain chain{0, 1, 2, 3};
  EXPECT_THROW((void)arrange_participants(chain, 0, {1, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)arrange_participants(chain, 0, {0, 1}),
               std::invalid_argument);
}

TEST(ArrangeParticipants, RejectsHostMissingFromChain) {
  const Chain chain{0, 1, 2};
  EXPECT_THROW((void)arrange_participants(chain, 0, {5}),
               std::invalid_argument);
}

/// arrange_participants as specified: set membership, checked in the
/// order duplicate destination, source in dests, participant missing.
Chain reference_arrange(const Chain& chain, topo::HostId source,
                        const std::vector<topo::HostId>& dests) {
  std::unordered_set<topo::HostId> want{dests.begin(), dests.end()};
  if (want.size() != dests.size()) {
    throw std::invalid_argument("arrange_participants: duplicate destination");
  }
  if (want.contains(source)) {
    throw std::invalid_argument("arrange_participants: source in dests");
  }
  want.insert(source);
  Chain members;
  for (topo::HostId h : chain) {
    if (want.contains(h)) members.push_back(h);
  }
  if (members.size() != want.size()) {
    throw std::invalid_argument(
        "arrange_participants: participant missing from chain");
  }
  std::rotate(members.begin(),
              std::find(members.begin(), members.end(), source),
              members.end());
  return members;
}

/// The result, or the invalid_argument message.
struct Outcome {
  std::optional<Chain> chain;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

template <typename F>
Outcome outcome_of(F&& f) {
  try {
    return Outcome{f(), {}};
  } catch (const std::invalid_argument& e) {
    return Outcome{std::nullopt, e.what()};
  }
}

TEST(ArrangeParticipants, MatchesSetBasedReferenceOnRandomInputs) {
  // Chains are permutations of a random subset of 0..hosts-1 (so some
  // participants can be missing); requests occasionally repeat a
  // destination, name the source as a destination, or use ids no chain
  // holds (negative or >= hosts).
  sim::Rng rng{2024};
  std::int32_t errors[3] = {0, 0, 0};
  std::int32_t successes = 0;
  for (std::int32_t trial = 0; trial < 4000; ++trial) {
    const auto hosts = static_cast<std::int32_t>(rng.next_in(1, 48));
    Chain chain;
    const double keep = rng.next_bool(0.5) ? 1.0 : 0.9;
    for (topo::HostId h = 0; h < hosts; ++h) {
      if (rng.next_bool(keep)) chain.push_back(h);
    }
    rng.shuffle(chain);
    const auto pick = [&] {
      if (rng.next_bool(0.02)) return static_cast<topo::HostId>(-1);
      if (rng.next_bool(0.02)) return hosts + static_cast<topo::HostId>(
                                                  rng.next_below(3));
      return static_cast<topo::HostId>(rng.next_below(
          static_cast<std::uint64_t>(hosts)));
    };
    const topo::HostId source = pick();
    std::vector<topo::HostId> dests;
    for (topo::HostId h = 0; h < hosts; ++h) {
      if (h != source && rng.next_bool(0.4)) dests.push_back(h);
    }
    rng.shuffle(dests);
    if (rng.next_bool(0.1)) dests.push_back(pick());
    if (!dests.empty() && rng.next_bool(0.05)) dests.push_back(dests[0]);
    if (rng.next_bool(0.05)) dests.push_back(source);

    const Outcome want =
        outcome_of([&] { return reference_arrange(chain, source, dests); });
    const Outcome got =
        outcome_of([&] { return arrange_participants(chain, source, dests); });
    ASSERT_TRUE(got == want)
        << "trial " << trial << ": " << want.error << " vs " << got.error;
    if (want.chain) {
      ++successes;
    } else if (want.error.ends_with("duplicate destination")) {
      ++errors[0];
    } else if (want.error.ends_with("source in dests")) {
      ++errors[1];
    } else {
      ++errors[2];
    }
  }
  // Every path was exercised.
  EXPECT_GT(successes, 100);
  for (std::int32_t count : errors) EXPECT_GT(count, 50);
}

}  // namespace
}  // namespace nimcast::core
