#pragma once

#include <cstdint>
#include <vector>

namespace nimcast::sim {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64).
///
/// Every random choice an experiment makes — topology wiring, destination
/// sets, tie-breaks — flows through an Rng seeded from the experiment
/// configuration, so a run is reproducible bit-for-bit from its seed. We do
/// not use std::mt19937/std::uniform_int_distribution because their output
/// streams are not guaranteed identical across standard library
/// implementations.
/// Stateless 64-bit mixer (SplitMix64 finalizer). Feed it a running hash
/// to fold independent key components into one well-distributed word:
/// `hash_mix(h ^ component)`.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Maps a hash word to a uniform double in [0, 1) — the stateless
/// counterpart of Rng::next_double(). Decisions derived this way are pure
/// functions of their key: no stream is consumed, so the order in which
/// events draw them cannot change any outcome.
[[nodiscard]] constexpr double hash_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// True with probability `p` (clamped to [0,1]).
  bool next_bool(double p);

  /// Derives an independent child generator; used to give each repetition
  /// of a sweep its own stream so adding repetitions never perturbs
  /// earlier ones.
  [[nodiscard]] Rng fork();

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Draws `k` distinct elements from [0, n) in random order
  /// (partial Fisher-Yates). Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::uint64_t s_[4] = {};
};

}  // namespace nimcast::sim
