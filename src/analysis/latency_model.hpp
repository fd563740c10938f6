#pragma once

#include <cstdint>

#include "core/optimal_k.hpp"
#include "netif/system_params.hpp"
#include "network/network_config.hpp"
#include "sim/sim_time.hpp"

namespace nimcast::analysis {

/// The paper's closed-form latency expressions (Sections 2.5, 2.6, 4.1).
///
/// Everything is in terms of t_step — the time to move one packet from
/// one NI to another: sender NI overhead + propagation + receiver NI
/// overhead. The model is exact on a contention-free network; the
/// simulator deviates from it by contention and by the finer-grained
/// overlap of NI send/receive occupancy.
class LatencyModel {
 public:
  LatencyModel(netif::SystemParams params, sim::Time t_step)
      : params_{params}, t_step_{t_step} {}

  /// Builds t_step from network parameters assuming an uncontended path
  /// of `hops` switch-switch links: t_snd + network flight + t_rcv.
  [[nodiscard]] static LatencyModel from_network(
      netif::SystemParams params, const net::NetworkConfig& net,
      std::size_t hops);

  [[nodiscard]] sim::Time t_step() const { return t_step_; }

  /// Generic pipelined multicast latency over a tree with first-packet
  /// step count `t1` and root child count `c_root` for `m` packets
  /// (Theorem 2): t_s + (t1 + (m-1) * c_root) * t_step + t_r.
  [[nodiscard]] sim::Time smart(std::int32_t t1, std::int32_t c_root,
                                std::int32_t m) const;

  /// Binomial tree over a smart NI, multicast set size n (>= 1).
  [[nodiscard]] sim::Time smart_binomial(std::int32_t n, std::int32_t m) const;

  /// Linear tree (chain) over a smart NI.
  [[nodiscard]] sim::Time smart_linear(std::int32_t n, std::int32_t m) const;

  /// Optimal k-binomial tree over a smart NI (Theorem 3).
  [[nodiscard]] sim::Time smart_optimal(std::int32_t n, std::int32_t m) const;

  /// Binomial tree over a *conventional* NI: every level pays the host
  /// software start-up and receive overheads again (Figure 4(a)):
  /// ceil(log2 n) * (t_s + m * t_step + t_r).
  [[nodiscard]] sim::Time conventional_binomial(std::int32_t n,
                                                std::int32_t m) const;

  /// Single-packet expressions of Section 2.5 (Figure 4), for reference:
  /// smart: t_s + ceil(log2 n) * t_step + t_r.
  [[nodiscard]] sim::Time smart_binomial_single(std::int32_t n) const {
    return smart_binomial(n, 1);
  }

  /// Our extension beyond the paper: a latency estimate calibrated to the
  /// asynchronous NI model, where the first packet pays full t_step per
  /// tree level but the pipeline interval is the NI coprocessor cycle
  /// t_rcv + k * t_snd (receive one packet, forward k copies) rather than
  /// k whole steps: t_s + t1 * t_step + (m-1)(t_rcv + k * t_snd) + t_r.
  [[nodiscard]] sim::Time pipelined_estimate(std::int32_t t1, std::int32_t k,
                                             std::int32_t m) const;

  /// Theorem 3 re-solved against pipelined_estimate: the fan-out bound a
  /// deployment should actually use on hardware whose NI overlaps send
  /// occupancy with the wire. Shifts the k -> 1 crossover later than the
  /// paper's step-model rule (see the calibrated-k ablation bench).
  struct CalibratedChoice {
    std::int32_t k = 1;
    std::int32_t t1 = 0;
    sim::Time latency;
  };
  [[nodiscard]] CalibratedChoice calibrated_optimal(std::int32_t n,
                                                    std::int32_t m) const;

 private:
  netif::SystemParams params_;
  sim::Time t_step_;
};

}  // namespace nimcast::analysis
