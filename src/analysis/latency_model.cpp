#include "analysis/latency_model.hpp"

#include <stdexcept>

#include "core/coverage.hpp"

namespace nimcast::analysis {

LatencyModel LatencyModel::from_network(netif::SystemParams params,
                                        const net::NetworkConfig& net,
                                        std::size_t hops) {
  const sim::Time flight =
      net.t_hop * (static_cast<sim::Time::rep>(hops) + 2) +
      net.serialization_time();
  return LatencyModel{params, params.t_snd + flight + params.t_rcv};
}

sim::Time LatencyModel::smart(std::int32_t t1, std::int32_t c_root,
                              std::int32_t m) const {
  if (m < 1) throw std::invalid_argument("LatencyModel::smart: m < 1");
  const auto steps = static_cast<sim::Time::rep>(t1) +
                     static_cast<sim::Time::rep>(m - 1) *
                         static_cast<sim::Time::rep>(c_root);
  return params_.t_s + t_step_ * steps + params_.t_r;
}

sim::Time LatencyModel::smart_binomial(std::int32_t n, std::int32_t m) const {
  if (n < 1) throw std::invalid_argument("smart_binomial: n < 1");
  const std::int32_t t1 = core::ceil_log2(static_cast<std::uint64_t>(n));
  return smart(t1, t1, m);
}

sim::Time LatencyModel::smart_linear(std::int32_t n, std::int32_t m) const {
  if (n < 1) throw std::invalid_argument("smart_linear: n < 1");
  return smart(n - 1, n > 1 ? 1 : 0, m);
}

sim::Time LatencyModel::smart_optimal(std::int32_t n, std::int32_t m) const {
  if (n == 1) return params_.t_s + params_.t_r;
  const core::OptimalChoice c = core::optimal_k(n, m);
  return smart(c.t1, c.k, m);
}

sim::Time LatencyModel::pipelined_estimate(std::int32_t t1, std::int32_t k,
                                           std::int32_t m) const {
  if (m < 1) throw std::invalid_argument("pipelined_estimate: m < 1");
  const sim::Time cycle = params_.t_rcv + params_.t_snd *
                                              static_cast<sim::Time::rep>(k);
  return params_.t_s + t_step_ * static_cast<sim::Time::rep>(t1) +
         cycle * static_cast<sim::Time::rep>(m - 1) + params_.t_r;
}

LatencyModel::CalibratedChoice LatencyModel::calibrated_optimal(
    std::int32_t n, std::int32_t m) const {
  if (n < 1 || m < 1) throw std::invalid_argument("calibrated_optimal");
  CalibratedChoice best;
  if (n == 1) {
    best.latency = params_.t_s + params_.t_r;
    return best;
  }
  core::CoverageTable cov;
  bool have = false;
  const std::int32_t k_max = std::max<std::int32_t>(
      1, core::ceil_log2(static_cast<std::uint64_t>(n)));
  for (std::int32_t k = 1; k <= k_max; ++k) {
    const std::int32_t t1 = cov.min_steps(static_cast<std::uint64_t>(n), k);
    const sim::Time latency = pipelined_estimate(t1, k, m);
    if (!have || latency < best.latency) {
      best = CalibratedChoice{k, t1, latency};
      have = true;
    }
  }
  return best;
}

sim::Time LatencyModel::conventional_binomial(std::int32_t n,
                                              std::int32_t m) const {
  if (n < 1 || m < 1) throw std::invalid_argument("conventional_binomial");
  const std::int32_t levels = core::ceil_log2(static_cast<std::uint64_t>(n));
  const sim::Time per_level = params_.t_s +
                              t_step_ * static_cast<sim::Time::rep>(m) +
                              params_.t_r;
  return per_level * static_cast<sim::Time::rep>(levels);
}

}  // namespace nimcast::analysis
