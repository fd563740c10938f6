#pragma once

#include <cstdint>

#include "sim/sim_time.hpp"

namespace nimcast::netif {

/// Host and NI overhead parameters.
///
/// Defaults are the paper's Section 5.2 values, "representing the current
/// trend in technology" (1997): software start-up t_s and receive overhead
/// t_r at the host processor, and per-packet send/receive occupancy of the
/// NI coprocessor.
struct SystemParams {
  /// Host software start-up overhead: incurred once per send *operation*
  /// (smart NI: once per multicast at the source; conventional NI: once
  /// per forwarded copy of the message).
  sim::Time t_s = sim::Time::us(12.5);

  /// Host software receive overhead: once per received message.
  sim::Time t_r = sim::Time::us(12.5);

  /// NI coprocessor occupancy to push one packet copy into the network
  /// (the paper's overhead "at the network interface for sending a
  /// packet", and the t_nd of the Section 3.3.2 buffer analysis).
  sim::Time t_snd = sim::Time::us(3.0);

  /// NI coprocessor occupancy to accept one packet from the network
  /// (header decode + DMA initiation toward host memory).
  sim::Time t_rcv = sim::Time::us(2.0);

  /// Parallel engines on the NI coprocessor. The paper's 1997 NIs have
  /// one; values > 1 model modern multi-queue NICs that can replicate
  /// several multicast copies concurrently — see the multi-engine
  /// ablation bench for how that shifts the optimal fan-out bound.
  std::int32_t ni_engines = 1;

  /// NI coprocessor occupancy to fold one received packet into a reduce's
  /// local partial (in-network combining; set it high to model
  /// host-assisted combining).
  sim::Time t_comb = sim::Time::us(1.0);
};

}  // namespace nimcast::netif
