#pragma once

#include <utility>

#include "netif/serial_server.hpp"
#include "netif/system_params.hpp"
#include "topology/ids.hpp"

namespace nimcast::netif {

/// Host processor model: a serializing server for communication software.
///
/// Only the communication-software overheads run here (t_s per send
/// operation, t_r per received message); application compute is outside
/// the model. Keeping the host a separate server from the NI coprocessor
/// is the paper's point: with a smart NI the host drops out of the
/// forwarding path entirely.
class Host {
 public:
  Host(sim::Simulator& simctx, topo::HostId id, SystemParams params)
      : id_{id}, params_{params}, cpu_{simctx} {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] topo::HostId id() const { return id_; }
  [[nodiscard]] SerialServer& cpu() { return cpu_; }
  [[nodiscard]] const SerialServer& cpu() const { return cpu_; }

  /// Queues one software send start-up (t_s); `then` runs at completion.
  template <typename F>
  void software_send(F&& then) {
    cpu_.enqueue(params_.t_s, std::forward<F>(then));
  }

  /// Queues one software message-receive (t_r); `then` runs at completion.
  template <typename F>
  void software_receive(F&& then) {
    cpu_.enqueue(params_.t_r, std::forward<F>(then));
  }

 private:
  topo::HostId id_;
  SystemParams params_;
  SerialServer cpu_;
};

}  // namespace nimcast::netif
