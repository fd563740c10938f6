#include "netif/serial_server.hpp"

#include <utility>

namespace nimcast::netif {

namespace {
constexpr std::size_t kInitialRing = 2;
}  // namespace

void SerialServer::TaskRing::grow() {
  std::vector<Task> bigger(ring_.empty() ? kInitialRing : ring_.size() * 2);
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & mask()]);
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void SerialServer::start_next() {
  while (active_ < workers_) {
    TaskRing& source = !queue_.empty() ? queue_ : low_queue_;
    if (source.empty()) return;
    std::uint32_t i = 0;
    while (slot(i).on_done) ++i;
    Task& task = slot(i);
    source.pop_front(task);
    ++active_;
    busy_time_ += task.duration;
    sim_.schedule_in(task.duration, &finish_event, this, i,
                     sim::EventKind::kNi);
  }
}

void SerialServer::finish(std::uint32_t i) {
  // Run the completion action before dequeuing further work so a task
  // enqueued by the action lands behind everything already queued. The
  // slot stays taken while its action runs.
  Task& task = slot(i);
  task.on_done();
  task.on_done.reset();
  --active_;
  start_next();
}

}  // namespace nimcast::netif
