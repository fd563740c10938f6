#include "sim/simulator.hpp"

#include <utility>

#include "sim/rng.hpp"

namespace nimcast::sim {

void Simulator::throw_past_schedule(Time when) const {
  throw std::logic_error("Simulator::schedule_at: time " + when.to_string() +
                         " is in the past (now=" + now_.to_string() + ")");
}

void Simulator::fold_dispatch(DispatchDigest& digest,
                              const EventQueue::Fired& fired) {
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(fired.time.count_ns()), std::uint64_t{0},
        fired.order}) {
    digest.fnv = fnv1a(digest.fnv, word);
  }
  ++digest.events;
}

std::uint64_t Simulator::run(std::uint64_t event_limit) {
  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    auto ev = queue_.pop();
    begin_dispatch(ev);
    if (++fired > event_limit) {
      throw std::runtime_error("Simulator::run: event limit exceeded");
    }
    ev();
  }
  return fired;
}

std::uint64_t Simulator::run_until(Time until, std::uint64_t event_limit) {
  std::uint64_t fired = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto ev = queue_.pop();
    begin_dispatch(ev);
    if (++fired > event_limit) {
      throw std::runtime_error("Simulator::run_until: event limit exceeded");
    }
    ev();
  }
  if (until > now_) now_ = until;
  return fired;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  begin_dispatch(ev);
  ev();
  return true;
}

}  // namespace nimcast::sim
