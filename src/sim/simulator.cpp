#include "sim/simulator.hpp"

#include <utility>

namespace nimcast::sim {

void Simulator::throw_past_schedule(Time when) const {
  throw std::logic_error("Simulator::schedule_at: time " + when.to_string() +
                         " is in the past (now=" + now_.to_string() + ")");
}

void Simulator::fold_dispatch(DispatchDigest& digest,
                              const EventQueue::Fired& fired) {
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(fired.time.count_ns()), fired.hi,
        fired.lo}) {
    for (int byte = 0; byte < 8; ++byte) {
      digest.fnv ^= (word >> (8 * byte)) & 0xffu;
      digest.fnv *= 0x100000001b3ull;
    }
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
    ev.cb();
    end_dispatch();
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
    ev.cb();
    end_dispatch();
  }
  if (until > now_) now_ = until;
  return fired;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  begin_dispatch(ev);
  ev.cb();
  end_dispatch();
  return true;
}

}  // namespace nimcast::sim
