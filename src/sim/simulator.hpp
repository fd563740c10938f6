#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/sim_time.hpp"

namespace nimcast::sim {

/// Sequential discrete-event simulator.
///
/// Entities (switches, network interfaces, hosts) schedule callbacks on the
/// shared simulator; `run()` dispatches them in time order until the event
/// queue drains. The simulator owns the clock: entities must never keep
/// their own notion of "now".
///
/// Typical use:
///
///     Simulator simctx;
///     simctx.schedule_in(Time::us(3.0), [] { /* NI send done */ });
///     simctx.run();
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing across callbacks.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` at absolute time `when`; `when >= now()` required.
  /// Accepts any void() callable; it is constructed directly in the event
  /// queue's callback store (or its pool), never on the global heap.
  template <typename F>
  EventId schedule_at(Time when, F&& cb) {
    if (when < now_) throw_past_schedule(when);
    return queue_.schedule(when, std::forward<F>(cb));
  }

  /// Schedules `cb` `delay` after the current time; `delay >= 0` required.
  template <typename F>
  EventId schedule_in(Time delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules the typed event fn(target, arg) of layer `kind` at `when`
  /// (see EventFn): the form of the hot per-packet events, which a slot
  /// holds with no callback to build or free.
  EventId schedule_at(Time when, EventFn fn, void* target, std::uint64_t arg,
                      EventKind kind) {
    if (when < now_) throw_past_schedule(when);
    return queue_.schedule(when, fn, target, arg, kind);
  }
  EventId schedule_in(Time delay, EventFn fn, void* target,
                      std::uint64_t arg, EventKind kind) {
    return schedule_at(now_ + delay, fn, target, arg, kind);
  }

  /// Claims a FIFO tie-break position without scheduling anything (see
  /// EventQueue::reserve_order). Pair it with schedule_at_keyed to give a
  /// chain of events at distinct times one fixed place among same-instant
  /// events: after everything scheduled before the claim, before
  /// everything scheduled after it. A coordinator that reserves its key
  /// during setup therefore runs before every same-instant event the run
  /// itself schedules.
  [[nodiscard]] std::uint64_t reserve_order() {
    return queue_.reserve_order();
  }

  /// Schedules `cb` at `when` under a position claimed by reserve_order().
  template <typename F>
  EventId schedule_at_keyed(Time when, std::uint64_t order, F&& cb) {
    if (when < now_) throw_past_schedule(when);
    return queue_.schedule_keyed(when, order, std::forward<F>(cb));
  }

  /// Cancels a pending event; returns false if it already ran.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Dispatches events until the queue drains. Returns the number of events
  /// dispatched. Throws std::runtime_error if more than `event_limit`
  /// events fire, which catches accidental infinite event loops (e.g. a
  /// retry that re-schedules itself at zero delay forever).
  std::uint64_t run(std::uint64_t event_limit = kDefaultEventLimit);

  /// Dispatches events with time <= `until`. Events scheduled past `until`
  /// stay pending and the clock is advanced to exactly `until`.
  std::uint64_t run_until(Time until,
                          std::uint64_t event_limit = kDefaultEventLimit);

  /// Runs at most one event. Returns false when the queue was empty.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Pre-sizes the event queue for `n` concurrent events.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  /// Overflow storage for callbacks too large for EventCallback's inline
  /// buffer (see EventQueue::pool).
  [[nodiscard]] EventPool& callback_pool() { return queue_.pool(); }

  /// Dispatch-order fingerprint for golden tests: an FNV-1a digest of
  /// every dispatched event's firing key, in dispatch order, plus the
  /// event count. Each key folds as the three words (time, 0, order) —
  /// the zero is the retired middle key word, kept so digests recorded
  /// before the key shrank still match. While one is installed on a
  /// thread, every Simulator dispatching on that thread folds into it;
  /// the (time, order) stream is the run's exact event order, so an
  /// unchanged digest proves an event-core rewrite kept every dispatch in
  /// place.
  struct DispatchDigest {
    std::uint64_t fnv = 0xcbf29ce484222325ull;
    std::uint64_t events = 0;
  };
  /// Installs `digest` on the calling thread (nullptr uninstalls).
  static void set_dispatch_digest(DispatchDigest* digest) {
    dispatch_digest_ = digest;
  }

  static constexpr std::uint64_t kDefaultEventLimit = 500'000'000;

 private:
  [[noreturn]] void throw_past_schedule(Time when) const;
  static void fold_dispatch(DispatchDigest& digest,
                            const EventQueue::Fired& fired);

  /// Dispatch-loop bookkeeping shared by run/run_until/step.
  void begin_dispatch(const EventQueue::Fired& fired) {
    now_ = fired.time;
    ++dispatched_;
    if (dispatch_digest_ != nullptr) fold_dispatch(*dispatch_digest_, fired);
  }

  EventQueue queue_;
  Time now_ = Time::zero();
  std::uint64_t dispatched_ = 0;
  static inline thread_local DispatchDigest* dispatch_digest_ = nullptr;
};

}  // namespace nimcast::sim
