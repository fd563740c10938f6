#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

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
  /// queue's slot slab (or its pool), never on the global heap.
  template <typename F>
  EventId schedule_at(Time when, F&& cb) {
    if (when < now_) throw_past_schedule(when);
    if (shard_order_enabled()) {
      return queue_.schedule_keyed(when,
                                   static_cast<std::uint64_t>(now_.count_ns()),
                                   alloc_lo(), std::forward<F>(cb));
    }
    return queue_.schedule(when, std::forward<F>(cb));
  }

  /// Schedules `cb` `delay` after the current time; `delay >= 0` required.
  template <typename F>
  EventId schedule_in(Time delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Shard-order mode (used by sim::ShardedSimulator): reconstructs the
  /// serial engine's FIFO tie-break exactly. A serial run orders
  /// same-time events by insertion counter, and two counters compare
  /// like the lexicographic pair
  ///
  ///     (schedule time, (dispatch ordinal of the scheduling event,
  ///                      schedule-call index within that dispatch))
  ///
  /// because counters are handed out in dispatch order. The first
  /// component is the `hi` key (stamped at schedule time); the pair in
  /// the second component is the `lo` "lineage key". Events scheduled
  /// from single-threaded phases (setup, barrier-phase globals, between
  /// runs) get a final lineage key immediately from the shared
  /// ScheduleContext; events scheduled inside a window dispatch get a
  /// *provisional* key (kProvisionalBit | local dispatch index | call
  /// index) that the sharded driver rewrites to the final key at the
  /// next window barrier, once global dispatch ordinals for the closed
  /// window are known (see ShardedSimulator). A provisional key only
  /// ever ties in (time, hi) against keys from the same shard and
  /// window — cross-window ties are impossible because `hi` is the
  /// schedule time — so the provisional encoding is already
  /// order-correct locally, and kProvisionalBit sorts fresh events
  /// after single-threaded-phase events at the same (time, hi), which
  /// is exactly the serial counter order. Must be called before any
  /// event is scheduled.
  void enable_shard_order() { shard_order_ = true; }
  [[nodiscard]] bool shard_order_enabled() const { return shard_order_; }

  /// Lineage-key layout: lo = [provisional bit | ordinal or local
  /// dispatch index | schedule-call index].
  static constexpr unsigned kCallIdxBits = 18;
  static constexpr std::uint64_t kCallIdxMask = (1ull << kCallIdxBits) - 1;
  static constexpr std::uint64_t kProvisionalBit = 1ull << 63;

  /// Counter state for final lineage keys, shared by every shard of one
  /// ShardedSimulator (single-threaded phases only). `per_call` mode
  /// (setup, between runs) treats each schedule call as its own parent —
  /// matching the serial engine, where registration-time schedules get
  /// consecutive insertion counters; pinned mode is used while a global
  /// event runs, with `pinned_ordinal` = that event's dispatch ordinal.
  struct ScheduleContext {
    std::uint64_t next_ordinal = 0;
    std::uint64_t pinned_ordinal = 0;
    std::uint32_t idx = 0;
    bool per_call = true;
  };

  /// Installs the shared counter context and enables dispatch recording
  /// (the sharded driver drains the records at every window barrier).
  void set_schedule_context(ScheduleContext* ctx) {
    shared_ctx_ = ctx;
    recording_ = ctx != nullptr;
  }

  /// One dispatched event, in dispatch order, with the key it fired
  /// under — the input to the barrier's global ordinal assignment.
  struct DispatchRecord {
    Time time;
    std::uint64_t hi;
    std::uint64_t lo;
  };

  /// Moves the closed window's dispatch records into `out` (its old
  /// storage is recycled as the next window's buffer). The local dispatch
  /// index is *cumulative* — it never resets — so a provisional key's
  /// parent index identifies one dispatch of this shard across the whole
  /// run, and the sharded driver can defer the ordinal merge off the
  /// critical path (an ever-growing per-shard ordinal table resolves
  /// parents whenever a key actually needs finalizing). Single-threaded
  /// phases only.
  void drain_window_records(std::vector<DispatchRecord>& out) {
    out.clear();
    out.swap(records_);
  }

  /// Rewrites every pending provisional lineage key with `fn`
  /// (provisional lo -> final lo) in one heap pass. The sharded driver
  /// runs this as an *amortized compaction* (table-trim points and
  /// run() exit), not per window. Single-threaded phases only.
  template <typename Fn>
  void rekey_provisional(Fn&& fn) {
    queue_.rekey_lo([&fn](Time, std::uint64_t, std::uint64_t lo) {
      return (lo & kProvisionalBit) != 0 ? fn(lo) : lo;
    });
  }

  /// Targeted variant: rewrites only pending provisional keys whose
  /// (firing time, hi) the predicate selects. The sharded driver uses it
  /// when cross-shard mail lands: a freshly-inserted mailed event can tie
  /// a still-provisional local key at the same (time, hi), and only those
  /// tying keys need their final form early. Single-threaded phases only.
  template <typename Pred, typename Fn>
  void rekey_provisional_if(Pred&& pred, Fn&& fn) {
    queue_.rekey_lo([&](Time t, std::uint64_t hi, std::uint64_t lo) {
      return (lo & kProvisionalBit) != 0 && pred(t, hi) ? fn(lo) : lo;
    });
  }

  /// Allocates the (hi, lo) key a schedule call made right now would
  /// get, without scheduling — cross-shard mailboxes stamp messages at
  /// post() time so mailed events interleave with the sender's local
  /// schedules in call order. `provisional` tells the driver whether the
  /// lo key still needs barrier finalization. Requires shard-order mode.
  struct PostKey {
    std::uint64_t hi;
    std::uint64_t lo;
    bool provisional;
  };
  [[nodiscard]] PostKey alloc_post_key() {
    assert(shard_order_enabled());
    return PostKey{static_cast<std::uint64_t>(now_.count_ns()), alloc_lo(),
                   in_dispatch_};
  }

  /// Schedules `cb` at `when` with an explicit (hi, lo) tie-break key —
  /// the receive half of a cross-shard handoff: the *sender's* key is
  /// replayed into this shard's queue so the event fires exactly where a
  /// serial execution would have placed it.
  template <typename F>
  EventId schedule_at_keyed(Time when, std::uint64_t hi, std::uint64_t lo,
                            F&& cb) {
    if (when < now_) throw_past_schedule(when);
    return queue_.schedule_keyed(when, hi, lo, std::forward<F>(cb));
  }

  /// Claims a plain-FIFO tie-break counter (see EventQueue::
  /// reserve_order); pair with schedule_at_keyed(when, 0, key) to hold a
  /// fixed position in the default keying across a chain of events at
  /// distinct times. Default-keyed (non-shard-order) simulators only —
  /// shard-order mode draws keys from a different space.
  [[nodiscard]] std::uint64_t reserve_order() {
    assert(!shard_order_enabled());
    return queue_.reserve_order();
  }

  /// Advances the clock to `t` without dispatching anything; `t >= now()`
  /// required. Window barriers use this to line every shard up at an
  /// agreed instant (e.g. a fault time) before cross-shard work happens.
  void advance_to(Time t) {
    if (t < now_) throw_past_schedule(t);
    now_ = t;
  }

  /// Time of the most recently dispatched event (zero if none fired yet).
  /// Unlike now(), this does not move when run_until/advance_to push the
  /// clock past the last event — it is the shard-local piece of the
  /// "global now" a sharded run reports to callers.
  [[nodiscard]] Time last_event_time() const { return last_event_; }

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
  /// Time of the earliest pending event; requires !idle(). The sharded
  /// driver uses it to size the next conservative window.
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Pre-sizes the event queue for `n` concurrent events.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  /// Dispatch-order fingerprint for golden tests: an FNV-1a digest of
  /// every dispatched event's firing key (time, hi, lo), in dispatch
  /// order, plus the event count. While one is installed on a thread,
  /// every Simulator dispatching on that thread folds into it; a serial
  /// run's (time, lo) stream is its exact event order, so an unchanged
  /// digest proves an event-core rewrite kept every dispatch in place.
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

  /// Next lineage key. Inside a window dispatch: provisional, parented
  /// on the currently dispatching event's local index. Outside dispatch
  /// (single-threaded phases): final, from the shared context — or from
  /// a private fallback context for a standalone shard-order simulator,
  /// whose provisional keys are never rewritten but are already
  /// order-correct locally (see enable_shard_order()).
  [[nodiscard]] std::uint64_t alloc_lo() {
    if (in_dispatch_) {
      assert(window_dispatches_ > 0);
      assert(call_idx_ <= kCallIdxMask && "schedule calls per dispatch");
      return kProvisionalBit |
             ((window_dispatches_ - 1) << kCallIdxBits) | call_idx_++;
    }
    ScheduleContext& ctx = shared_ctx_ != nullptr ? *shared_ctx_ : own_ctx_;
    if (ctx.per_call) return ctx.next_ordinal++ << kCallIdxBits;
    assert(ctx.idx <= kCallIdxMask && "schedule calls per global event");
    return (ctx.pinned_ordinal << kCallIdxBits) | ctx.idx++;
  }

  /// Dispatch-loop bookkeeping shared by run/run_until/step.
  void begin_dispatch(const EventQueue::Fired& fired) {
    now_ = fired.time;
    last_event_ = fired.time;
    ++dispatched_;
    if (dispatch_digest_ != nullptr) fold_dispatch(*dispatch_digest_, fired);
    if (shard_order_) {
      ++window_dispatches_;
      call_idx_ = 0;
      in_dispatch_ = true;
      if (recording_) records_.push_back({fired.time, fired.hi, fired.lo});
    }
  }
  void end_dispatch() { in_dispatch_ = false; }

  EventQueue queue_;
  Time now_ = Time::zero();
  Time last_event_ = Time::zero();
  std::uint64_t dispatched_ = 0;
  std::vector<DispatchRecord> records_;
  ScheduleContext* shared_ctx_ = nullptr;
  ScheduleContext own_ctx_;
  std::uint64_t window_dispatches_ = 0;
  std::uint32_t call_idx_ = 0;
  bool in_dispatch_ = false;
  bool recording_ = false;
  bool shard_order_ = false;  // false = default FIFO keying
  static inline thread_local DispatchDigest* dispatch_digest_ = nullptr;
};

}  // namespace nimcast::sim
