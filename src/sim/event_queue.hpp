#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_pool.hpp"
#include "sim/sim_time.hpp"

namespace nimcast::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Encodes (slot, generation); a default-constructed id never matches.
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] friend bool operator==(EventId, EventId) = default;
};

/// A typed event: `fn(target, arg)`. The simulator's hot events — a
/// wormhole header hop, a worm completion, an NI task finish — are a
/// capture-less static thunk, the object it acts on and one word, so
/// dispatching one is a single indirect call with nothing to construct,
/// move or destroy.
using EventFn = void (*)(void* target, std::uint64_t arg);

/// Layer tag of a scheduled event, carried in its queue slot and handed
/// back by EventQueue::pop. kGeneric marks an EventCallback (faults,
/// timers, arrivals, ticks, host work); typed events name the layer
/// whose thunk they run.
enum class EventKind : std::uint8_t {
  kGeneric = 0,
  kNetwork,  ///< wormhole header hop or worm completion
  kNi,       ///< NI coprocessor task finish (netif::SerialServer)
};

/// Move-only type-erased callback with small-buffer optimization.
///
/// Callables up to kInlineCapacity bytes (and pointer-aligned) live
/// inline in the object; larger or over-aligned ones are placed in an
/// EventPool, never on the global heap, and the inline buffer holds the
/// pointer to them. This is what makes scheduling an event
/// allocation-free on the hot path. The object is one ops-table pointer
/// plus the buffer: 56 bytes.
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() noexcept = default;
  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventCallback");
    ops_->call(storage_, 0);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Constructs `f` in place, using `pool` when it does not fit inline.
  template <typename F>
  void emplace(F&& f, EventPool& pool) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event callback must be invocable as void()");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned event callbacks are not supported");
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      void* obj = pool.allocate(sizeof(D));
      try {
        ::new (obj) D(std::forward<F>(f));
      } catch (...) {
        EventPool::release(obj);
        throw;
      }
      std::memcpy(storage_, &obj, sizeof obj);
    }
    ops_ = ops_for<D>();
  }

  /// The callback as a typed event: fn()(target(), 0) invokes it. Valid
  /// while the callback is non-empty and stays where it is.
  [[nodiscard]] EventFn fn() const noexcept { return ops_->call; }
  [[nodiscard]] void* target() noexcept { return storage_; }

 private:
  struct Ops {
    /// Invokes the callable behind the inline buffer's address.
    EventFn call;
    /// Move-constructs into dst and destroys src; nullptr when a byte
    /// copy of the buffer relocates it (a trivially copyable inline
    /// callable, or the pointer to a pooled one).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroys the callable (and frees its pool chunk); nullptr when
    /// there is nothing to do, so the common `this` + a few ints capture
    /// costs no indirect call to move or drop.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCapacity && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static const Ops* ops_for() {
    if constexpr (fits_inline<D>()) {
      static constexpr Ops ops{
          [](void* obj, std::uint64_t) { (*static_cast<D*>(obj))(); },
          std::is_trivially_copyable_v<D>
              ? nullptr
              : +[](void* dst, void* src) noexcept {
                  D* from = static_cast<D*>(src);
                  ::new (dst) D(std::move(*from));
                  from->~D();
                },
          std::is_trivially_destructible_v<D>
              ? nullptr
              : +[](void* obj) noexcept { static_cast<D*>(obj)->~D(); }};
      return &ops;
    } else {
      static constexpr Ops ops{
          [](void* storage, std::uint64_t) { (**static_cast<D**>(storage))(); },
          nullptr, [](void* storage) noexcept {
            D* obj = *static_cast<D**>(storage);
            obj->~D();
            EventPool::release(obj);
          }};
      return &ops;
    }
  }

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) std::byte storage_[kInlineCapacity];
};
static_assert(sizeof(EventCallback) == 56,
              "an EventCallback is an ops pointer and its inline buffer");

/// A time-ordered queue of events.
///
/// Ties in time are broken by insertion sequence number, so two events
/// scheduled for the same instant fire in the order they were scheduled.
/// This FIFO tie-break is load-bearing for determinism: NI coprocessors
/// schedule sends at identical times and the paper's disciplines (FCFS,
/// FPFS) are defined by service *order*.
///
/// Every event is keyed (time, order) and fires in ascending key order.
/// The plain schedule() path takes `order` from an insertion counter —
/// pure FIFO. reserve_order() claims a counter value without scheduling,
/// and schedule_keyed() replays a claimed value: a chain of events at
/// distinct times keeps one fixed position in the FIFO tie-break.
///
/// Implementation: delay lanes over an indexed 4-ary min-heap, on a slab
/// of pooled event slots. The model is constant-cost — nearly every
/// event lands at `now + one of a handful of fixed delays` (t_hop, NI
/// send/receive overheads, host start-up, drain times) — so:
///
///   - A plain schedule() whose delay `when - ref` recurs (ref = the
///     latest popped time, kept monotone) is appended to a FIFO ring for
///     that delay. ref and the insertion counter only grow, so each lane is
///     sorted by (time, order) by construction.
///   - Each non-empty lane's head sits in the heap as one entry. A push
///     onto a non-empty lane is O(1) and touches no heap; a pop sifts a
///     heap of (active lanes + other events) instead of every pending
///     event. The merge is exactly by (time, order), so dispatch order is
///     identical to a single heap over all events.
///   - Lane lookup is one probe of a small direct-mapped table keyed by
///     delay. A delay earns a lane on its second consecutive sighting in
///     its table bucket, and a lane changes hands only while it is empty,
///     so at most kMaxLanes delays hold lanes and a non-recurring delay
///     costs one probe on its way to the heap.
///   - Everything else — negative or one-off delays, and every
///     schedule_keyed() call — takes the heap path with its own key.
///
/// Scheduling allocates nothing on the hot path (slot reuse + inline
/// callback storage). Cancellation frees the slot immediately and bumps
/// its generation, so stale EventIds are rejected; a heap event leaves
/// the heap at once, a lane event is dropped at once when it is the
/// lane's head or tail (the schedule-then-cancel retry-timer pattern),
/// and one in mid-lane is skipped when it reaches the head, with the
/// lane compacted once its dead entries outnumber its live ones. Not
/// thread-safe; each worker thread owns its own queue.
///
/// Every slot holds a typed event {fn, target, arg} and its kind. A
/// generic callback is built in a side store whose entries never move:
/// its slot's fn is the callable's own call thunk and its target the
/// entry's inline buffer, so dispatch is one fn(target, arg) call either
/// way. The entry belongs to the queue until pop() and to the returned
/// Fired after it, which frees it whether or not it is invoked.
class EventQueue {
  class CallbackStore;

 public:
  EventQueue() : store_{std::make_unique<CallbackStore>()} {}
  EventQueue(EventQueue&&) noexcept = default;
  EventQueue& operator=(EventQueue&&) noexcept = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules the typed event fn(target, arg) at absolute time `when`.
  /// `kind` names its layer and must not be kGeneric.
  EventId schedule(Time when, EventFn fn, void* target, std::uint64_t arg,
                   EventKind kind) {
    assert(kind != EventKind::kGeneric && "typed events name their layer");
    return push(when, Event{fn, target, arg, kind});
  }

  /// Schedules `f` at absolute time `when`.
  template <typename F>
  EventId schedule(Time when, F&& f) {
    return push(when, wrap(std::forward<F>(f)));
  }

  /// Schedules `f` at `when` under `order`, a FIFO position claimed by
  /// reserve_order().
  template <typename F>
  EventId schedule_keyed(Time when, std::uint64_t order, F&& f) {
    return push_keyed(when, order, wrap(std::forward<F>(f)));
  }

  /// Claims the next FIFO insertion counter without scheduling anything.
  /// The claimed value can be replayed via schedule_keyed(when, key) at
  /// several *distinct* times — a self-rescheduling chain keeps one
  /// stable position in the FIFO tie-break (after everything scheduled
  /// before the claim, before everything scheduled after it).
  [[nodiscard]] std::uint64_t reserve_order() { return next_order_++; }

  /// Cancels a pending event. Returns false when the event already fired
  /// or was cancelled before. The slot is freed immediately, so
  /// schedule/cancel churn (e.g. retry timers) does not grow the queue.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Pre-sizes the slot slab and heap for `n` concurrent events.
  void reserve(std::size_t n);

  /// The overflow arena of this queue's callbacks. Components that keep
  /// their own EventCallbacks (NI task rings) place large captures here
  /// too; the queue, and so the arena, must outlive them.
  [[nodiscard]] EventPool& pool() { return store_->pool; }

  /// Time of the earliest pending event. Queue must be non-empty.
  [[nodiscard]] Time next_time() const {
    assert(!heap_.empty() && "next_time() on empty queue");
    return heap_.front().time;
  }

  /// Hands a popped generic event's callback back to its side store.
  struct ReturnToStore {
    CallbackStore* store = nullptr;
    void operator()(EventCallback* cb) const noexcept { store->release(cb); }
  };

  /// A popped event: its firing key, its typed form and its kind.
  /// Invoking it runs fn(target, arg). A generic event's callback is
  /// owned by `callback`, invoked or not, and returns to the queue's side
  /// store when the Fired is destroyed, which must happen before the
  /// queue is (the simulator's dispatch loop does).
  struct Fired {
    Time time;
    std::uint64_t order;  ///< the tie-break key it was scheduled with
    EventFn fn;
    void* target;
    std::uint64_t arg;
    EventKind kind;
    /// The generic event's callback; null for a typed event.
    std::unique_ptr<EventCallback, ReturnToStore> callback;

    void operator()() const { fn(target, arg); }
  };
  /// Removes and returns the earliest pending event. Queue must be
  /// non-empty.
  Fired pop();

  /// Number of event slots allocated in the slab (live + free-listed).
  /// Exposed for tests: schedule/cancel churn must not grow this beyond
  /// the peak number of *concurrently pending* events.
  [[nodiscard]] std::size_t slot_capacity() const { return slab_.size(); }

  /// Generic-callback entries allocated in the side store (live, held by
  /// a Fired, or free). Exposed for tests: it must track the peak number
  /// of callbacks alive at once, popped or pending.
  [[nodiscard]] std::size_t callback_capacity() const;

  /// Entries allocated across every lane ring (live, dead and unused).
  /// Exposed for tests: lane storage must stay bounded by the live lane
  /// events plus the ones cancelled within one delay window.
  [[nodiscard]] std::size_t lane_capacity() const;

 private:
  static constexpr std::uint32_t kNoHeapIndex = 0xffffffffu;
  /// heap_index of a lane event that is not its lane's head.
  static constexpr std::uint32_t kInLane = 0xfffffffeu;
  static constexpr std::uint32_t kNoLane = 0xffffffffu;
  static constexpr unsigned kBucketBits = 6;
  static constexpr std::uint32_t kMaxLanes = 16;

  /// Generic callbacks' home: fixed blocks of entries that never move, so
  /// a popped callback stays put while it runs and schedules more, and a
  /// free list of the entries not in use.
  class CallbackStore {
   public:
    EventPool pool;

    [[nodiscard]] EventCallback* acquire() {
      if (free_.empty()) grow();
      EventCallback* cb = free_.back();
      free_.pop_back();
      return cb;
    }
    /// `free_` holds a place for every entry, so this never allocates.
    void release(EventCallback* cb) noexcept {
      cb->reset();
      free_.push_back(cb);
    }
    [[nodiscard]] std::size_t capacity() const {
      return blocks_.size() * kBlock;
    }

   private:
    static constexpr std::size_t kBlock = 64;
    void grow();

    std::vector<std::unique_ptr<EventCallback[]>> blocks_;
    std::vector<EventCallback*> free_;
  };

  /// A typed event, as the schedule paths hand it to a slot.
  struct Event {
    EventFn fn;
    void* target;
    std::uint64_t arg;
    EventKind kind;
  };
  struct Slot {
    EventFn fn = nullptr;
    void* target = nullptr;
    std::uint64_t arg = 0;
    std::uint32_t generation = 1;
    /// Heap position; kInLane for a lane event behind its lane's head;
    /// kNoHeapIndex when free.
    std::uint32_t heap_index = kNoHeapIndex;
    std::uint32_t lane = kNoLane;
    EventKind kind = EventKind::kGeneric;
  };
  static_assert(sizeof(Slot) == 40, "a slot is a typed event and its index");
  struct HeapEntry {
    Time time;
    std::uint64_t order;
    std::uint32_t slot;
  };
  static_assert(sizeof(HeapEntry) == 24, "a heap entry is three words");
  /// A lane event: its key (time, order) and the slot generation it
  /// was scheduled under — a mismatch marks it cancelled.
  struct LaneEntry {
    Time time;
    std::uint64_t order;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// FIFO ring of one delay's events. The head and the tail are always
  /// live; `dead` counts the cancelled entries between them.
  struct Lane {
    std::vector<LaneEntry> ring;  ///< power-of-two size
    std::uint32_t head = 0;
    std::uint32_t count = 0;  ///< entries stored, live + dead
    std::uint32_t dead = 0;
    std::uint32_t bucket = 0;  ///< table bucket that owns this lane
    bool spare = false;        ///< listed in spare_lanes_

    [[nodiscard]] LaneEntry& at(std::uint32_t i) {
      return ring[(head + i) & (ring.size() - 1)];
    }
    [[nodiscard]] LaneEntry& front() { return at(0); }
    [[nodiscard]] LaneEntry& back() { return at(count - 1); }
  };
  struct DelayBucket {
    Time::rep delay = -1;  ///< latest delay seen in this bucket
    std::uint32_t lane = kNoLane;
  };

  static std::uint64_t make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) | slot;
  }
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  }
  static std::uint32_t bucket_of(Time::rep delay) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(delay) * 0x9e3779b97f4a7c15ull) >>
        (64 - kBucketBits));
  }

  /// Builds `f` in a side-store entry and returns its typed form.
  template <typename F>
  Event wrap(F&& f) {
    EventCallback* cb = store_->acquire();
    try {
      cb->emplace(std::forward<F>(f), store_->pool);
    } catch (...) {
      store_->release(cb);
      throw;
    }
    assert(*cb && "scheduling an empty callback");
    return Event{cb->fn(), cb->target(), reinterpret_cast<std::uintptr_t>(cb),
                 EventKind::kGeneric};
  }

  /// Schedules `ev` under the next insertion counter: on the lane of its
  /// delay when it has one, else on the heap.
  EventId push(Time when, const Event& ev) {
    const std::uint64_t order = next_order_++;
    const Time::rep delay = (when - ref_).count_ns();
    const std::uint32_t lane = delay >= 0 ? lane_for(delay) : kNoLane;
    if (lane == kNoLane) return push_keyed(when, order, ev);
    const std::uint32_t slot = fill_slot(ev);
    lane_push(lane, LaneEntry{when, order, slot, slab_[slot].generation});
    return EventId{make_id(slot, slab_[slot].generation)};
  }
  EventId push_keyed(Time when, std::uint64_t order, const Event& ev) {
    const std::uint32_t slot = fill_slot(ev);
    heap_push(when, order, slot);
    ++live_;
    return EventId{make_id(slot, slab_[slot].generation)};
  }
  std::uint32_t fill_slot(const Event& ev) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slab_[slot];
    s.fn = ev.fn;
    s.target = ev.target;
    s.arg = ev.arg;
    s.kind = ev.kind;
    return slot;
  }

  /// The lane a plain event `delay` past ref_ joins, or kNoLane.
  std::uint32_t lane_for(Time::rep delay) {
    DelayBucket& b = buckets_[bucket_of(delay)];
    if (b.delay == delay && b.lane != kNoLane) return b.lane;
    return admit(b, delay);
  }
  std::uint32_t admit(DelayBucket& b, Time::rep delay);
  std::uint32_t take_spare_lane();

  void lane_push(std::uint32_t lane, const LaneEntry& e) {
    Lane& ln = lanes_[lane];
    Slot& s = slab_[e.slot];
    s.lane = lane;
    ++live_;
    if (ln.count != 0 && ln.count < ln.ring.size()) {
      assert(!(e.time < ln.back().time) && "lane out of order");
      s.heap_index = kInLane;
      ln.at(ln.count++) = e;
      return;
    }
    lane_push_slow(ln, e);
  }
  void lane_push_slow(Lane& ln, const LaneEntry& e);
  void lane_drained(std::uint32_t lane);
  void lane_cancel(std::uint32_t slot);
  /// Removes the lane's head, then any cancelled entries behind it.
  void drop_front(Lane& ln);
  void compact(Lane& ln);
  [[nodiscard]] bool dead(const LaneEntry& e) const {
    return slab_[e.slot].generation != e.generation;
  }
  static HeapEntry head_key(const LaneEntry& e) {
    return HeapEntry{e.time, e.order, e.slot};
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(Time time, std::uint64_t order, std::uint32_t slot);
  void heap_remove(std::size_t index);
  std::size_t sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  std::vector<Lane> lanes_;
  /// Lanes that drained (possibly refilled since) — hand-off candidates.
  std::vector<std::uint32_t> spare_lanes_;
  std::array<DelayBucket, std::size_t{1} << kBucketBits> buckets_{};
  std::unique_ptr<CallbackStore> store_;
  std::uint64_t next_order_ = 1;
  Time ref_ = Time::zero();  ///< latest popped time (running max)
  std::size_t live_ = 0;
};

}  // namespace nimcast::sim
