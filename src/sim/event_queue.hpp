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

/// Move-only type-erased callback with small-buffer optimization.
///
/// Callables up to kInlineCapacity bytes live inline in the object (and
/// therefore inline in EventQueue's slot slab — no allocation at all);
/// larger ones are placed in the queue's EventPool, never on the global
/// heap. This is what makes scheduling an event allocation-free on the
/// hot path.
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
    ops_->call(obj_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(obj_);
      if (obj_ != inline_storage()) EventPool::release(obj_);
      ops_ = nullptr;
      obj_ = nullptr;
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
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  std::is_nothrow_move_constructible_v<D>) {
      obj_ = inline_storage();
    } else {
      obj_ = pool.allocate(sizeof(D));
    }
    ::new (obj_) D(std::forward<F>(f));
    ops_ = ops_for<D>();
  }

 private:
  struct Ops {
    void (*call)(void*);
    // Move-constructs into dst and destroys src; used when relocating an
    // inline callback (slab growth, move of the owning EventCallback).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    // Trivially copyable callable (the common `this` + a few ints
    // capture): relocation is a byte copy and destruction a no-op, so
    // every pop skips two indirect calls.
    bool trivial;
  };

  template <typename D>
  static const Ops* ops_for() {
    static constexpr Ops ops{
        [](void* obj) { (*static_cast<D*>(obj))(); },
        [](void* dst, void* src) noexcept {
          D* from = static_cast<D*>(src);
          ::new (dst) D(std::move(*from));
          from->~D();
        },
        [](void* obj) noexcept { static_cast<D*>(obj)->~D(); },
        std::is_trivially_copyable_v<D>};
    return &ops;
  }

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      obj_ = nullptr;
      return;
    }
    if (other.obj_ == other.inline_storage()) {
      obj_ = inline_storage();
      if (ops_->trivial) {
        std::memcpy(inline_, other.inline_, kInlineCapacity);
      } else {
        ops_->relocate(obj_, other.obj_);
      }
    } else {
      obj_ = other.obj_;  // pool chunk: steal the pointer
    }
    other.ops_ = nullptr;
    other.obj_ = nullptr;
  }

  [[nodiscard]] void* inline_storage() noexcept { return inline_; }
  [[nodiscard]] const void* inline_storage() const noexcept { return inline_; }

  const Ops* ops_ = nullptr;
  void* obj_ = nullptr;
  alignas(std::max_align_t) std::byte inline_[kInlineCapacity];
};

/// A time-ordered queue of callbacks.
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
class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() : pool_{std::make_unique<EventPool>()} {}
  EventQueue(EventQueue&&) noexcept = default;
  EventQueue& operator=(EventQueue&&) noexcept = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `f` at absolute time `when`.
  template <typename F>
  EventId schedule(Time when, F&& f) {
    const std::uint64_t order = next_order_++;
    const Time::rep delay = (when - ref_).count_ns();
    const std::uint32_t lane = delay >= 0 ? lane_for(delay) : kNoLane;
    if (lane == kNoLane) {
      return schedule_keyed(when, order, std::forward<F>(f));
    }
    const std::uint32_t slot = emplace_slot(std::forward<F>(f));
    lane_push(lane, LaneEntry{when, order, slot, slab_[slot].generation});
    return EventId{make_id(slot, slab_[slot].generation)};
  }

  /// Schedules `f` at `when` under `order`, a FIFO position claimed by
  /// reserve_order().
  template <typename F>
  EventId schedule_keyed(Time when, std::uint64_t order, F&& f) {
    const std::uint32_t slot = emplace_slot(std::forward<F>(f));
    heap_push(when, order, slot);
    ++live_;
    return EventId{make_id(slot, slab_[slot].generation)};
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

  /// Time of the earliest pending event. Queue must be non-empty.
  [[nodiscard]] Time next_time() const {
    assert(!heap_.empty() && "next_time() on empty queue");
    return heap_.front().time;
  }

  /// Removes and returns the earliest pending event. Queue must be
  /// non-empty. The returned callback may own pool storage; it must be
  /// destroyed before the queue (the simulator's dispatch loop does).
  /// `order` is the tie-break key the event was scheduled with.
  struct Fired {
    Time time;
    std::uint64_t order;
    Callback cb;
  };
  Fired pop();

  /// Number of event slots allocated in the slab (live + free-listed).
  /// Exposed for tests: schedule/cancel churn must not grow this beyond
  /// the peak number of *concurrently pending* events.
  [[nodiscard]] std::size_t slot_capacity() const { return slab_.size(); }

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

  struct Slot {
    std::uint32_t generation = 1;
    /// Heap position; kInLane for a lane event behind its lane's head;
    /// kNoHeapIndex when free.
    std::uint32_t heap_index = kNoHeapIndex;
    std::uint32_t lane = kNoLane;
    EventCallback cb;
  };
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

  /// Constructs `f` in place in a fresh slot and returns the slot.
  template <typename F>
  std::uint32_t emplace_slot(F&& f) {
    const std::uint32_t slot = acquire_slot();
    try {
      slab_[slot].cb.emplace(std::forward<F>(f), *pool_);
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    assert(slab_[slot].cb && "scheduling an empty callback");
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
  std::unique_ptr<EventPool> pool_;
  std::uint64_t next_order_ = 1;
  Time ref_ = Time::zero();  ///< latest popped time (running max)
  std::size_t live_ = 0;
};

}  // namespace nimcast::sim
