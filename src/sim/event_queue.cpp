#include "sim/event_queue.hpp"

#include <algorithm>

namespace nimcast::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::CallbackStore::grow() {
  blocks_.push_back(std::make_unique<EventCallback[]>(kBlock));
  free_.reserve(capacity());
  // Reversed, so the block hands out its entries in address order.
  for (std::size_t i = kBlock; i-- > 0;) free_.push_back(&blocks_.back()[i]);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.heap_index = kNoHeapIndex;
  s.lane = kNoLane;
  ++s.generation;  // invalidates every outstanding EventId for this slot
  free_slots_.push_back(slot);
}

void EventQueue::heap_push(Time time, std::uint64_t order,
                           std::uint32_t slot) {
  heap_.push_back(HeapEntry{time, order, slot});
  slab_[slot].heap_index =
      static_cast<std::uint32_t>(sift_up(heap_.size() - 1));
}

std::size_t EventQueue::sift_up(std::size_t index) {
  const HeapEntry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[index] = heap_[parent];
    slab_[heap_[index].slot].heap_index = static_cast<std::uint32_t>(index);
    index = parent;
  }
  heap_[index] = entry;
  slab_[entry.slot].heap_index = static_cast<std::uint32_t>(index);
  return index;
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[index];
  for (;;) {
    const std::size_t first = 4 * index + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[index] = heap_[best];
    slab_[heap_[index].slot].heap_index = static_cast<std::uint32_t>(index);
    index = best;
  }
  heap_[index] = entry;
  slab_[entry.slot].heap_index = static_cast<std::uint32_t>(index);
}

void EventQueue::heap_remove(std::size_t index) {
  const std::size_t last = heap_.size() - 1;
  if (index != last) {
    heap_[index] = heap_[last];
    slab_[heap_[index].slot].heap_index = static_cast<std::uint32_t>(index);
    heap_.pop_back();
    // The displaced entry may belong above or below its new position.
    if (sift_up(index) == index) sift_down(index);
  } else {
    heap_.pop_back();
  }
}

std::uint32_t EventQueue::admit(DelayBucket& b, Time::rep delay) {
  if (b.delay != delay) {
    // First sighting in this bucket. Take the bucket over unless the
    // delay holding it still has events in its lane; an empty lane stays
    // with the bucket and serves the new delay if it recurs.
    if (b.lane == kNoLane || lanes_[b.lane].count == 0) b.delay = delay;
    return kNoLane;
  }
  // Second consecutive sighting without a lane: the delay recurs.
  const std::uint32_t lane = take_spare_lane();
  if (lane != kNoLane) {
    b.lane = lane;
    lanes_[lane].bucket = static_cast<std::uint32_t>(&b - buckets_.data());
  }
  return lane;
}

std::uint32_t EventQueue::take_spare_lane() {
  if (lanes_.size() < kMaxLanes) {
    lanes_.emplace_back();
    return static_cast<std::uint32_t>(lanes_.size() - 1);
  }
  while (!spare_lanes_.empty()) {
    const std::uint32_t lane = spare_lanes_.back();
    spare_lanes_.pop_back();
    Lane& ln = lanes_[lane];
    ln.spare = false;
    if (ln.count == 0) {  // still drained: hand it over
      DelayBucket& owner = buckets_[ln.bucket];
      if (owner.lane == lane) owner.lane = kNoLane;
      return lane;
    }
  }
  return kNoLane;
}

void EventQueue::lane_push_slow(Lane& ln, const LaneEntry& e) {
  if (ln.count == ln.ring.size()) {
    std::vector<LaneEntry> grown(std::max<std::size_t>(8, 2 * ln.ring.size()));
    for (std::uint32_t i = 0; i < ln.count; ++i) grown[i] = ln.at(i);
    ln.ring.swap(grown);
    ln.head = 0;
  }
  ln.at(ln.count++) = e;
  if (ln.count == 1) {
    heap_push(e.time, e.order, e.slot);  // the lane's head entry
  } else {
    assert(!(e.time < ln.at(ln.count - 2).time) && "lane out of order");
    slab_[e.slot].heap_index = kInLane;
  }
}

void EventQueue::lane_drained(std::uint32_t lane) {
  Lane& ln = lanes_[lane];
  if (!ln.spare) {
    ln.spare = true;
    spare_lanes_.push_back(lane);
  }
}

void EventQueue::drop_front(Lane& ln) {
  const auto mask = static_cast<std::uint32_t>(ln.ring.size() - 1);
  ln.head = (ln.head + 1) & mask;
  --ln.count;
  while (ln.dead != 0 && dead(ln.front())) {
    ln.head = (ln.head + 1) & mask;
    --ln.count;
    --ln.dead;
  }
}

void EventQueue::compact(Lane& ln) {
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < ln.count; ++i) {
    const LaneEntry e = ln.at(i);
    if (!dead(e)) ln.at(kept++) = e;
  }
  ln.count = kept;
  ln.dead = 0;
}

void EventQueue::lane_cancel(std::uint32_t slot) {
  const std::uint32_t lane = slab_[slot].lane;
  const std::uint32_t heap_index = slab_[slot].heap_index;
  Lane& ln = lanes_[lane];
  release_slot(slot);  // the generation bump marks its entry dead
  if (heap_index != kInLane) {
    // The lane's head: its heap entry moves to the next live entry.
    drop_front(ln);
    if (ln.count == 0) {
      heap_remove(heap_index);
      lane_drained(lane);
    } else {
      heap_[heap_index] = head_key(ln.front());
      sift_down(heap_index);
    }
  } else if (ln.back().slot == slot) {
    // The tail (schedule-then-cancel): drop it and any dead run before it.
    --ln.count;
    while (ln.dead != 0 && dead(ln.back())) {
      --ln.count;
      --ln.dead;
    }
  } else {
    ++ln.dead;
    if (ln.dead > ln.count - ln.dead) compact(ln);
  }
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.seq & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id.seq >> 32);
  if (slot >= slab_.size()) return false;
  Slot& s = slab_[slot];
  if (s.heap_index == kNoHeapIndex || s.generation != generation) {
    return false;
  }
  --live_;
  if (s.kind == EventKind::kGeneric) {
    store_->release(reinterpret_cast<EventCallback*>(s.arg));
  }
  if (s.lane != kNoLane) {
    lane_cancel(slot);
  } else {
    heap_remove(s.heap_index);
    release_slot(slot);
  }
  return true;
}

void EventQueue::reserve(std::size_t n) {
  slab_.reserve(n);
  heap_.reserve(n);
  free_slots_.reserve(n);
}

std::size_t EventQueue::callback_capacity() const {
  return store_->capacity();
}

std::size_t EventQueue::lane_capacity() const {
  std::size_t total = 0;
  for (const Lane& ln : lanes_) total += ln.ring.size();
  return total;
}

EventQueue::Fired EventQueue::pop() {
  assert(live_ != 0 && "pop() on empty queue");
  const HeapEntry top = heap_.front();
  Slot& s = slab_[top.slot];
  Fired fired{top.time, top.order, s.fn, s.target, s.arg, s.kind,
              {s.kind == EventKind::kGeneric
                   ? reinterpret_cast<EventCallback*>(s.arg)
                   : nullptr,
               ReturnToStore{store_.get()}}};
  const std::uint32_t lane = s.lane;
  release_slot(top.slot);
  // A direct caller may schedule behind the last pop; ref_ must not
  // follow it back, or a lane would stop being sorted.
  ref_ = std::max(ref_, top.time);
  --live_;
  if (lane != kNoLane) {
    Lane& ln = lanes_[lane];
    drop_front(ln);
    if (ln.count != 0) {
      // The lane's next event replaces its head entry at the root.
      heap_[0] = head_key(ln.front());
      sift_down(0);
      return fired;
    }
    lane_drained(lane);
  }
  const std::size_t last = heap_.size() - 1;
  if (last > 0) {
    heap_[0] = heap_[last];
    slab_[heap_[0].slot].heap_index = 0;
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return fired;
}

}  // namespace nimcast::sim
