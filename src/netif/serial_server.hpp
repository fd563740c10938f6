#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sim_time.hpp"
#include "sim/simulator.hpp"

namespace nimcast::netif {

/// A serializing work server: models a processing element (an NI
/// coprocessor, or a host CPU doing communication software) that executes
/// queued tasks FIFO.
///
/// Each task occupies one worker for a fixed duration, then its
/// completion action runs (still "on" the server conceptually, but at
/// zero additional cost — the action typically hands a packet to the
/// network or notifies the engine). Completion actions may enqueue
/// further tasks.
///
/// `workers` > 1 models a multi-engine NI (multiple DMA/send engines à
/// la modern multi-queue NICs): up to that many tasks run concurrently,
/// still started in FIFO order. The paper's 1997 NIs are workers == 1.
///
/// Allocation-free in the steady state: an action is any void() callable,
/// constructed in place as a sim::EventCallback inside one of two task
/// rings (normal and low lane), which allocate nothing until their first
/// task, grow by doubling, and give a large ring back when it drains. A
/// started task moves into a worker slot the server keeps, and its
/// completion is a typed event on (server, slot). Actions larger than
/// EventCallback's inline buffer live in the simulator's EventPool, so the
/// server must not outlive its simulator.
class SerialServer {
 public:
  explicit SerialServer(sim::Simulator& simctx, std::int32_t workers = 1)
      : sim_{simctx}, workers_{workers} {
    if (workers < 1) {
      throw std::invalid_argument("SerialServer: workers < 1");
    }
    extra_slots_.resize(static_cast<std::size_t>(workers - 1));
  }

  SerialServer(const SerialServer&) = delete;
  SerialServer& operator=(const SerialServer&) = delete;

  /// Appends a task taking `duration` of server time; `on_done` runs when
  /// the task finishes.
  template <typename F>
  void enqueue(sim::Time duration, F&& on_done) {
    queue_.push_back(duration, std::forward<F>(on_done), sim_.callback_pool());
    start_next();
  }

  /// Inserts a task ahead of all queued (but behind the in-service) work.
  template <typename F>
  void enqueue_front(sim::Time duration, F&& on_done) {
    queue_.push_front(duration, std::forward<F>(on_done),
                      sim_.callback_pool());
    start_next();
  }

  /// Appends to the *low-priority* lane, served only when the normal
  /// queue is empty. This models NI firmware that finishes forwarding the
  /// current packet before polling the receive queue for the next one —
  /// the structure of the paper's FCFS/FPFS pseudo-code (Figs. 6, 7):
  /// receive processing is enqueued here, send work in the normal lane.
  template <typename F>
  void enqueue_low(sim::Time duration, F&& on_done) {
    low_queue_.push_back(duration, std::forward<F>(on_done),
                         sim_.callback_pool());
    start_next();
  }

  [[nodiscard]] bool busy() const { return active_ > 0; }
  /// Tasks currently occupying a worker (<= workers()).
  [[nodiscard]] std::int32_t active() const { return active_; }
  [[nodiscard]] std::int32_t workers() const { return workers_; }
  [[nodiscard]] std::size_t queued() const {
    return queue_.size() + low_queue_.size();
  }
  /// Total time this server has spent executing tasks.
  [[nodiscard]] sim::Time busy_time() const { return busy_time_; }

 private:
  struct Task {
    sim::Time duration;
    sim::EventCallback on_done;
  };
  static_assert(sizeof(Task) == 64, "a ring task is one cache line");

  /// FIFO ring of tasks, open at both ends: power-of-two capacity,
  /// allocated on the first push and doubled when full (in FIFO order).
  class TaskRing {
   public:
    template <typename F>
    void push_back(sim::Time duration, F&& f, sim::EventPool& pool) {
      if (count_ == ring_.size()) grow();
      // Commit only once the action is built: a throwing capture copy
      // leaves the ring as it was.
      Task& t = ring_[(head_ + count_) & mask()];
      t.on_done.emplace(std::forward<F>(f), pool);
      t.duration = duration;
      ++count_;
    }
    template <typename F>
    void push_front(sim::Time duration, F&& f, sim::EventPool& pool) {
      if (count_ == ring_.size()) grow();
      const std::size_t at = (head_ + ring_.size() - 1) & mask();
      Task& t = ring_[at];
      t.on_done.emplace(std::forward<F>(f), pool);
      t.duration = duration;
      head_ = at;
      ++count_;
    }
    /// Moves the front task into `out` and removes it. Each entry holds
    /// an inline action buffer (64 bytes a task), so a ring that a burst
    /// grew past kKeptCapacity gives its storage back once it drains:
    /// idle servers do not hold their busiest moment's ring.
    void pop_front(Task& out) {
      out = std::move(ring_[head_]);
      head_ = (head_ + 1) & mask();
      if (--count_ == 0 && ring_.size() > kKeptCapacity) {
        ring_ = std::vector<Task>{};
        head_ = 0;
      }
    }
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }

   private:
    static constexpr std::size_t kKeptCapacity = 16;

    [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }
    void grow();

    std::vector<Task> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// Worker slot `i`'s in-service task; an empty action marks it free.
  [[nodiscard]] Task& slot(std::uint32_t i) {
    return i == 0 ? first_slot_ : extra_slots_[i - 1];
  }
  void start_next();
  /// Completion event of worker slot `i`.
  void finish(std::uint32_t i);
  /// finish(slot) as a typed event's thunk.
  static void finish_event(void* server, std::uint64_t slot) {
    static_cast<SerialServer*>(server)->finish(
        static_cast<std::uint32_t>(slot));
  }

  sim::Simulator& sim_;
  std::int32_t workers_;
  TaskRing queue_;
  TaskRing low_queue_;
  /// The in-service tasks: slot 0 inline (the paper's single-engine NI
  /// allocates nothing for it), slots 1.. for the extra workers.
  Task first_slot_;
  std::vector<Task> extra_slots_;
  std::int32_t active_ = 0;
  sim::Time busy_time_ = sim::Time::zero();
};

}  // namespace nimcast::netif
