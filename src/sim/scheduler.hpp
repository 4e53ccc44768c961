// Discrete-event scheduler: a priority queue of (time, callback) events with
// deterministic FIFO ordering among same-time events.
//
// Storage is a slab plus one 4-ary heap. Callbacks live in recycled slots
// addressed by {index, generation} handles; the heap orders 24-byte
// {time, seq, slot} entries, and that entry is the only record of when an
// event fires. Steady-state scheduling (arm, fire, cancel, re-arm) performs
// zero heap allocations once the slab and heap vectors reach their
// high-water capacity. Cancellation leaves a tombstone in the heap;
// tombstones are popped lazily and never counted as executed events nor
// allowed to drag the clock past a run_until() horizon.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/small_function.hpp"

namespace ftvod::sim {

class Scheduler {
 public:
  /// Inline capacity covers every hot-path lambda in the library (the
  /// network's per-datagram closure is 16 bytes); anything bigger
  /// degrades gracefully to one heap allocation.
  using Callback = util::SmallFunction<void(), 64>;

  /// Cancellation token for a scheduled event. Copyable; cancelling any copy
  /// cancels the event. A default-constructed handle is inert. Handles must
  /// not outlive the Scheduler that issued them.
  class EventHandle {
   public:
    EventHandle() = default;
    void cancel();
    /// True when the event is still scheduled to fire.
    [[nodiscard]] bool pending() const;

   private:
    friend class Scheduler;
    EventHandle(Scheduler* sched, std::uint32_t index, std::uint32_t gen)
        : sched_(sched), index_(index), generation_(gen) {}
    Scheduler* sched_ = nullptr;
    std::uint32_t index_ = 0;
    std::uint32_t generation_ = 0;
  };

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules cb at absolute time t (clamped to now).
  EventHandle at(Time t, Callback cb);
  /// Schedules cb after a relative delay (clamped to 0).
  EventHandle after(Duration d, Callback cb);

  /// Runs the next event. Returns false when the queue is empty.
  bool step();
  /// Runs until the queue is empty; returns number of events run.
  std::size_t run();
  /// Runs all events with time <= t, then advances the clock to t.
  std::size_t run_until(Time t);
  /// Runs all events in the next d microseconds of virtual time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Number of live (non-cancelled) scheduled events.
  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Heap entries, tombstones included; read by the repository benchmark.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  /// Always 0: the timer wheel that staged events in front of the heap was
  /// measured at noise level and deleted. Kept only because the repository
  /// benchmark still reports it as sim.wheel_staged_peak; the next change
  /// to the benchmark deletes both.
  [[nodiscard]] std::size_t wheel_staged() const { return 0; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Heap fan-out; see the note above heap_push() in scheduler.cpp.
  static constexpr std::size_t kArity = 4;

  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNil;
    bool cancelled = false;
    bool in_use = false;
  };

  struct HeapEntry {
    Time t;
    std::uint64_t seq;  // tie-break: same-time events run in schedule order
    std::uint32_t slot;
  };

  static bool later(const HeapEntry& a, const HeapEntry& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void heap_push(HeapEntry e);
  HeapEntry heap_pop();
  /// Pops tombstones (cancelled events) off the heap top.
  void drop_cancelled();
  /// Runs the heap top; drop_cancelled() must have run since the last pop.
  void run_top();

  [[nodiscard]] bool slot_pending(std::uint32_t index,
                                  std::uint32_t gen) const {
    return index < slots_.size() && slots_[index].generation == gen &&
           slots_[index].in_use && !slots_[index].cancelled;
  }
  void cancel_slot(std::uint32_t index, std::uint32_t gen);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::vector<HeapEntry> heap_;
};

inline void Scheduler::EventHandle::cancel() {
  if (sched_ != nullptr) sched_->cancel_slot(index_, generation_);
}

inline bool Scheduler::EventHandle::pending() const {
  return sched_ != nullptr && sched_->slot_pending(index_, generation_);
}

}  // namespace ftvod::sim
