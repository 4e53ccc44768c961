// Discrete-event scheduler: a priority queue of (time, callback) events with
// deterministic FIFO ordering among same-time events.
//
// Storage is a slab: callbacks live in recycled slots addressed by
// {index, generation} handles, and the heap orders 24-byte entries, so
// steady-state scheduling (arm, fire, cancel, re-arm) performs zero heap
// allocations once the slab and heap vectors reach their high-water
// capacity. Cancellation leaves a tombstone in the heap; tombstones are
// popped lazily and never counted as executed events nor allowed to drag
// the clock past a run_until() horizon.
//
// In front of the heap sits a single-level timer wheel (1024 buckets of
// 2^kWheelShift µs each): events landing within the wheel's span are staged
// in their bucket as a bare slot index and only promoted into the heap when
// the drain cursor reaches their bucket — which happens before any event at
// or past that bucket's start time executes. Every slot stores its exact
// (t, seq), so promotion re-establishes the precise global order and the
// observable execution sequence is bit-identical with the wheel on or off.
// The win is O(1) staging for the short-horizon timers that dominate a
// simulation tick (frame sends, watchdogs, sync ticks) instead of O(log n)
// heap traffic, with the heap holding only far-future and drained-due
// entries. Cancelled wheel entries are skipped and recycled at drain time.
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

  Scheduler();
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

  /// Toggles the timer-wheel front end. Execution order is identical either
  /// way; the wheel only changes the cost profile. Disabling flushes every
  /// staged entry into the heap. Intended for before/after benchmarking.
  void set_wheel_enabled(bool on);
  [[nodiscard]] bool wheel_enabled() const { return wheel_enabled_; }
  /// Entries currently staged in wheel buckets (including tombstones);
  /// exposed for tests and benchmarks.
  [[nodiscard]] std::size_t wheel_staged() const { return wheel_total_; }
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Heap fan-out; see the note above heap_push() in scheduler.cpp.
  static constexpr std::size_t kArity = 4;
  /// Wheel bucket granularity: 2^10 µs ≈ 1 ms. With 1024 buckets the wheel
  /// spans ~1.05 s of virtual time — enough to stage display ticks (33 ms),
  /// watchdogs (100 ms), heartbeats (75 ms) and sync ticks (500 ms).
  static constexpr std::uint64_t kWheelShift = 10;
  static constexpr std::uint64_t kWheelBuckets = 1024;

  struct Slot {
    Callback cb;
    Time t = 0;          // exact fire time, kept for wheel promotion
    std::uint64_t seq = 0;  // exact schedule order, ditto
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
  /// Stages a freshly filled slot in the wheel or pushes it into the heap.
  void stage(std::uint32_t index);
  /// Establishes the invariant that the heap top (if any) is the global
  /// minimum: drains every wheel bucket whose start time could still hide
  /// an earlier event, then strips tombstones.
  void prepare_next();
  /// Runs the heap top; prepare_next() must have run since the last pop.
  void run_top();
  [[nodiscard]] static Time bucket_start(std::uint64_t bucket) {
    return static_cast<Time>(bucket << kWheelShift);
  }

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

  bool wheel_enabled_ = true;
  /// Absolute bucket index of the next undrained bucket. Every staged entry
  /// lives at an absolute bucket >= cursor (earlier buckets were drained)
  /// and < cursor-at-insert + kWheelBuckets, so residues are unique.
  std::uint64_t wheel_cursor_ = 0;
  std::size_t wheel_total_ = 0;
  std::vector<std::vector<std::uint32_t>> wheel_ =
      std::vector<std::vector<std::uint32_t>>(kWheelBuckets);
};

inline void Scheduler::EventHandle::cancel() {
  if (sched_ != nullptr) sched_->cancel_slot(index_, generation_);
}

inline bool Scheduler::EventHandle::pending() const {
  return sched_ != nullptr && sched_->slot_pending(index_, generation_);
}

}  // namespace ftvod::sim
