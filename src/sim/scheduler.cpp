#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace ftvod::sim {

Scheduler::Scheduler() {
  // Seed every bucket with a little capacity up front so staging an event
  // in a never-touched bucket does not allocate mid-run; a loaded bucket
  // grows past this once and then holds its high-water capacity, exactly
  // like the heap and slab vectors.
  for (std::vector<std::uint32_t>& bucket : wheel_) bucket.reserve(8);
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].next_free = kNil;
    slots_[idx].in_use = true;
    slots_[idx].cancelled = false;
    return idx;
  }
  slots_.emplace_back();
  slots_.back().in_use = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.cb.reset();
  ++s.generation;  // invalidates every outstanding handle to this slot
  s.in_use = false;
  s.cancelled = false;
  s.next_free = free_head_;
  free_head_ = index;
}

// The heap is kArity-ary rather than binary: workloads with many far-future
// events (timeout decoys, cancelled-timer tombstones) keep hundreds of
// thousands of entries resident, and a wider node roughly halves the levels
// each push/pop touches — fewer cache misses on a heap that outgrows L2.
// Sifting moves a hole instead of swapping, so each level costs one copy.

void Scheduler::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);  // placeholder; the hole ends up holding e below
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

Scheduler::HeapEntry Scheduler::heap_pop() {
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (later(heap_[best], heap_[c])) best = c;
      }
      if (!later(last, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void Scheduler::drop_cancelled() {
  while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
    release_slot(heap_pop().slot);
  }
}

void Scheduler::cancel_slot(std::uint32_t index, std::uint32_t gen) {
  if (!slot_pending(index, gen)) return;
  Slot& s = slots_[index];
  s.cancelled = true;
  s.cb.reset();  // release captured resources now; the heap entry lingers
  --live_;
}

void Scheduler::stage(std::uint32_t index) {
  const Slot& s = slots_[index];
  if (wheel_enabled_) {
    if (wheel_total_ == 0) {
      // Empty wheel: snap the cursor forward so the span starts at "now"
      // instead of wherever the last drain left it.
      const std::uint64_t here = static_cast<std::uint64_t>(now_) >> kWheelShift;
      if (here > wheel_cursor_) wheel_cursor_ = here;
    }
    const std::uint64_t b = static_cast<std::uint64_t>(s.t) >> kWheelShift;
    if (b >= wheel_cursor_ && b < wheel_cursor_ + kWheelBuckets) {
      wheel_[b & (kWheelBuckets - 1)].push_back(index);
      ++wheel_total_;
      return;
    }
  }
  // Past the cursor (fires this bucket) or beyond the span: straight to
  // the heap. Far-future events never cascade — one move, ever.
  heap_push(HeapEntry{s.t, s.seq, index});
}

void Scheduler::prepare_next() {
  drop_cancelled();
  // Heap top at time T is safe to run only once every bucket starting at or
  // before T is drained: an undrained bucket b holds events with
  // t >= bucket_start(b), so bucket_start(cursor) > T proves nothing staged
  // can precede T. With an empty heap, keep draining until something lands.
  while (wheel_total_ > 0 &&
         (heap_.empty() || bucket_start(wheel_cursor_) <= heap_.front().t)) {
    std::vector<std::uint32_t>& bucket =
        wheel_[wheel_cursor_ & (kWheelBuckets - 1)];
    ++wheel_cursor_;
    if (bucket.empty()) continue;
    for (const std::uint32_t idx : bucket) {
      --wheel_total_;
      if (slots_[idx].cancelled) {
        release_slot(idx);
      } else {
        heap_push(HeapEntry{slots_[idx].t, slots_[idx].seq, idx});
      }
    }
    bucket.clear();  // keeps capacity: steady state stays allocation-free
    drop_cancelled();
  }
}

void Scheduler::set_wheel_enabled(bool on) {
  if (on == wheel_enabled_) return;
  wheel_enabled_ = on;
  if (on) return;
  for (std::vector<std::uint32_t>& bucket : wheel_) {
    for (const std::uint32_t idx : bucket) {
      if (slots_[idx].cancelled) {
        release_slot(idx);
      } else {
        heap_push(HeapEntry{slots_[idx].t, slots_[idx].seq, idx});
      }
    }
    bucket.clear();
  }
  wheel_total_ = 0;
}

Scheduler::EventHandle Scheduler::at(Time t, Callback cb) {
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.t = std::max(t, now_);
  s.seq = next_seq_++;
  stage(idx);
  ++live_;
  return EventHandle{this, idx, slots_[idx].generation};
}

Scheduler::EventHandle Scheduler::after(Duration d, Callback cb) {
  return at(now_ + std::max<Duration>(d, 0), std::move(cb));
}

bool Scheduler::step() {
  prepare_next();
  if (heap_.empty()) return false;
  run_top();
  return true;
}

void Scheduler::run_top() {
  const HeapEntry e = heap_pop();
  // Move the callback out and retire the slot *before* invoking: the
  // callback may reschedule into the same slot, and handles must already
  // read "not pending" while it runs (it is no longer scheduled).
  Callback cb = std::move(slots_[e.slot].cb);
  release_slot(e.slot);
  --live_;
  now_ = e.t;
  ++executed_;
  cb();
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(Time t) {
  std::size_t n = 0;
  while (true) {
    // Tombstones must not gate the loop: a cancelled far-future event on
    // top of the heap neither blocks earlier live events nor drags the
    // clock past t when step() skips it. prepare_next() also guarantees
    // nothing staged in the wheel could still precede the heap top.
    prepare_next();
    if (heap_.empty() || heap_.front().t > t) break;
    run_top();
    ++n;
  }
  now_ = std::max(now_, t);
  return n;
}

}  // namespace ftvod::sim
