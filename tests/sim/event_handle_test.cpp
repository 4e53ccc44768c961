// Focused coverage of Scheduler::EventHandle semantics: copy/cancel
// aliasing, pending() transitions across the whole lifecycle, and FIFO
// ordering of same-time events when cancellations are interleaved.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ftvod::sim {
namespace {

TEST(EventHandle, DefaultConstructedIsInert) {
  Scheduler::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
  EXPECT_FALSE(h.pending());
}

TEST(EventHandle, CancelAfterFireIsNoOp) {
  Scheduler s;
  int runs = 0;
  auto h = s.at(10, [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // the event already fired; this must change nothing
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(runs, 1);
}

TEST(EventHandle, DoubleCancelIsNoOp) {
  Scheduler s;
  bool ran = false;
  auto h = s.at(10, [&] { ran = true; });
  h.cancel();
  h.cancel();
  s.run();
  EXPECT_FALSE(ran);
}

TEST(EventHandle, CancellingOneCopyCancelsAllCopies) {
  Scheduler s;
  bool ran = false;
  auto a = s.at(10, [&] { ran = true; });
  Scheduler::EventHandle b = a;  // copy aliases the same event
  Scheduler::EventHandle c;
  c = b;
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_TRUE(c.pending());
  b.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  EXPECT_FALSE(c.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST(EventHandle, CopiesObserveFireThroughAnyAlias) {
  Scheduler s;
  auto a = s.at(10, [] {});
  const Scheduler::EventHandle b = a;
  s.run();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
}

TEST(EventHandle, PendingTransitions) {
  Scheduler s;
  auto h = s.at(100, [] {});
  EXPECT_TRUE(h.pending());  // scheduled
  s.run_until(50);
  EXPECT_TRUE(h.pending());  // still in the future
  s.run_until(100);
  EXPECT_FALSE(h.pending());  // fired
}

TEST(EventHandle, HandleOutlivingSchedulerUseIsSafeToQuery) {
  Scheduler s;
  auto h = s.at(5, [] {});
  s.run();
  // The handle is a {slot, generation} pair: firing released the slot and
  // bumped its generation, so querying or cancelling long after the queue
  // drained reads "not pending" and changes nothing.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
}

TEST(EventHandle, FifoOrderPreservedUnderInterleavedCancellation) {
  Scheduler s;
  std::vector<int> order;
  std::vector<Scheduler::EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(s.at(50, [&order, i] { order.push_back(i); }));
  }
  // Cancel every second event; the survivors must still run in the exact
  // schedule order, unaffected by the holes around them.
  for (int i = 0; i < 8; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7}));
}

TEST(EventHandle, CancelDuringSameTimeBatchStopsLaterEvent) {
  Scheduler s;
  std::vector<int> order;
  std::vector<Scheduler::EventHandle> handles;
  handles.push_back(s.at(50, [&] {
    order.push_back(0);
    handles[2].cancel();  // cancels a same-time event not yet run
  }));
  handles.push_back(s.at(50, [&] { order.push_back(1); }));
  handles.push_back(s.at(50, [&] { order.push_back(2); }));
  handles.push_back(s.at(50, [&] { order.push_back(3); }));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
}

TEST(EventHandle, ReschedulingPatternWithCancel) {
  // The timer idiom: cancel the old handle, schedule a new one. The old
  // cancellation must never leak into the replacement event.
  Scheduler s;
  int fired_at = -1;
  auto h = s.at(100, [&] { fired_at = 100; });
  h.cancel();
  h = s.at(200, [&] { fired_at = 200; });
  s.run();
  EXPECT_EQ(fired_at, 200);
  EXPECT_FALSE(h.pending());
}

}  // namespace
}  // namespace ftvod::sim
