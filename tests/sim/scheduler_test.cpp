#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ftvod::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(300, [&] { order.push_back(3); });
  s.at(100, [&] { order.push_back(1); });
  s.at(200, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(Scheduler, SameTimeEventsRunInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(50, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler s;
  Time fired = -1;
  s.at(100, [&] {
    s.after(50, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.at(100, [] {});
  s.run();
  Time fired = -1;
  s.at(10, [&] { fired = s.now(); });  // in the past
  s.run();
  EXPECT_EQ(fired, 100);
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  Time fired = -1;
  s.after(-50, [&] { fired = s.now(); });
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  auto h = s.at(10, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, HandleNotPendingAfterRun) {
  Scheduler s;
  auto h = s.at(10, [] {});
  s.run();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, RunUntilAdvancesClockEvenWithoutEvents) {
  Scheduler s;
  EXPECT_EQ(s.run_until(5000), 0u);
  EXPECT_EQ(s.now(), 5000);
}

TEST(Scheduler, RunUntilRunsOnlyDueEvents) {
  Scheduler s;
  std::vector<int> order;
  s.at(100, [&] { order.push_back(1); });
  s.at(200, [&] { order.push_back(2); });
  s.run_until(150);
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_EQ(s.now(), 150);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunUntilIncludesBoundary) {
  Scheduler s;
  bool ran = false;
  s.at(100, [&] { ran = true; });
  s.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.after(10, recurse);
  };
  s.after(10, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, ExecutedEventsCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Scheduler, CancelledEventsNotCounted) {
  Scheduler s;
  auto h = s.at(1, [] {});
  s.at(2, [] {});
  h.cancel();
  EXPECT_EQ(s.run(), 1u);
}

// Randomized differential test against the definition of the order: events
// run by (time, schedule sequence), so a std::set of (t, seq) pairs is the
// reference queue. Times are drawn from a few µs around now(), so most
// events tie with others and the seq tie-break decides their order. Events
// are cancelled from outside and from inside callbacks (a callback may
// cancel itself, already fired, or another event due at the same time),
// callbacks schedule at now(), and the loop advances by random run_until()
// horizons and single steps.
TEST(Scheduler, MatchesReferenceOrderUnderTiesAndCancels) {
  using Key = std::pair<Time, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    Scheduler s;
    std::set<Key> reference;
    struct Scheduled {
      Scheduler::EventHandle handle;
      Key key;
    };
    std::vector<Scheduled> scheduled;
    std::vector<Key> executed;
    std::vector<Key> expected;
    constexpr std::size_t kBudget = 4000;

    std::function<void()> schedule_one;
    // Picks among the 16 most recently scheduled events, most of them
    // still pending, some already run or cancelled.
    auto cancel_one = [&] {
      if (scheduled.empty()) return;
      const auto n = static_cast<std::int64_t>(scheduled.size());
      const Scheduled& e = scheduled[static_cast<std::size_t>(
          rng.uniform_int(std::max<std::int64_t>(n - 16, 0), n - 1))];
      EXPECT_EQ(e.handle.pending(), reference.count(e.key) == 1);
      Scheduler::EventHandle h = e.handle;
      h.cancel();
      reference.erase(e.key);
    };
    schedule_one = [&] {
      if (scheduled.size() >= kBudget) return;
      // Offsets of -2..3 µs: a negative one is a time in the past and
      // clamps to now(), so half the draws land in the running batch.
      const Duration offset = rng.uniform_int(-2, 3);
      const Key key{s.now() + std::max<Duration>(offset, 0), scheduled.size()};
      auto cb = [&, key] {
        ASSERT_FALSE(reference.empty());
        executed.push_back({s.now(), key.second});
        expected.push_back(*reference.begin());
        reference.erase(reference.begin());
        const std::int64_t spawn = rng.uniform_int(0, 9);
        if (spawn < 3) schedule_one();
        if (spawn < 1) schedule_one();
        if (rng.bernoulli(0.2)) cancel_one();
      };
      const Scheduler::EventHandle h = rng.bernoulli(0.5)
                                           ? s.at(s.now() + offset, cb)
                                           : s.after(offset, cb);
      reference.insert(key);
      scheduled.push_back({h, key});
    };

    while (scheduled.size() < kBudget) {
      for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) schedule_one();
      for (std::int64_t n = rng.uniform_int(0, 2); n > 0; --n) cancel_one();
      if (rng.bernoulli(0.2)) {
        s.step();
      } else {
        const Time horizon = s.now() + rng.uniform_int(0, 3);
        s.run_until(horizon);
        EXPECT_EQ(s.now(), horizon);
        if (!reference.empty()) {
          EXPECT_GT(reference.begin()->first, horizon);
        }
      }
      ASSERT_EQ(s.pending_events(), reference.size());
    }
    s.run();
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(s.executed_events(), executed.size());
    ASSERT_EQ(executed, expected);
  }
}

}  // namespace
}  // namespace ftvod::sim
