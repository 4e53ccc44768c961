// Property tests for the slab scheduler: handle safety across slot
// recycling, tombstone semantics, and counting-allocator proofs that the
// steady-state paths (timer re-arm loop; frame encode + network send; frame
// receive into the client buffers + display) stay off the heap once warm,
// that the network's payload pool stays bounded when payload sizes mix, and
// that the paper-sized client buffers never outgrow their reservation.
// The binary overrides the global allocator to count every allocation,
// including any hidden inside std::function or shared_ptr — a regression
// that reintroduces per-event allocations fails these tests, not just the
// benchmark.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "mpeg/movie.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"
#include "vod/client_buffer.hpp"
#include "vod/wire.hpp"

// Under AddressSanitizer the counting hooks compile out; the handle-safety
// and throughput assertions still run, only the allocation counts are
// skipped.
#include "testing/counting_alloc.hpp"

using ftvod::testing::alloc_bytes;
using ftvod::testing::alloc_count;
using ftvod::testing::kCountingAlloc;

namespace ftvod::sim {
namespace {

TEST(SchedulerSlab, SameTimeFifoPreservedAcrossSlabReuse) {
  Scheduler s;
  // Round 1 populates the slab; later rounds recycle slots in LIFO free-list
  // order, so FIFO among same-time events must come from the sequence
  // number, not from slot indices.
  for (int round = 0; round < 3; ++round) {
    std::vector<int> order;
    const Time t = s.now() + 10;
    for (int i = 0; i < 8; ++i) {
      s.at(t, [&order, i] { order.push_back(i); });
    }
    s.run();
    const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(order, expected) << "round " << round;
  }
}

TEST(SchedulerSlab, StaleHandleAfterRecyclingIsInert) {
  Scheduler s;
  int a_runs = 0;
  int b_runs = 0;
  auto ha = s.after(5, [&] { ++a_runs; });
  s.run();
  ASSERT_EQ(a_runs, 1);
  // The new event recycles a's slot under a bumped generation; the stale
  // handle must read not-pending and its cancel must not hit b.
  auto hb = s.after(5, [&] { ++b_runs; });
  EXPECT_FALSE(ha.pending());
  ha.cancel();
  EXPECT_TRUE(hb.pending());
  s.run();
  EXPECT_EQ(b_runs, 1);
}

TEST(SchedulerSlab, CancelFromInsideCallback) {
  Scheduler s;
  int b_runs = 0;
  Scheduler::EventHandle hb;
  s.after(1, [&] { hb.cancel(); });
  hb = s.after(2, [&] { ++b_runs; });
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(b_runs, 0);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(SchedulerSlab, SelfCancelWhileRunningIsNoOp) {
  Scheduler s;
  int runs = 0;
  Scheduler::EventHandle h;
  h = s.after(1, [&] {
    EXPECT_FALSE(h.pending());  // no longer scheduled while executing
    h.cancel();
    ++runs;
  });
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST(SchedulerSlab, RunUntilNotDraggedByTombstoneAtTop) {
  Scheduler s;
  int late_runs = 0;
  auto h = s.after(100, [] {});
  s.after(200, [&] { ++late_runs; });
  h.cancel();
  // The cancelled top event must neither count as executed nor let the
  // beyond-horizon event run early.
  EXPECT_EQ(s.run_until(150), 0u);
  EXPECT_EQ(s.now(), 150);
  EXPECT_EQ(late_runs, 0);
  EXPECT_EQ(s.run_until(250), 1u);
  EXPECT_EQ(late_runs, 1);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(SchedulerSlab, HotPathLambdasFitInline) {
  // The capture sizes the scheduler's 64-byte inline buffer was chosen for:
  // the network delivery closure (~40 B) and timer re-arms (~16 B). If one
  // of these spills to the heap, every scheduled event allocates again.
  Scheduler* sched = nullptr;
  std::uint64_t id = 0;
  void* p1 = nullptr;
  void* p2 = nullptr;
  std::size_t sz = 0;
  auto delivery = [sched, p1, p2, id, sz] {
    (void)sched, (void)p1, (void)p2, (void)id, (void)sz;
  };
  auto rearm = [sched, id] { (void)sched, (void)id; };
  static_assert(Scheduler::Callback::stored_inline<decltype(delivery)>);
  static_assert(Scheduler::Callback::stored_inline<decltype(rearm)>);
  struct Oversized {
    char blob[80];
    void operator()() const {}
  };
  static_assert(!Scheduler::Callback::stored_inline<Oversized>);
}

TEST(SchedulerSlab, SteadyStateTimerLoopAllocationFree) {
  Scheduler sched;
  OneShotTimer timer(sched);
  std::uint64_t fired = 0;
  std::uint64_t payload[4] = {1, 2, 3, 4};
  std::function<void()> tick = [&] {
    payload[0] += payload[1] + payload[2] + payload[3];
    ++fired;
    timer.arm(10, [&] { tick(); });
  };
  timer.arm(10, [&] { tick(); });
  sched.run_until(sched.now() + 10'000);  // warmup: slab + heap high-water
  const std::uint64_t allocs_before = alloc_count;
  const std::uint64_t fired_before = fired;
  sched.run_until(sched.now() + 100'000);
  EXPECT_GT(fired, fired_before + 1'000);
  if (kCountingAlloc) {
    EXPECT_EQ(alloc_count - allocs_before, 0u);
  }
}

// The acceptance path of the allocation-free core: scheduler arm -> wire
// encode into a reused writer -> socket send through the pooled network.
// After warmup, a simulated second of frame traffic must not allocate.
TEST(SchedulerSlab, FrameSendPathAllocationFree) {
  Scheduler sched;
  util::Rng rng(7);
  net::Network net(sched, rng);
  const net::NodeId server = net.add_host("server");
  const net::NodeId client = net.add_host("client");
  std::uint64_t frames_received = 0;
  auto client_sock = net.bind(
      client, 2, [&](const net::Endpoint&, std::span<const std::byte> d) {
        if (vod::wire::decode<vod::wire::Frame>(d)) ++frames_received;
      });
  auto server_sock = net.bind(server, 1, nullptr);

  OneShotTimer timer(sched);
  util::Writer writer;
  std::uint64_t next_frame = 0;
  std::function<void()> tick = [&] {
    const vod::wire::Frame msg{1, next_frame++, mpeg::FrameType::kP, 6000};
    vod::wire::encode_into(msg, writer);
    server_sock->send(net::Endpoint{client, 2}, writer.buffer(),
                      6000 - writer.size());
    timer.arm(33'000, [&] { tick(); });  // ~30 fps
  };
  timer.arm(33'000, [&] { tick(); });

  sched.run_until(sched.now() + sec(5.0));  // warmup: writer + buffer pool
  const std::uint64_t allocs_before = alloc_count;
  const std::uint64_t frames_before = frames_received;
  sched.run_until(sched.now() + sec(30.0));
  EXPECT_GT(frames_received, frames_before + 800);
  if (kCountingAlloc) {
    EXPECT_EQ(alloc_count - allocs_before, 0u);
  }
}

TEST(SchedulerSlab, FrameReceivePathAllocationFree) {
  // The client half of the frame path: jittered, duplicating link -> socket
  // handler -> integrity check and decode -> ClientBuffers, with the display
  // consuming one frame per period. Frames arrive faster than the display
  // drains them, so the measured window covers reordering, duplicates and
  // overflow discards as well as the in-order case.
  Scheduler sched;
  util::Rng rng(11);
  net::Network net(sched, rng);
  net::LinkQuality q;
  q.jitter = usec(45'000);  // beyond the frame spacing: arrivals reorder
  q.duplicate = 0.02;
  net.set_default_quality(q);
  const net::NodeId server = net.add_host("server");
  const net::NodeId client = net.add_host("client");
  vod::ClientBuffers buffers(37, 240 * 1024, 5833);  // the paper's sizes
  auto client_sock = net.bind(
      client, 2, [&](const net::Endpoint&, std::span<const std::byte> d) {
        if (!util::frame_open(d)) return;
        if (const auto f = vod::wire::decode<vod::wire::Frame>(d)) {
          buffers.insert(mpeg::FrameInfo{f->frame_index, f->type,
                                         f->size_bytes});
        }
      });
  auto server_sock = net.bind(server, 1, nullptr);

  OneShotTimer send_timer(sched);
  util::Writer writer;
  std::uint64_t next_frame = 0;
  std::function<void()> send = [&] {
    const std::uint64_t i = next_frame++;
    const auto type = i % 12 == 0  ? mpeg::FrameType::kI
                      : i % 3 == 0 ? mpeg::FrameType::kP
                                   : mpeg::FrameType::kB;
    const std::uint32_t size = type == mpeg::FrameType::kI ? 14'000 : 4'500;
    vod::wire::encode_into(vod::wire::Frame{1, i, type, size}, writer);
    server_sock->send(net::Endpoint{client, 2}, writer.buffer(),
                      size - writer.size());
    send_timer.arm(28'000, [&] { send(); });  // ~36 fps
  };
  send_timer.arm(28'000, [&] { send(); });
  PeriodicTimer display(sched, 33'333, [&] { (void)buffers.consume(); });
  display.start();

  sched.run_until(sched.now() + sec(5.0));  // warmup: pools, buffer array
  const std::uint64_t allocs_before = alloc_count;
  const vod::BufferCounters before = buffers.view().counters();
  sched.run_until(sched.now() + sec(30.0));
  const vod::BufferCounters after = buffers.view().counters();
  EXPECT_GT(after.displayed, before.displayed + 800);
  EXPECT_GT(after.late, before.late);
  EXPECT_GT(after.overflow_discards, before.overflow_discards);
  if (kCountingAlloc) {
    EXPECT_EQ(alloc_count - allocs_before, 0u);
  }
}

TEST(SchedulerSlab, PayloadPoolStaysBoundedUnderMixedSizes) {
  // Tiny datagrams with an occasional large one, over a jittered link so
  // buffers return to the pool out of order. A pool that lets every buffer
  // keep the largest payload it ever carried hands the large capacity on
  // to ever more small payloads, and the large sends keep allocating.
  Scheduler sched;
  util::Rng rng(3);
  net::Network net(sched, rng);
  net::LinkQuality q;
  q.jitter = msec(2);
  net.set_default_quality(q);
  const net::NodeId a = net.add_host("a");
  const net::NodeId b = net.add_host("b");
  std::uint64_t received = 0;
  auto sink = net.bind(
      b, 2, [&](const net::Endpoint&, std::span<const std::byte>) {
        ++received;
      });
  auto source = net.bind(a, 1, nullptr);
  const std::vector<std::byte> small(30);
  const std::vector<std::byte> large(40'000);

  OneShotTimer timer(sched);
  std::uint64_t sent = 0;
  std::function<void()> tick = [&] {
    source->send(net::Endpoint{b, 2}, ++sent % 500 == 0 ? large : small);
    timer.arm(usec(50), [&] { tick(); });
  };
  timer.arm(usec(50), [&] { tick(); });

  sched.run_until(sched.now() + sec(1.0));  // warmup
  const std::uint64_t bytes_before = alloc_bytes;
  const std::uint64_t received_before = received;
  sched.run_until(sched.now() + sec(19.0));
  EXPECT_GT(received, received_before + 300'000);
  if (kCountingAlloc) {
    EXPECT_LT(alloc_bytes - bytes_before, 64u * 1024);
  }
}

TEST(SchedulerSlab, PaperSizedClientBuffersAllocateOnlyTheirReservation) {
  // Ten minutes of the paper's movie into the paper's buffers (a 37-frame
  // software buffer, a 240 KB decoder) while the display drains one frame
  // per 30 fps period. Arrivals alternate 10 s spells 40 % faster and 20 %
  // slower than the display, so the software stage fills, overflows and
  // drains again; about one in ten frames overtakes its predecessor and
  // one in fifty arrives twice. The array's construction-time reservation
  // must hold the whole run: that reservation is the one allocation.
  const auto movie = mpeg::Movie::synthetic("paper", 700.0);
  util::Rng rng(5);
  const std::uint64_t allocs_before = alloc_count;
  vod::ClientBuffers buffers(37, 240 * 1024, movie->avg_frame_bytes());
  std::array<std::uint64_t, 2> unsent{0, 1};  // the next two, ascending
  std::uint64_t next_unsent = 2;
  const auto arrive = [&] {
    const std::size_t pick = rng.bernoulli(0.1) ? 1 : 0;
    const mpeg::FrameInfo frame = movie->frame(unsent[pick]);
    unsent[pick] = next_unsent++;
    if (unsent[0] > unsent[1]) std::swap(unsent[0], unsent[1]);
    buffers.insert(frame);
    if (rng.bernoulli(0.02)) buffers.insert(frame);
  };
  for (int tick = 0; tick < 600 * 30; ++tick) {
    const bool fast = tick / 300 % 2 == 0;
    if (fast || rng.bernoulli(0.8)) arrive();
    if (fast && rng.bernoulli(0.4)) arrive();
    (void)buffers.consume();
  }
  const std::uint64_t allocs = alloc_count - allocs_before;
  const vod::BufferCounters c = buffers.view().counters();
  EXPECT_GT(c.displayed, 17'000u);
  EXPECT_GT(c.late, 100u);
  EXPECT_GT(c.overflow_discards, 100u);
  if (kCountingAlloc) {
    EXPECT_EQ(allocs, 1u);
  }
}

}  // namespace
}  // namespace ftvod::sim
