// Receiver-downlink model: serialization, tail-drop under contention, and
// the background traffic generator.
#include <gtest/gtest.h>

#include "net/traffic.hpp"

namespace ftvod::net {
namespace {

util::Bytes small_msg() {
  util::Writer w;
  w.u32(7);
  return w.take();
}

class DownlinkTest : public ::testing::Test {
 protected:
  DownlinkTest() : rng_(5), net_(sched_, rng_) {
    a_ = net_.add_host("sender");
    HostConfig slow;
    slow.downlink_bps = 1e6;  // 1 Mbps last mile
    slow.downlink_queue_bytes = 8'000;
    b_ = net_.add_host("receiver", slow);
  }

  sim::Scheduler sched_;
  util::Rng rng_;
  Network net_;
  NodeId a_, b_;
};

TEST_F(DownlinkTest, SerializationDelaysDelivery) {
  auto sa = net_.bind(a_, 1, nullptr);
  sim::Time arrival = 0;
  auto sb = net_.bind(b_, 2, [&](const Endpoint&, std::span<const std::byte>) {
    arrival = sched_.now();
  });
  // 10 KB at a 1 Mbps downlink ~ 80 ms.
  sa->send({b_, 2}, small_msg(), 10'000);
  sched_.run();
  EXPECT_GT(arrival, sim::msec(75));
}

TEST_F(DownlinkTest, BurstBeyondQueueDrops) {
  auto sa = net_.bind(a_, 1, nullptr);
  int got = 0;
  auto sb = net_.bind(
      b_, 2, [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  for (int i = 0; i < 50; ++i) sa->send({b_, 2}, small_msg(), 1'000);
  sched_.run();
  EXPECT_LT(got, 50);
  EXPECT_GT(net_.stats(b_).dropped_queue, 0u);
}

TEST_F(DownlinkTest, JunkToUnboundPortStillConsumesDownlink) {
  // Background traffic addressed to nobody still occupies the last mile
  // and delays/drops the real stream.
  auto sa = net_.bind(a_, 1, nullptr);
  const NodeId junk_src = net_.add_host("junk");
  auto junk_sock = net_.bind(junk_src, 9, nullptr);
  // Saturate the downlink with junk first and let it queue up.
  for (int i = 0; i < 30; ++i) junk_sock->send({b_, 777}, small_msg(), 1'000);
  sched_.run_until(sim::msec(5));
  sim::Time arrival = 0;
  auto sb = net_.bind(b_, 2, [&](const Endpoint&, std::span<const std::byte>) {
    arrival = sched_.now();
  });
  sa->send({b_, 2}, small_msg(), 100);
  sched_.run();
  // Either delayed behind the queued junk or dropped with it.
  if (arrival > 0) {
    EXPECT_GT(arrival, sim::msec(20));
  } else {
    EXPECT_GT(net_.stats(b_).dropped_queue, 0u);
  }
}

TEST_F(DownlinkTest, DefaultDownlinkIsTransparent) {
  sim::Scheduler sched;
  util::Rng rng(1);
  Network net(sched, rng);
  const NodeId x = net.add_host("x");
  const NodeId y = net.add_host("y");  // default ~1 Gbps downlink
  auto sx = net.bind(x, 1, nullptr);
  int got = 0;
  auto sy = net.bind(
      y, 2, [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  // Stay under the sender's own uplink queue: the point is the receiver.
  for (int i = 0; i < 50; ++i) sx->send({y, 2}, small_msg(), 6'000);
  sched.run();
  EXPECT_EQ(got, 50);  // nothing dropped at the receiver
  EXPECT_EQ(net.stats(y).dropped_queue, 0u);
}

// One scheduler event per datagram: its hand-off event is scheduled at send
// time for first bit + downlink serialization, and only a datagram that
// finds the downlink busy takes a second one. On the fixture's links a
// datagram of `wire` bytes leaves the 100 Mbps uplink after wire * 0.08 µs
// (truncated), travels 200 µs, and serializes at 8 µs per byte on the
// receiver's 1 Mbps downlink.
constexpr std::size_t kBigWire = 4 + 1'000 + Network::kHeaderBytes;  // 1032
constexpr sim::Duration kBigUplink = 82;                   // 82.56 µs
constexpr sim::Duration kBigDownlink = 8 * kBigWire;       // 8256 µs
constexpr sim::Duration kPropagation = 200;

TEST_F(DownlinkTest, IdleDownlinkDatagramCostsOneEvent) {
  auto sa = net_.bind(a_, 1, nullptr);
  std::vector<sim::Time> at;
  auto sb = net_.bind(b_, 2, [&](const Endpoint&, std::span<const std::byte>) {
    at.push_back(sched_.now());
  });
  sa->send({b_, 2}, small_msg(), 1'000);
  EXPECT_EQ(sched_.run(), 1u);
  EXPECT_EQ(at, std::vector<sim::Time>{kBigUplink + kPropagation +
                                       kBigDownlink});
  EXPECT_EQ(net_.stats(b_).downlink_waits, 0u);

  // A datagram that serializes in under 1 µs is handed off at its first bit.
  const NodeId fast = net_.add_host("fast");
  sim::Time fast_at = 0;
  auto sf = net_.bind(fast, 2, [&](const Endpoint&,
                                   std::span<const std::byte>) {
    fast_at = sched_.now();
  });
  const sim::Time sent = sched_.now();
  sa->send({fast, 2}, small_msg());
  EXPECT_EQ(sched_.run(), 1u);
  EXPECT_EQ(fast_at, sent + 2 + kPropagation);  // 32 B: 2.56 µs uplink
}

TEST_F(DownlinkTest, SmallDatagramWaitsForALargerEarlierOne) {
  // The small datagram's first bit arrives while the large one is still
  // serializing, and its own event comes first (it holds the downlink for
  // only 256 µs). Booking in first-bit order queues it behind the large one
  // anyway, as a downlink that received the bits in that order would.
  const NodeId j = net_.add_host("other-sender");
  auto sj = net_.bind(j, 1, nullptr);
  auto sa = net_.bind(a_, 1, nullptr);
  std::vector<std::pair<sim::Time, std::size_t>> got;
  auto sb = net_.bind(b_, 2, [&](const Endpoint&,
                                 std::span<const std::byte> d) {
    got.emplace_back(sched_.now(), d.size());
  });
  sj->send({b_, 2}, small_msg(), 1'000);
  sched_.at(1'000, [&] { sa->send({b_, 2}, small_msg()); });
  // Events: the scheduled send, the large datagram's, and two for the
  // small one (its arrival, then its hand-off after the wait).
  EXPECT_EQ(sched_.run(), 4u);
  const sim::Time big_done = kBigUplink + kPropagation + kBigDownlink;
  const std::vector<std::pair<sim::Time, std::size_t>> want{
      {big_done, 4}, {big_done + 8 * 32, 4}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(net_.stats(b_).downlink_waits, 1u);
}

TEST_F(DownlinkTest, DuplicateCopiesQueueBehindEachOther) {
  LinkQuality q;
  q.duplicate = 1.0;
  net_.set_quality(a_, b_, q);
  auto sa = net_.bind(a_, 1, nullptr);
  std::vector<sim::Time> at;
  auto sb = net_.bind(b_, 2, [&](const Endpoint&, std::span<const std::byte>) {
    at.push_back(sched_.now());
  });
  sa->send({b_, 2}, small_msg(), 1'000);
  // Both copies' first bits arrive together; the second one serializes
  // after the first, at the cost of one extra event.
  EXPECT_EQ(sched_.run(), 3u);
  const sim::Time first = kBigUplink + kPropagation + kBigDownlink;
  EXPECT_EQ(at, (std::vector<sim::Time>{first, first + kBigDownlink}));
  EXPECT_EQ(net_.stats(b_).downlink_waits, 1u);
}

TEST_F(DownlinkTest, CrashAndRestoreBookWhatArrivedBeforeThem) {
  const NodeId far = net_.add_host("far-sender");
  LinkQuality slow_path;
  slow_path.base_delay = sim::msec(5);
  net_.set_quality(far, b_, slow_path);
  auto sa = net_.bind(a_, 1, nullptr);
  auto sf = net_.bind(far, 1, nullptr);
  std::vector<sim::Time> at;
  auto sb = net_.bind(b_, 2, [&](const Endpoint&, std::span<const std::byte>) {
    at.push_back(sched_.now());
  });
  // X's first bit reaches the live host at 282 µs, and its event is due at
  // 8538 µs. Y's first bit lands at 5082 µs, while the host is down, and
  // its event is due after the restore.
  sa->send({b_, 2}, small_msg(), 1'000);
  sf->send({b_, 2}, small_msg(), 1'000);
  sched_.run_until(1'000);
  net_.crash_host(b_);
  sched_.run_until(6'000);
  net_.restore_host(b_);
  sched_.run();
  // X was booked when the crash came, so it keeps its slot across the
  // reboot; Y reached a dead host and is gone, whenever its event fires.
  EXPECT_EQ(at, std::vector<sim::Time>{kBigUplink + kPropagation +
                                       kBigDownlink});
  EXPECT_EQ(net_.stats(b_).dropped_unreachable, 1u);
  EXPECT_EQ(net_.stats(b_).datagrams_received, 1u);
}

TEST(TrafficGenerator, ProducesConfiguredRate) {
  sim::Scheduler sched;
  util::Rng rng(1);
  Network net(sched, rng);
  const NodeId src = net.add_host("src");
  const NodeId dst = net.add_host("dst");
  TrafficGenerator gen(sched, net, src, dst, /*rate_bps=*/2e6,
                       /*datagram_bytes=*/1000);
  sched.run_until(sim::sec(2.0));
  // 2 Mbps in 1000-byte datagrams = 250/s; over 2 s ~ 500.
  EXPECT_NEAR(static_cast<double>(gen.datagrams_sent()), 500.0, 10.0);
  gen.stop();
  const auto frozen = gen.datagrams_sent();
  sched.run_until(sim::sec(3.0));
  EXPECT_EQ(gen.datagrams_sent(), frozen);
}

}  // namespace
}  // namespace ftvod::net
