#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/log.hpp"

namespace ftvod::net {
namespace {

util::Bytes msg(std::string_view s) {
  util::Writer w;
  w.str(s);
  return w.take();
}

std::string text(std::span<const std::byte> data) {
  util::Reader r(data);
  return r.str();
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : rng_(1234), net_(sched_, rng_) {
    a_ = net_.add_host("a");
    b_ = net_.add_host("b");
    c_ = net_.add_host("c");
  }

  sim::Scheduler sched_;
  util::Rng rng_;
  Network net_;
  NodeId a_, b_, c_;
};

TEST_F(NetworkTest, DeliversDatagram) {
  std::vector<std::string> got;
  auto sb = net_.bind(b_, 9, [&](const Endpoint& from,
                                 std::span<const std::byte> d) {
    EXPECT_EQ(from, (Endpoint{a_, 5}));
    got.push_back(text(d));
  });
  auto sa = net_.bind(a_, 5, nullptr);
  sa->send({b_, 9}, msg("hi"));
  sched_.run();
  EXPECT_EQ(got, std::vector<std::string>{"hi"});
}

TEST_F(NetworkTest, DeliveryTakesPositiveTime) {
  auto sa = net_.bind(a_, 5, nullptr);
  sim::Time arrival = -1;
  auto sb = net_.bind(b_, 9, [&](const Endpoint&, std::span<const std::byte>) {
    arrival = sched_.now();
  });
  sa->send({b_, 9}, msg("x"));
  sched_.run();
  EXPECT_GT(arrival, 0);
}

TEST_F(NetworkTest, LatencyWithinConfiguredBounds) {
  LinkQuality q;
  q.base_delay = sim::msec(10);
  q.jitter = sim::msec(5);
  net_.set_default_quality(q);
  auto sa = net_.bind(a_, 5, nullptr);
  std::vector<sim::Time> arrivals;
  auto sb = net_.bind(b_, 9, [&](const Endpoint&, std::span<const std::byte>) {
    arrivals.push_back(sched_.now());
  });
  for (int i = 0; i < 50; ++i) sa->send({b_, 9}, msg("x"));
  sched_.run();
  ASSERT_EQ(arrivals.size(), 50u);
  for (sim::Time t : arrivals) {
    EXPECT_GE(t, sim::msec(10));
    EXPECT_LE(t, sim::msec(16));  // base + jitter + serialization slack
  }
}

TEST_F(NetworkTest, JitterReordersPackets) {
  LinkQuality q;
  q.base_delay = sim::msec(5);
  q.jitter = sim::msec(20);
  net_.set_default_quality(q);
  auto sa = net_.bind(a_, 5, nullptr);
  std::vector<std::string> got;
  auto sb = net_.bind(b_, 9, [&](const Endpoint&, std::span<const std::byte> d) {
    got.push_back(text(d));
  });
  for (int i = 0; i < 100; ++i) sa->send({b_, 9}, msg(std::to_string(i)));
  sched_.run();
  ASSERT_EQ(got.size(), 100u);
  bool reordered = false;
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (std::stoi(got[i]) < std::stoi(got[i - 1])) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST_F(NetworkTest, LossRateApproximatelyRespected) {
  LinkQuality q;
  q.loss = 0.2;
  net_.set_default_quality(q);
  auto sa = net_.bind(a_, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) sa->send({b_, 9}, msg("x"));
  sched_.run();
  EXPECT_NEAR(static_cast<double>(got) / n, 0.8, 0.03);
  EXPECT_EQ(net_.stats(a_).dropped_loss, static_cast<std::uint64_t>(n - got));
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  LinkQuality q;
  q.duplicate = 1.0;
  net_.set_default_quality(q);
  auto sa = net_.bind(a_, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  sa->send({b_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got, 2);
}

TEST_F(NetworkTest, UnboundPortDropsSilently) {
  auto sa = net_.bind(a_, 5, nullptr);
  sa->send({b_, 99}, msg("x"));
  sched_.run();
  EXPECT_EQ(net_.stats(b_).dropped_unreachable, 1u);
}

TEST_F(NetworkTest, RebindAfterSocketDestroyed) {
  { auto s1 = net_.bind(a_, 5, nullptr); }
  auto s2 = net_.bind(a_, 5, nullptr);
  EXPECT_EQ(s2->local(), (Endpoint{a_, 5}));
}

TEST_F(NetworkTest, DoubleBindThrows) {
  auto s1 = net_.bind(a_, 5, nullptr);
  EXPECT_THROW((void)net_.bind(a_, 5, nullptr), std::runtime_error);
}

TEST_F(NetworkTest, CrashDropsTrafficBothWays) {
  auto sa = net_.bind(a_, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  net_.crash_host(b_);
  sa->send({b_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got, 0);

  // Crashed host cannot send either.
  int got_a = 0;
  auto sa2 = net_.bind(a_, 6, [&](const Endpoint&, std::span<const std::byte>) {
    ++got_a;
  });
  sb->send({a_, 6}, msg("y"));
  sched_.run();
  EXPECT_EQ(got_a, 0);
}

TEST_F(NetworkTest, CrashDropsInFlightPackets) {
  LinkQuality q;
  q.base_delay = sim::msec(10);
  net_.set_default_quality(q);
  auto sa = net_.bind(a_, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  sa->send({b_, 9}, msg("x"));
  sched_.run_until(sim::msec(5));  // packet in flight
  net_.crash_host(b_);
  sched_.run();
  EXPECT_EQ(got, 0);
}

TEST_F(NetworkTest, CrashListenersFire) {
  auto sa = net_.bind(a_, 5, nullptr);
  bool fired = false;
  sa->on_crash([&] { fired = true; });
  net_.crash_host(a_);
  EXPECT_TRUE(fired);
  // Idempotent: second crash does not re-fire.
  bool fired2 = false;
  sa->on_crash([&] { fired2 = true; });
  net_.crash_host(a_);
  EXPECT_FALSE(fired2);
}

TEST_F(NetworkTest, CrashHooksFireInBindOrderAndDieWithTheirSocket) {
  std::vector<int> order;
  auto s1 = net_.bind(a_, 1, nullptr);
  auto s2 = net_.bind(a_, 2, nullptr);
  auto s3 = net_.bind(a_, 3, nullptr);
  auto other = net_.bind(b_, 1, nullptr);
  s3->on_crash([&] { order.push_back(3); });
  s1->on_crash([&] { order.push_back(1); });
  s2->on_crash([&] { order.push_back(2); });
  other->on_crash([&] { order.push_back(-1); });
  s2.reset();  // its owner is gone: nothing may call into it
  net_.crash_host(a_);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST_F(NetworkTest, RestoreAllowsTrafficAgain) {
  auto sa = net_.bind(a_, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  net_.crash_host(b_);
  net_.restore_host(b_);
  sa->send({b_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, PartitionBlocksCrossTraffic) {
  auto sa = net_.bind(a_, 5, nullptr);
  int got_b = 0;
  int got_c = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got_b; });
  auto sc = net_.bind(c_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got_c; });
  net_.partition({{a_, c_}, {b_}});
  sa->send({b_, 9}, msg("x"));
  sa->send({c_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_c, 1);
  net_.heal();
  sa->send({b_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got_b, 1);
}

TEST_F(NetworkTest, PartitionDropsInFlight) {
  LinkQuality q;
  q.base_delay = sim::msec(10);
  net_.set_default_quality(q);
  auto sa = net_.bind(a_, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  sa->send({b_, 9}, msg("x"));
  sched_.run_until(sim::msec(5));
  net_.partition({{a_}, {b_}});
  sched_.run();
  EXPECT_EQ(got, 0);
}

TEST_F(NetworkTest, ImplicitComponentForUnlistedHosts) {
  // b and c are unlisted: they form one implicit component together.
  net_.partition({{a_}});
  auto sb = net_.bind(b_, 5, nullptr);
  int got = 0;
  auto sc = net_.bind(c_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  sb->send({c_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, SerializationDelayScalesWithSize) {
  HostConfig slow;
  slow.uplink_bps = 1e6;  // 1 Mbps
  const NodeId d = net_.add_host("slow", slow);
  auto sd = net_.bind(d, 5, nullptr);
  sim::Time arrival = 0;
  auto sb = net_.bind(b_, 9, [&](const Endpoint&, std::span<const std::byte>) {
    arrival = sched_.now();
  });
  // 10 KB at 1 Mbps ~ 80 ms of serialization.
  sd->send({b_, 9}, msg("x"), 10'000);
  sched_.run();
  EXPECT_GT(arrival, sim::msec(75));
}

TEST_F(NetworkTest, QueueOverflowDrops) {
  HostConfig tiny;
  tiny.uplink_bps = 1e6;
  tiny.queue_limit_bytes = 2'000;
  const NodeId d = net_.add_host("tiny", tiny);
  auto sd = net_.bind(d, 5, nullptr);
  int got = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  for (int i = 0; i < 100; ++i) sd->send({b_, 9}, msg("x"), 1'000);
  sched_.run();
  EXPECT_LT(got, 100);
  EXPECT_GT(net_.stats(d).dropped_queue, 0u);
}

TEST_F(NetworkTest, StatsCountWireBytes) {
  auto sa = net_.bind(a_, 5, nullptr);
  auto sb = net_.bind(b_, 9, nullptr);
  sa->send({b_, 9}, msg("hello"), 100);
  sched_.run();
  // payload = 4 (length prefix) + 5 + 100 padding + 28 header
  EXPECT_EQ(net_.stats(a_).bytes_sent, 137u);
  EXPECT_EQ(net_.stats(b_).bytes_received, 137u);
  EXPECT_EQ(sa->stats().bytes_sent, 137u);
}

TEST_F(NetworkTest, PerPairQualityOverride) {
  LinkQuality lossy;
  lossy.loss = 1.0;
  net_.set_quality(a_, b_, lossy);
  auto sa = net_.bind(a_, 5, nullptr);
  int got_b = 0;
  int got_c = 0;
  auto sb = net_.bind(b_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got_b; });
  auto sc = net_.bind(c_, 9,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got_c; });
  sa->send({b_, 9}, msg("x"));
  sa->send({c_, 9}, msg("x"));
  sched_.run();
  EXPECT_EQ(got_b, 0);  // a<->b drops everything
  EXPECT_EQ(got_c, 1);
}

TEST_F(NetworkTest, SelfSendDelivers) {
  int got = 0;
  auto s1 = net_.bind(a_, 5, nullptr);
  auto s2 = net_.bind(a_, 6,
                      [&](const Endpoint&, std::span<const std::byte>) { ++got; });
  s1->send({a_, 6}, msg("x"));
  sched_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, RestoreHostResetsDownlinkBacklog) {
  // Regression: restore_host() used to reset only uplink_free_at, so a
  // rebooted host's downlink kept serving the pre-crash backlog and every
  // packet after the restore queued behind ghost traffic.
  HostConfig slow;
  slow.downlink_bps = 8e6;  // 1 byte/us: each ~1 KB packet busies ~1 ms
  const NodeId d = net_.add_host("slow-downlink", slow);
  std::vector<std::pair<sim::Time, std::size_t>> received;
  auto sd = net_.bind(d, 9, [&](const Endpoint&,
                                std::span<const std::byte> data) {
    received.emplace_back(sched_.now(), data.size());
  });
  auto sa = net_.bind(a_, 5, nullptr);
  const util::Bytes big(1'000, std::byte{0});
  for (int i = 0; i < 20; ++i) sa->send({d, 9}, big);
  sched_.run_until(sim::msec(2));  // ~20 ms of downlink backlog accrued
  net_.crash_host(d);
  net_.restore_host(d);
  sa->send({d, 9}, msg("probe"));
  sched_.run();
  // The probe is the only small datagram; it must clear the revived (idle)
  // downlink in ~1 ms rather than wait out the ~20 ms pre-crash backlog.
  sim::Time probe_at = -1;
  for (const auto& [t, size] : received) {
    if (size != big.size()) probe_at = t;
  }
  ASSERT_GE(probe_at, 0);
  EXPECT_LT(probe_at, sim::msec(8));
}

}  // namespace
}  // namespace ftvod::net
