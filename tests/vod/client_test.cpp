// Client-side behaviour through the stack: connection lifecycle, stats
// surfaces, reconnect logic, and robustness against malformed traffic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../integration/vod_testbed.hpp"
#include "util/log.hpp"

namespace ftvod::vod {
namespace {

using testing::VodTestBed;
using testing::sessions_streaming;

TEST(Client, StatsBeforeConnectionAreEmpty) {
  VodTestBed bed(1, 1);
  const VodClient& c = bed.client();
  EXPECT_FALSE(c.connected());
  EXPECT_FALSE(c.playing());
  EXPECT_FALSE(c.buffers().has_value());
  EXPECT_EQ(c.counters().received, 0u);
  EXPECT_EQ(c.occupancy_fraction(), 0.0);
}

TEST(Client, WaterMarkAccessors) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(5.0);
  const VodClient& c = bed.client();
  ASSERT_TRUE(c.connected());
  const double total = static_cast<double>(
      c.buffers()->total_capacity_frames());
  EXPECT_DOUBLE_EQ(c.low_water_frames(), 0.73 * total);
  EXPECT_DOUBLE_EQ(c.high_water_frames(), 0.88 * total);
  EXPECT_GT(c.low_water_frames(), 50.0);
}

TEST(Client, OpenRetriesUntilServerExists) {
  // The movie appears only after the client has been asking for a while.
  VodTestBed bed(1, 1);
  bed.client().watch("late-movie");
  bed.run_for(4.0);
  EXPECT_FALSE(bed.client().connected());
  const auto retries = bed.client().control_stats().open_retries;
  EXPECT_GE(retries, 2u);

  bed.server(0).add_movie(mpeg::Movie::synthetic("late-movie", 120.0));
  // The third retry can land up to ~8.75 s in (backed-off delay 4 s plus
  // jitter on top of the first two); leave room for it plus some playback.
  bed.run_for(8.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_GT(bed.client().counters().displayed, 50u);
}

TEST(Client, OpenRetrySpacingGrowsGeometricallyToTheCap) {
  // Asking for a movie nobody serves: retry k fires after base * 2^k plus
  // a jitter of at most a quarter of the delay, capped at open_retry_cap.
  VodTestBed bed(1, 1);
  bed.client().watch("does-not-exist");
  const sim::Time t0 = bed.deployment().scheduler().now();
  std::vector<sim::Time> retry_at;
  std::uint64_t seen = 0;
  for (int step = 0; step < 1200 && retry_at.size() < 6; ++step) {
    bed.run_for(0.05);
    const std::uint64_t n = bed.client().control_stats().open_retries;
    if (n > seen) {
      seen = n;
      retry_at.push_back(bed.deployment().scheduler().now());
    }
  }
  ASSERT_GE(retry_at.size(), 5u);

  const VodParams p;
  sim::Duration expected = p.open_retry;
  sim::Time prev = t0;
  for (std::size_t k = 0; k < retry_at.size(); ++k) {
    const sim::Duration gap = retry_at[k] - prev;
    prev = retry_at[k];
    // Each gap is the nominal (doubling, capped) delay plus up to 25 %
    // jitter, measured to one 50 ms sampling step of slack either way.
    EXPECT_GE(gap, expected - sim::msec(60)) << "retry " << k;
    EXPECT_LE(gap, expected + expected / 4 + sim::msec(60)) << "retry " << k;
    expected = std::min(2 * expected, p.open_retry_cap);
  }
  // The spacing genuinely grew: the last observed gap is several times
  // the first (geometric, not linear, growth).
  EXPECT_GE(retry_at[4] - retry_at[3], 4 * (retry_at[0] - t0));
}

TEST(Client, ReconnectsAfterSessionLoss) {
  // Cut the client off long enough for the servers to give up on it, then
  // heal: the client must notice the dead stream and re-request.
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  bed.deployment().network().partition(
      {{bed.deployment().clients()[0]->node}});
  bed.run_for(6.0);
  bed.deployment().network().heal();
  bed.run_for(20.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_EQ(bed.server(0).session_count(), 1u);
  const auto before = bed.client().counters().displayed;
  bed.run_for(5.0);
  EXPECT_GT(bed.client().counters().displayed - before, 100u);
}

TEST(Client, GarbageDatagramsIgnored) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(5.0);
  // Fire junk at the client's data port from a foreign socket.
  auto& dep = bed.deployment();
  auto junk = dep.network().bind(dep.servers()[0]->node, 4444, nullptr);
  const net::Endpoint client_data{dep.clients()[0]->node, 9100};
  junk->send(client_data, util::Bytes{std::byte{0xFF}, std::byte{0x00}});
  junk->send(client_data, util::Bytes{});  // empty datagram
  util::Writer w;  // a frame for some *other* client id
  w.u8(8);         // kFrame tag
  w.u64(999999);
  w.u64(1);
  w.u8(0);
  w.u32(100);
  junk->send(client_data, w.take());
  bed.run_for(2.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_TRUE(bed.client().playing());
}

TEST(Client, DisplayedIndicesMonotone) {
  VodTestBed bed(1, 1, net::wan_quality(0.02), 17);
  bed.watch_all();
  bed.run_for(20.0);
  // last_displayed advances with wall clock: sample strictly increasing.
  std::int64_t prev = -1;
  for (int i = 0; i < 20; ++i) {
    bed.run_for(0.5);
    const std::int64_t now = bed.client().buffers()->last_displayed();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Client, PlaybackSpeedIsRealTime) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  const std::int64_t p0 = bed.client().buffers()->last_displayed();
  bed.run_for(20.0);
  const std::int64_t p1 = bed.client().buffers()->last_displayed();
  // 20 s at 30 fps = 600 frames of movie time (display-order gaps from
  // startup-overflow skips let the index run slightly ahead).
  EXPECT_NEAR(static_cast<double>(p1 - p0), 600.0, 25.0);
}

TEST(Client, TwoClientsOnDifferentHostsIndependent) {
  VodTestBed bed(1, 2);
  bed.client(0).watch("feature");
  bed.run_for(5.0);
  EXPECT_TRUE(bed.client(0).connected());
  EXPECT_FALSE(bed.client(1).connected());  // never asked
  bed.client(1).watch("feature");
  bed.run_for(5.0);
  EXPECT_TRUE(bed.client(1).connected());
  // Pausing one must not affect the other.
  bed.client(0).pause();
  const auto d1 = bed.client(1).counters().displayed;
  bed.run_for(5.0);
  EXPECT_GT(bed.client(1).counters().displayed, d1 + 100);
}

TEST(Client, StopThenRewatch) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(8.0);
  bed.client().stop();
  bed.run_for(2.0);
  EXPECT_FALSE(bed.client().connected());
  EXPECT_EQ(bed.server(0).session_count(), 0u);
  // A fresh client instance on the same host can watch again (the old
  // client released its data port only at destruction, so use client 0's
  // own re-watch path instead: watch() after stop()).
  bed.client().watch("feature");
  bed.run_for(6.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_EQ(bed.server(0).session_count(), 1u);
}

TEST(Client, LateFramesAfterStopDoNotResurrectTheDisplay) {
  // Regression (caught by the catalog-churn soak): the server keeps
  // streaming for a round trip after a Stop, and those in-flight frames
  // used to land in still-live buffers and re-arm the display loop — a
  // zombie session with no session-group membership that "stalls" forever
  // once its buffer tail drained. After stop(), the decoder state is gone
  // and stragglers are discarded at the door.
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(8.0);
  ASSERT_TRUE(bed.client().playing());
  bed.client().stop();
  bed.run_for(5.0);
  EXPECT_FALSE(bed.client().playing());
  EXPECT_FALSE(bed.client().watching());
  EXPECT_FALSE(bed.client().buffers().has_value());
  EXPECT_EQ(bed.client().counters().received, 0u);  // back to the empty set
}

TEST(Client, RewatchStartsFromAFullyFreshSession) {
  // Regression for the pooled-reuse path the workload driver leans on:
  // watch() after stop() (or even mid-session) must behave like a brand-new
  // client — no stale pause flag, buffer position, flow state or pending
  // open retry may leak into the next session. Park the first session in
  // the nastiest state we can reach, then re-watch a different title.
  VodTestBed bed(1, 1);
  auto indie = mpeg::Movie::synthetic("indie", 300.0);
  bed.server(0).add_movie(indie);
  bed.run_for(1.0);

  bed.client().watch("feature");
  bed.run_for(10.0);
  ASSERT_TRUE(bed.client().playing());
  bed.client().seek(4000);  // deep into the movie
  bed.run_for(2.0);
  bed.client().pause();     // and paused
  bed.run_for(1.0);
  const auto old_pos = bed.client().buffers()->last_displayed();
  EXPECT_GT(old_pos, 3000);
  bed.client().stop();
  bed.run_for(1.0);
  EXPECT_FALSE(bed.client().watching());

  bed.client().watch("indie");
  EXPECT_TRUE(bed.client().watching());
  EXPECT_EQ(bed.client().movie(), "indie");
  bed.run_for(6.0);
  ASSERT_TRUE(bed.client().connected());
  EXPECT_TRUE(bed.client().playing());
  EXPECT_FALSE(bed.client().paused());  // the pause did not leak
  // Fresh counters and a position near the start of the new title — not
  // the previous session's seek offset.
  const auto pos = bed.client().buffers()->last_displayed();
  EXPECT_GT(pos, 0);
  EXPECT_LT(pos, 400);
  EXPECT_EQ(sessions_streaming(bed.server(0), "indie"), 1u);
  EXPECT_EQ(sessions_streaming(bed.server(0), "feature"), 0u);
}

TEST(Client, WatchWhileWatchingSwitchesTitlesCleanly) {
  // watch() with a session already live is the same reset path minus the
  // stop(): the old session group is left, the new one joined.
  VodTestBed bed(1, 1);
  auto indie = mpeg::Movie::synthetic("indie", 300.0);
  bed.server(0).add_movie(indie);
  bed.run_for(1.0);
  bed.client().watch("feature");
  bed.run_for(8.0);
  ASSERT_TRUE(bed.client().playing());

  bed.client().watch("indie");
  bed.run_for(8.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_TRUE(bed.client().playing());
  EXPECT_EQ(bed.client().movie(), "indie");
  EXPECT_EQ(sessions_streaming(bed.server(0), "indie"), 1u);
  EXPECT_EQ(sessions_streaming(bed.server(0), "feature"), 0u);
}

TEST(Client, RewatchDuringOpenBackoffDropsTheOldRetry) {
  // Each watch() builds a session with timers of its own: the pending open
  // retry of the session it replaces goes with that session.
  VodTestBed bed(1, 1);
  const VodParams p;
  const double retry_s = sim::to_sec(p.open_retry);
  bed.client().watch("nowhere");  // no server holds it: the open backs off
  bed.run_for(0.5 * retry_s);
  bed.client().watch("nowhere-else");
  // The old retry fell due 1 to 1.25 retry delays after the first watch(),
  // inside this run; the new one is a full delay after the second.
  bed.run_for(retry_s - 0.001);
  EXPECT_EQ(bed.client().control_stats().open_retries, 0u);
  bed.run_for(0.3 * retry_s);
  EXPECT_EQ(bed.client().control_stats().open_retries, 1u);
}

TEST(Client, RewatchDuringPlaybackDropsTheOldDeadline) {
  // A playing session's deadline timer is always armed, at most a
  // reconnect timeout ahead. A new session that never connects arms none,
  // so any wakeup after watch() would be the old session's.
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  ASSERT_TRUE(bed.client().playing());
  const auto wakeups = bed.client().control_stats().deadline_wakeups;
  bed.client().watch("nowhere");
  const VodParams p;
  bed.run_for(2 * sim::to_sec(p.reconnect_timeout));
  EXPECT_EQ(bed.client().control_stats().deadline_wakeups, wakeups);
  EXPECT_FALSE(bed.client().connected());
  EXPECT_TRUE(bed.client().prefill_watchdog_running());
  EXPECT_EQ(sessions_streaming(bed.server(0), "feature"), 0u);
}

TEST(Client, HostCrashKeepsTheSessionButStopsItsTimers) {
  // A crashed client keeps its session, so its counters stay readable,
  // but nothing of it runs any more: the display and deadline stop.
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  ASSERT_TRUE(bed.client().playing());
  bed.deployment().crash(bed.client().node());
  const auto displayed = bed.client().counters().displayed;
  const auto wakeups = bed.client().control_stats().deadline_wakeups;
  EXPECT_GT(displayed, 100u);
  bed.run_for(5.0);
  EXPECT_TRUE(bed.client().watching());
  ASSERT_TRUE(bed.client().buffers().has_value());
  EXPECT_EQ(bed.client().counters().displayed, displayed);
  EXPECT_EQ(bed.client().control_stats().deadline_wakeups, wakeups);
  // A halted client starts no new session either.
  bed.client().watch("feature");
  bed.run_for(2.0);
  EXPECT_EQ(bed.client().counters().displayed, displayed);
}

TEST(Client, HostCrashDuringOpenBackoffStopsTheRetry) {
  VodTestBed bed(1, 1);
  const VodParams p;
  const double retry_s = sim::to_sec(p.open_retry);
  bed.client().watch("nowhere");  // no server holds it: the open backs off
  bed.run_for(0.5 * retry_s);
  ASSERT_TRUE(bed.client().prefill_watchdog_running());
  bed.deployment().crash(bed.client().node());
  bed.run_for(4 * retry_s);
  EXPECT_TRUE(bed.client().watching());
  EXPECT_FALSE(bed.client().prefill_watchdog_running());
  EXPECT_EQ(bed.client().control_stats().open_retries, 0u);
}

// A playing client's watchdog checks (reconnect deadline, display-progress
// resync, emergency thresholds) run in its display ticks, which run lazily;
// a deadline timer wakes the client at the first tick at which a check
// would act if nothing arrived, and the 10 Hz watchdog clock runs only
// before playback starts. The tests below crash or cut off the server while
// the client plays and check that each of those checks still fires, on
// time, with no frame arriving to run the ticks.

TEST(Client, ReconnectDeadlineFiresFromTheDisplayTick) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  ASSERT_TRUE(bed.client().playing());
  bed.crash_server(0);  // the last frame is already on the wire or in
  const VodParams p;
  bed.run_for(sim::to_sec(p.reconnect_timeout) - 0.1);
  EXPECT_TRUE(bed.client().connected());
  bed.run_for(0.2);  // the deadline passed: the deadline timer noticed
  EXPECT_FALSE(bed.client().connected());
  EXPECT_FALSE(bed.client().prefill_watchdog_running());
  bed.run_for(1.5);  // and the re-request keeps retrying
  EXPECT_GE(bed.client().control_stats().open_retries, 1u);
}

TEST(Client, WedgedStreamResyncsFromTheDisplayTick) {
  // Stale frames keep arriving (so the reconnect deadline never fires) but
  // the display cannot progress: the client must resync twice, then
  // re-request the movie.
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  ASSERT_TRUE(bed.client().playing());
  auto& dep = bed.deployment();
  std::vector<std::string> lines;
  util::Log::reset();
  util::Log::set_level(util::LogLevel::kInfo);
  util::Log::set_sink(
      [&](std::string_view line) { lines.emplace_back(line); });

  bed.crash_server(0);
  const net::NodeId stale_host = dep.add_edge_host("stale-sender");
  auto stale = dep.network().bind(stale_host, 1, nullptr);
  const util::Bytes frame0 = wire::encode(wire::Frame{
      bed.client().client_id(), 0, mpeg::FrameType::kI, 1'000});
  const net::Endpoint client_data{dep.clients()[0]->node,
                                  bed.client().params().client_data_port};
  sim::PeriodicTimer sender(dep.scheduler(), sim::msec(33),
                            [&] { stale->send(client_data, frame0); });
  sender.start();
  bed.run_for(16.0);
  sender.stop();
  util::Log::reset();

  int resyncs = 0;
  int unheard = 0;
  int lost = 0;
  for (const std::string& l : lines) {
    if (l.find("resyncing at frame") != std::string::npos) ++resyncs;
    if (l.find("resyncs went unheard") != std::string::npos) ++unheard;
    if (l.find("lost its stream") != std::string::npos) ++lost;
  }
  EXPECT_EQ(resyncs, 2);
  EXPECT_EQ(unheard, 1);
  EXPECT_EQ(lost, 0);
  EXPECT_FALSE(bed.client().connected());
  EXPECT_GT(bed.client().counters().late, 100u);
}

TEST(Client, OutageRaisesAnEmergencyWithoutAnyFrame) {
  // While the client is cut off no frame arrives, so the receive path's
  // flow check never runs: only the deadline timer, armed at the projected
  // threshold crossing, can see the software buffer drain below it.
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  ASSERT_TRUE(bed.client().playing());
  const auto received = bed.client().counters().received;
  const auto emergencies = bed.client().control_stats().emergencies_sent;
  bed.deployment().network().partition(
      {{bed.deployment().clients()[0]->node}});
  bed.run_for(1.5);
  EXPECT_LE(bed.client().counters().received, received + 2);  // in flight
  EXPECT_GT(bed.client().control_stats().emergencies_sent, emergencies);
  EXPECT_FALSE(bed.client().prefill_watchdog_running());
  bed.deployment().network().heal();
}

}  // namespace
}  // namespace ftvod::vod
