// End-to-end integration: a client watches a movie through the full stack
// (GCS + network + server + client) with no failures.
#include <gtest/gtest.h>

#include "vod_testbed.hpp"

namespace ftvod::vod {
namespace {

using testing::VodTestBed;

TEST(EndToEnd, ClientConnectsAndPlays) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(10.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_TRUE(bed.client().playing());
  EXPECT_EQ(bed.serving_server(), 0);
  EXPECT_GT(bed.client().counters().displayed, 200u);
}

TEST(EndToEnd, SteadyPlaybackIsSmooth) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(30.0);
  const BufferCounters& c = bed.client().counters();
  // ~28 s of playback at 30 fps.
  EXPECT_GT(c.displayed, 800u);
  // The paper's Fig 4(a): only a handful of frames skipped, all from the
  // startup emergency overflow, none after the buffers settle.
  EXPECT_LT(c.skipped, 15u);
  // On a clean LAN nothing arrives out of order or twice.
  EXPECT_EQ(c.late, 0u);
  EXPECT_EQ(c.starvation_ticks, 0u);
}

TEST(EndToEnd, OccupancySettlesBetweenWaterMarks) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(20.0);  // fill phase (the paper reports ~14 s)
  ASSERT_TRUE(bed.client().buffers().has_value());
  // Sample for another 20 s: occupancy must stay around the band.
  double min_occ = 1.0, max_occ = 0.0;
  for (int i = 0; i < 200; ++i) {
    bed.run_for(0.1);
    const double occ = bed.client().buffers()->occupancy_fraction();
    min_occ = std::min(min_occ, occ);
    max_occ = std::max(max_occ, occ);
  }
  const VodParams p;
  EXPECT_GT(min_occ, p.low_water_frac - 0.15);
  EXPECT_LT(max_occ, 1.0);
  EXPECT_GT(max_occ, p.low_water_frac);  // it did reach the band
}

TEST(EndToEnd, HardwareBufferFillsAndStaysFull) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(20.0);
  const auto buffers = bed.client().buffers();
  ASSERT_TRUE(buffers.has_value());
  // Fig 4(d): the decoder buffer fills within ~10 s and stays near full.
  EXPECT_GT(buffers->hw_bytes(), buffers->hw_capacity_bytes() * 8 / 10);
}

TEST(EndToEnd, StartupEmergencyRampsRate) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(6.0);
  // The startup emergency (empty buffers) must have been requested and the
  // burst must have delivered more frames than the display consumed.
  EXPECT_GE(bed.client().control_stats().emergencies_sent, 1u);
  const auto buffers = bed.client().buffers();
  ASSERT_TRUE(buffers.has_value());
  EXPECT_GT(buffers->total_frames(), 20u);
}

TEST(EndToEnd, FlowControlKeepsRateNearDisplayRate) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(40.0);
  const BufferCounters& c = bed.client().counters();
  // Over a long run, received ~= displayed + buffered: the feedback loop
  // neither drains nor floods the client.
  const double received = static_cast<double>(c.received);
  const double consumed =
      static_cast<double>(c.displayed + bed.client().buffers()->total_frames());
  EXPECT_NEAR(received / consumed, 1.0, 0.05);
  // And both increase and decrease requests were exercised.
  EXPECT_GT(bed.client().control_stats().increases_sent, 0u);
  EXPECT_GT(bed.client().control_stats().decreases_sent, 0u);
}

TEST(EndToEnd, SyncOverheadIsNegligible) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(30.0);
  // Paper: state synchronization consumes less than 1/1000 of the video
  // bandwidth. Compare GCS control bytes of the serving server against the
  // video bytes it pushed.
  const int s = bed.serving_server();
  ASSERT_GE(s, 0);
  const auto video = bed.server(s).data_socket_stats().bytes_sent;
  // Only an upper bound on all control traffic (heartbeats + syncs).
  const auto control =
      bed.deployment().servers()[s]->daemon->socket_stats().bytes_sent;
  EXPECT_GT(video, 0u);
  EXPECT_LT(static_cast<double>(control), 0.05 * static_cast<double>(video));
}

TEST(EndToEnd, TwoClientsSplitAcrossTwoServers) {
  VodTestBed bed(2, 2);
  bed.watch_all();
  bed.run_for(10.0);
  EXPECT_TRUE(bed.client(0).connected());
  EXPECT_TRUE(bed.client(1).connected());
  // Deterministic least-loaded placement: one client per server.
  EXPECT_EQ(bed.server(0).session_count(), 1u);
  EXPECT_EQ(bed.server(1).session_count(), 1u);
}

TEST(EndToEnd, ThreeClientsBalanceTwoOne) {
  VodTestBed bed(2, 3);
  bed.watch_all();
  bed.run_for(10.0);
  const std::size_t s0 = bed.server(0).session_count();
  const std::size_t s1 = bed.server(1).session_count();
  EXPECT_EQ(s0 + s1, 3u);
  EXPECT_LE(s0 > s1 ? s0 - s1 : s1 - s0, 1u);
}

TEST(EndToEnd, MovieAddedOnTheFlyIsServable) {
  VodTestBed bed(1, 1);
  auto late_movie = mpeg::Movie::synthetic("late-addition", 120.0);
  bed.server(0).add_movie(late_movie);
  bed.run_for(1.0);
  bed.client().watch("late-addition");
  bed.run_for(5.0);
  EXPECT_TRUE(bed.client().connected());
  EXPECT_GT(bed.client().counters().displayed, 50u);
}

TEST(EndToEnd, UnknownMovieNeverConnects) {
  VodTestBed bed(1, 1);
  bed.client().watch("does-not-exist");
  bed.run_for(5.0);
  EXPECT_FALSE(bed.client().connected());
  // Retries back off exponentially (1s, ~2s, ~4s...), so 5 s of asking for
  // a nonexistent movie yields at least two of them.
  EXPECT_GE(bed.client().control_stats().open_retries, 2u);
}

TEST(EndToEnd, ClientStopClosesServerSession) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(8.0);
  ASSERT_EQ(bed.server(0).session_count(), 1u);
  bed.client().stop();
  bed.run_for(3.0);
  EXPECT_EQ(bed.server(0).session_count(), 0u);
}

TEST(EndToEnd, MultipleMoviesOnDisjointServers) {
  // Server 0 holds "feature" (from the bed) plus "indie"; server 1 holds
  // only "feature". A client asking for "indie" must land on server 0.
  VodTestBed bed(2, 2);
  auto indie = mpeg::Movie::synthetic("indie", 120.0);
  bed.server(0).add_movie(indie);
  bed.run_for(1.0);
  bed.client(0).watch("indie");
  bed.client(1).watch("feature");
  bed.run_for(8.0);
  EXPECT_TRUE(bed.client(0).connected());
  EXPECT_TRUE(bed.client(1).connected());
  EXPECT_TRUE(bed.server(0).serves(bed.client(0).client_id()));
}

TEST(EndToEnd, NoIFramesLostOnCleanLan) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(30.0);
  // Fig 4(a): "none of the skipped frames was an I frame".
  EXPECT_EQ(bed.client().counters().overflow_discarded_i_frames, 0u);
}

}  // namespace
}  // namespace ftvod::vod
