// The InvariantMonitor itself must be trustworthy in both directions: quiet
// on a healthy deployment, loud on a genuinely broken one. The positive
// case is a plain run; the negative cases plant real defects — a server
// group whose members disagree on the rebalance policy (so their
// "deterministic" re-distributions diverge), and a server that silently
// stops streaming without ever leaving its groups (a stall no protocol
// machinery repairs).
#include "testing/invariants.hpp"

#include <gtest/gtest.h>

#include "../integration/vod_testbed.hpp"
#include "testing/chaos.hpp"

namespace ftvod::testing {
namespace {

using vod::testing::VodTestBed;

bool any_violation_contains(const InvariantMonitor& monitor,
                            const std::string& needle) {
  for (const Violation& v : monitor.violations()) {
    if (v.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(InvariantMonitor, HealthySteadyStateIsViolationFree) {
  VodTestBed bed(/*n_servers=*/2, /*n_clients=*/2);
  InvariantMonitor monitor(bed.deployment());
  monitor.start();
  bed.watch_all();
  bed.run_for(30.0);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
  EXPECT_GT(monitor.checks_run(), 250u);
}

TEST(InvariantMonitor, HealthyRunWithCleanCrashStaysViolationFree) {
  // A crash inside the grace bounds is the system working as designed; the
  // monitor must not cry wolf about the takeover duplication or the brief
  // refill stall.
  VodTestBed bed(/*n_servers=*/3, /*n_clients=*/2);
  InvariantMonitor monitor(bed.deployment());
  monitor.start();
  bed.watch_all();
  bed.run_for(5.0);
  const int victim = bed.serving_server(0);
  ASSERT_GE(victim, 0);
  bed.crash_server(victim);
  bed.run_for(15.0);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

TEST(InvariantMonitor, CatchesRebalancePolicyDivergence) {
  // Two kSpread servers serve four clients; a third server joins with a
  // mis-configured kStable policy. All three complete the same table
  // exchange and compute assignments for the same view — but the remainder
  // lands on different servers, violating §5.2's agreement claim. The
  // monitor must flag the divergence.
  vod::VodParams spread;  // default policy: kSpread
  vod::VodParams stable = spread;
  stable.rebalance_policy = vod::RebalancePolicy::kStable;

  vod::Deployment dep(/*seed=*/7, net::lan_quality(), spread);
  std::vector<net::NodeId> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(dep.add_host("server" + std::to_string(i)));
  }
  std::vector<net::NodeId> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(dep.add_host("client" + std::to_string(i)));
  }
  const auto movie = mpeg::Movie::synthetic("feature", 120.0);
  for (int i = 0; i < 2; ++i) {
    dep.start_server(servers[static_cast<std::size_t>(i)]).server->add_movie(
        movie);
  }
  for (net::NodeId c : clients) dep.start_client(c);
  dep.run_for(sim::sec(2.0));
  for (auto& cn : dep.clients()) cn->client->watch("feature");
  dep.run_for(sim::sec(3.0));

  InvariantMonitor monitor(dep);
  monitor.start();
  // The misconfigured server joins the movie group; the resulting view
  // change triggers the diverging re-distribution.
  dep.start_server(servers[2], stable).server->add_movie(movie);
  dep.run_for(sim::sec(6.0));

  EXPECT_FALSE(monitor.ok());
  EXPECT_TRUE(any_violation_contains(monitor, "disagree"))
      << monitor.report();
}

TEST(InvariantMonitor, CatchesUnrepairedStall) {
  // halt() stops a server's streaming without leaving its groups, and its
  // GCS daemon keeps heartbeating — so no peer ever suspects it and no
  // takeover happens. With client-side reconnection disabled, the client
  // starves forever next to a healthy replica: exactly the liveness
  // violation the monitor exists to catch.
  vod::VodParams params;
  params.reconnect_timeout = sim::sec(3600.0);
  VodTestBed bed(/*n_servers=*/2, /*n_clients=*/1, net::lan_quality(),
                 /*seed=*/42, params);
  bed.watch_all();
  bed.run_for(5.0);
  const int victim = bed.serving_server(0);
  ASSERT_GE(victim, 0);

  InvariantOptions opts;
  opts.stall_bound = sim::sec(2.0);
  InvariantMonitor monitor(bed.deployment(), opts);
  monitor.start();
  bed.server(victim).halt();
  bed.run_for(10.0);

  EXPECT_FALSE(monitor.ok());
  EXPECT_TRUE(any_violation_contains(monitor, "stalled")) << monitor.report();
}

// Invariant 5 on a title held by one of two servers: with a floor of two
// it is under-replicated whenever someone watches it.
struct SoloTitleBed {
  SoloTitleBed() : bed(/*n_servers=*/2, /*n_clients=*/1) {
    bed.server(0).add_movie(mpeg::Movie::synthetic("solo", 120.0));
    bed.run_for(1.0);
  }
  static InvariantOptions options() {
    InvariantOptions opts;
    opts.replication_floor = 2;
    opts.under_replicated_grace = sim::sec(6.0);
    return opts;
  }
  VodTestBed bed;
};

TEST(InvariantMonitor, ReplicationGraceRestartsWhenATitleIsWatchedAgain) {
  // Watched under the floor for less than the grace, unwatched for longer
  // than the grace, then watched again for less than the grace: no dip
  // outlived the grace, so nothing may be reported.
  SoloTitleBed solo;
  InvariantMonitor monitor(solo.bed.deployment(), SoloTitleBed::options());
  monitor.start();
  solo.bed.client().watch("solo");
  solo.bed.run_for(4.0);
  solo.bed.client().stop();
  solo.bed.run_for(8.0);
  solo.bed.client().watch("solo");
  solo.bed.run_for(4.0);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

TEST(InvariantMonitor, CatchesATitleWatchedUnderItsFloorPastTheGrace) {
  SoloTitleBed solo;
  InvariantMonitor monitor(solo.bed.deployment(), SoloTitleBed::options());
  monitor.start();
  solo.bed.client().watch("solo");
  solo.bed.run_for(8.0);
  EXPECT_FALSE(monitor.ok());
  EXPECT_TRUE(any_violation_contains(monitor, "'solo'") &&
              any_violation_contains(monitor, "under-replicated"))
      << monitor.report();
}

}  // namespace
}  // namespace ftvod::testing
