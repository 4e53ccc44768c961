// The InvariantMonitor itself must be trustworthy in both directions: quiet
// on a healthy deployment, loud on a genuinely broken one. The positive
// case is a plain run; the negative cases plant real defects — a server
// group whose members disagree on the rebalance policy (so their
// "deterministic" re-distributions diverge), and a server that silently
// stops streaming without ever leaving its groups (a stall no protocol
// machinery repairs).
#include "testing/invariants.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "../integration/vod_testbed.hpp"
#include "testing/chaos.hpp"
#include "violation_stream.hpp"

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

// Two kSpread servers serve four clients; a third server joins with a
// mis-configured kStable policy. All three complete the same table exchange
// and compute assignments for the same view — but the remainder lands on
// different servers, violating §5.2's agreement claim.
struct PolicyDivergence {
  static vod::VodParams stable() {
    vod::VodParams p;  // default policy: kSpread
    p.rebalance_policy = vod::RebalancePolicy::kStable;
    return p;
  }

  PolicyDivergence() : dep(/*seed=*/7, net::lan_quality(), vod::VodParams{}) {
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
      dep.start_server(servers[static_cast<std::size_t>(i)])
          .server->add_movie(movie);
    }
    for (net::NodeId c : clients) dep.start_client(c);
    dep.run_for(sim::sec(2.0));
    for (auto& cn : dep.clients()) cn->client->watch("feature");
    dep.run_for(sim::sec(3.0));

    monitor.emplace(dep);
    monitor->start();
    // The misconfigured server joins the movie group; the resulting view
    // change triggers the diverging re-distribution.
    dep.start_server(servers[2], stable()).server->add_movie(movie);
    dep.run_for(sim::sec(6.0));
  }

  vod::Deployment dep;
  std::optional<InvariantMonitor> monitor;
};

TEST(InvariantMonitor, CatchesRebalancePolicyDivergence) {
  // The monitor must flag the divergence.
  PolicyDivergence run;
  EXPECT_FALSE(run.monitor->ok());
  EXPECT_TRUE(any_violation_contains(*run.monitor, "disagree"))
      << run.monitor->report();
}

TEST(InvariantMonitor, PolicyDivergenceStreamIsPinned) {
  // Every violation of the divergence run, in order: a monitor change
  // meant to be invisible must keep each one's time and text.
  PolicyDivergence run;
  EXPECT_EQ(run.monitor->total_violations(), 118u);
  EXPECT_EQ(run.monitor->checks_run(), 60u);
  EXPECT_EQ(violation_stream(run.dep, *run.monitor), R"(5200000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5200000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5300000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5300000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5400000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5400000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5500000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5500000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5600000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5600000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5700000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5700000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5800000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5800000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5900000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
5900000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6000000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6000000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6100000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6100000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6200000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6200000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6300000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6300000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6400000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6400000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6500000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6500000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6600000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6600000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6700000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6700000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6800000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6800000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6900000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
6900000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7000000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7000000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7100000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7100000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7200000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7200000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7300000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7300000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7400000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7400000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7500000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7500000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7600000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7600000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7700000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7700000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7800000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7800000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7900000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
7900000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8000000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8000000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8100000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8100000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8200000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8200000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8300000 movie 'feature': servers n0 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
8300000 movie 'feature': servers n1 and n2 disagree on the round of exchange tag 4194305 (tables of 4 vs 4 clients)
)");
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
