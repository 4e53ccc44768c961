// Directed crash → restart → re-crash scenario, driven through the chaos
// injector with a hand-scripted plan. The paper's claim under test: a
// server rebooted after a crash rejoins the movie group as a fresh member,
// the kSpread re-distribution hands it load again, and clients ride
// through both crashes without a visible glitch beyond the takeover bound.
#include <gtest/gtest.h>

#include "../integration/vod_testbed.hpp"
#include "testing/chaos.hpp"
#include "testing/invariants.hpp"

namespace ftvod::testing {
namespace {

using vod::testing::VodTestBed;

TEST(ChaosRestart, RestartedServerAttractsLoadAndSurvivesRecrash) {
  VodTestBed bed(/*n_servers=*/3, /*n_clients=*/3);
  bed.watch_all();
  bed.run_for(5.0);

  const int victim = bed.serving_server(0);
  ASSERT_GE(victim, 0);
  const net::NodeId vnode = bed.server_host(victim);
  const sim::Time t0 = bed.deployment().scheduler().now();

  const auto scripted = [vnode](sim::Time at, ChaosEventKind kind) {
    ChaosEvent e;
    e.at = at;
    e.kind = kind;
    e.a = vnode;
    return e;
  };
  std::vector<ChaosEvent> events;
  events.push_back(scripted(t0 + sim::sec(1.0), ChaosEventKind::kCrash));
  events.push_back(scripted(t0 + sim::sec(7.0), ChaosEventKind::kRestart));
  events.push_back(scripted(t0 + sim::sec(17.0), ChaosEventKind::kCrash));
  events.push_back(scripted(t0 + sim::sec(23.0), ChaosEventKind::kRestart));

  ChaosInjector injector(bed.deployment(), ChaosPlan::from_events(events));
  injector.arm();
  InvariantMonitor monitor(bed.deployment());
  monitor.start();

  // Through the first crash and restart; let the rebalance settle.
  bed.run_for(12.0);
  ASSERT_EQ(injector.events_applied(), 2u);
  vod::Deployment::ServerNode* sn = bed.deployment().find_server(vnode);
  ASSERT_NE(sn, nullptr);
  ASSERT_TRUE(sn->server != nullptr);
  // 3 clients / 3 servers under kSpread: the rejoined (empty) server must
  // be pulled back into service, not left idle.
  EXPECT_GE(sn->server->session_count(), 1u)
      << "restarted server attracted no load";

  // The takeover machinery really ran (twice: crash, then rejoin).
  std::uint64_t takeovers = 0;
  for (int i = 0; i < bed.server_count(); ++i) {
    if (i == victim) continue;  // the victim's stats died with it
    takeovers += bed.server(i).stats().takeovers;
  }
  EXPECT_GE(takeovers, 1u);

  // Re-crash the same server and let the second restart land.
  std::vector<std::uint64_t> displayed_before;
  for (auto& cn : bed.deployment().clients()) {
    displayed_before.push_back(cn->client->counters().displayed);
  }
  bed.run_for(13.0);
  EXPECT_EQ(injector.events_applied(), 4u);

  // Every client kept streaming through the whole sequence: ~13 s of video
  // at 30 fps, allowing for the takeover refills.
  std::size_t i = 0;
  for (auto& cn : bed.deployment().clients()) {
    const std::uint64_t gained =
        cn->client->counters().displayed - displayed_before[i];
    EXPECT_GE(gained, 250u) << "client " << i << " glitched";
    ++i;
  }

  // And the monitor agrees nothing exceeded the configured bounds.
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

TEST(ChaosRestart, RestartOfALiveHostThenCrashReachesOnlyTheNewServer) {
  // Restarting a server whose host never crashed frees the old daemon and
  // server. A later crash of the host must halt the new incarnation and
  // call nothing of the old one.
  vod::Deployment dep(17);
  const net::NodeId host = dep.add_host("s0");
  dep.start_server(host);
  dep.run_for(sim::sec(1.0));
  vod::Deployment::ServerNode* sn = dep.restart_server(host);
  ASSERT_NE(sn, nullptr);
  ASSERT_TRUE(dep.network().alive(host));
  EXPECT_FALSE(sn->daemon->halted());
  EXPECT_FALSE(sn->server->halted());
  dep.run_for(sim::sec(1.0));
  dep.crash(host);
  EXPECT_TRUE(sn->daemon->halted());
  EXPECT_TRUE(sn->server->halted());
  dep.run_for(sim::sec(1.0));
}

}  // namespace
}  // namespace ftvod::testing
