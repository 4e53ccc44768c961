// Property tests for the replica-placement layer.
//
// Model level (pure PlacementModel, no deployment): over randomized demand
// trajectories with random server crashes/revivals,
//   * safety  — a watched title never sits below its k-tolerance floor of
//               live replicas for more than the cooldown window, and never
//               below it at all while the live set is stable;
//   * stability — once demand and the live set freeze, the model goes
//               quiet within a bounded number of periods and stays quiet
//               forever (no add/drop oscillation — the hysteresis dead
//               band at work);
//   * determinism — the op sequence is a pure function of the trajectory.
//
// Controller level (real Deployment): a crashed-and-restarted server
// rejoins with an empty catalog; reconciliation must re-register every
// title the model still wants there — the restart-recovery path the chaos
// tier leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../integration/vod_testbed.hpp"
#include "testing/chaos.hpp"
#include "util/rng.hpp"
#include "vod/placement.hpp"

namespace ftvod::vod {
namespace {

std::string title_of(int i) { return "t" + std::to_string(i); }

// How many of `replicas` are in the sorted `live` set.
std::size_t live_held(const std::vector<net::NodeId>& replicas,
                      const std::vector<net::NodeId>& live) {
  std::size_t n = 0;
  for (net::NodeId r : replicas) {
    if (std::binary_search(live.begin(), live.end(), r)) ++n;
  }
  return n;
}

std::string describe_ops(const std::vector<PlacementOp>& ops) {
  std::ostringstream os;
  for (const PlacementOp& op : ops) {
    os << (op.kind == PlacementOp::Kind::kAdd ? "+" : "-") << op.title << "@n"
       << op.node << " ";
  }
  return os.str();
}

// One randomized trajectory: demand per title performs a clamped random
// walk, servers crash and revive (at least one always live). Checks the
// floor property after every step.
void run_trajectory(std::uint64_t seed) {
  util::Rng rng(seed);
  PlacementConfig cfg;
  cfg.replication_floor = 2;
  cfg.viewers_per_replica = 20;
  cfg.cooldown_periods = 2;
  PlacementModel model(cfg);

  constexpr int kTitles = 12;
  constexpr int kServers = 6;
  constexpr int kSteps = 300;
  for (int i = 0; i < kTitles; ++i) model.add_title(title_of(i));

  std::vector<net::NodeId> all_servers;
  for (int i = 0; i < kServers; ++i) {
    all_servers.push_back(static_cast<net::NodeId>(i));
  }
  std::vector<bool> up(kServers, true);
  std::map<std::string, std::size_t> viewers;
  for (int i = 0; i < kTitles; ++i) viewers[title_of(i)] = 0;

  // Consecutive steps a watched title ended below its floor. Reset when the
  // live set changes (a fresh dip is legitimate); must never exceed the
  // cooldown window (the only thing that may delay a repair).
  std::map<std::string, int> below_floor_steps;

  for (int step = 0; step < kSteps; ++step) {
    // Random-walk the demand.
    for (auto& [title, v] : viewers) {
      const double r = rng.uniform();
      if (r < 0.25 && v > 0) v -= std::min<std::size_t>(v, 5);
      if (r > 0.75) v += static_cast<std::size_t>(rng.uniform_int(1, 8));
      if (rng.uniform() < 0.02) v += 60;  // occasional flash crowd
    }
    // Crash / revive servers, keeping at least one up.
    bool live_changed = false;
    if (rng.uniform() < 0.15) {
      const int s = static_cast<int>(rng.uniform_int(0, kServers - 1));
      if (up[s]) {
        const int live_now =
            static_cast<int>(std::count(up.begin(), up.end(), true));
        if (live_now > 1) {
          up[s] = false;
          live_changed = true;
        }
      } else {
        up[s] = true;
        live_changed = true;
      }
    }
    std::vector<net::NodeId> live;
    for (int i = 0; i < kServers; ++i) {
      if (up[i]) live.push_back(all_servers[i]);
    }
    if (live_changed) below_floor_steps.clear();

    const auto ops = model.step(viewers, live);

    for (const auto& [title, v] : viewers) {
      if (v == 0) continue;
      const std::size_t floor =
          std::min<std::size_t>(cfg.replication_floor, live.size());
      const std::size_t held = live_held(model.replicas(title), live);
      if (held >= floor) {
        below_floor_steps[title] = 0;
        continue;
      }
      const int dip = ++below_floor_steps[title];
      ASSERT_LE(dip, cfg.cooldown_periods)
          << "seed " << seed << " step " << step << ": '" << title << "' ("
          << v << " viewers) held " << held << " < floor " << floor
          << " live replicas beyond the cooldown window; ops this step: "
          << describe_ops(ops);
    }
  }
}

TEST(PlacementProperty, FloorHeldAcrossRandomTrajectories) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) run_trajectory(seed);
}

TEST(PlacementProperty, StableLiveSetNeverDipsBelowFloor) {
  // With no crashes and every title continuously watched, the floor must
  // hold after *every* step: shrink never retires below the floor, growth
  // reaches the target within one period, and the cooldown window only
  // matters for dips that crashes (or idle decay to idle_replicas < floor)
  // caused — neither can happen here.
  util::Rng rng(7);
  PlacementConfig cfg;
  cfg.replication_floor = 2;
  cfg.viewers_per_replica = 25;
  PlacementModel model(cfg);
  constexpr int kTitles = 8;
  for (int i = 0; i < kTitles; ++i) model.add_title(title_of(i));
  const std::vector<net::NodeId> live = {0, 1, 2, 3};
  std::map<std::string, std::size_t> viewers;
  for (int step = 0; step < 200; ++step) {
    for (int i = 0; i < kTitles; ++i) {
      viewers[title_of(i)] =
          static_cast<std::size_t>(rng.uniform_int(1, 120));
    }
    model.step(viewers, live);
    for (const auto& [title, v] : viewers) {
      EXPECT_GE(live_held(model.replicas(title), live), 2u)
          << title << " at step " << step;
    }
  }
}

TEST(PlacementProperty, ConvergesAndStaysQuietUnderConstantDemand) {
  // Freeze demand and the live set at random levels; after the cooldown
  // flushes, the model must go quiet and *stay* quiet — the add threshold
  // (v > vpr*n) and the drop threshold (v <= margin*vpr*(n-1)) are
  // separated by the dead band, so no demand level can flap.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    PlacementConfig cfg;
    cfg.viewers_per_replica = 30;
    PlacementModel model(cfg);
    constexpr int kTitles = 10;
    std::map<std::string, std::size_t> viewers;
    for (int i = 0; i < kTitles; ++i) {
      model.add_title(title_of(i));
      viewers[title_of(i)] =
          static_cast<std::size_t>(rng.uniform_int(0, 200));
    }
    const std::vector<net::NodeId> live = {0, 1, 2, 3, 4};

    // Settle: first placement plus one full cooldown, with margin.
    int settle = 0;
    for (; settle < 2 * (cfg.cooldown_periods + 1); ++settle) {
      if (model.step(viewers, live).empty()) break;
    }
    EXPECT_LE(settle, cfg.cooldown_periods + 1) << "seed " << seed;
    for (int step = 0; step < 50; ++step) {
      const auto ops = model.step(viewers, live);
      ASSERT_TRUE(ops.empty())
          << "seed " << seed << " oscillated " << step
          << " steps after convergence: " << describe_ops(ops);
    }
  }
}

TEST(PlacementProperty, InitialPlacementBalancesLoad) {
  // Equal demand on every title from an empty model: the least-loaded add
  // rule must spread replicas evenly (max/min desired load differ by <= 1).
  PlacementConfig cfg;
  cfg.replication_floor = 2;
  PlacementModel model(cfg);
  constexpr int kTitles = 20;
  std::map<std::string, std::size_t> viewers;
  for (int i = 0; i < kTitles; ++i) {
    model.add_title(title_of(i));
    viewers[title_of(i)] = 10;
  }
  const std::vector<net::NodeId> live = {0, 1, 2, 3, 4};
  model.step(viewers, live);
  std::size_t lo = kTitles * 2, hi = 0, total = 0;
  for (net::NodeId n : live) {
    lo = std::min(lo, model.load(n));
    hi = std::max(hi, model.load(n));
    total += model.load(n);
  }
  EXPECT_LE(hi - lo, 1u);
  EXPECT_EQ(total, 2u * kTitles);  // floor(=2) replicas for each title
}

TEST(PlacementProperty, OpSequenceIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    util::Rng rng(seed);
    PlacementConfig cfg;
    PlacementModel model(cfg);
    std::map<std::string, std::size_t> viewers;
    for (int i = 0; i < 10; ++i) model.add_title(title_of(i));
    const std::vector<net::NodeId> live = {0, 1, 2, 3};
    std::string trace;
    for (int step = 0; step < 100; ++step) {
      for (int i = 0; i < 10; ++i) {
        viewers[title_of(i)] =
            static_cast<std::size_t>(rng.uniform_int(0, 150));
      }
      trace += describe_ops(model.step(viewers, live));
      trace += "|";
    }
    return trace;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

// ---------------------------------------------------------------------------
// Controller-level regression: restart re-registration.

TEST(PlacementController, RestartedServerGetsItsCatalogBack) {
  Deployment dep(20260808);
  std::vector<net::NodeId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(dep.add_host("server" + std::to_string(i)));
  }
  const net::NodeId client_host = dep.add_host("viewer");
  for (net::NodeId h : hosts) dep.start_server(h);
  dep.start_client(client_host);

  PlacementConfig cfg;
  cfg.replication_floor = 2;
  PlacementController ctl(dep, cfg);
  for (int i = 0; i < 4; ++i) {
    ctl.manage(mpeg::Movie::synthetic("m" + std::to_string(i), 600.0));
  }
  ctl.start();
  dep.run_for(sim::sec(3.0));  // GCS convergence + first placements
  dep.clients()[0]->client->watch("m0");
  dep.run_for(sim::sec(3.0));

  // The watched title sits at its floor (=2); idle titles keep the single
  // archival copy.
  EXPECT_EQ(ctl.model().replicas("m0").size(), 2u);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(ctl.model().replicas("m" + std::to_string(i)).size(), 1u) << i;
  }

  // Pick a server the model wants at least one title on, reboot it.
  const net::NodeId victim = ctl.model().replicas("m0").front();
  const std::size_t wanted_here = ctl.model().load(victim);
  ASSERT_GT(wanted_here, 0u);
  dep.crash(victim);
  dep.run_for(sim::sec(2.0));
  Deployment::ServerNode* sn = dep.restart_server(victim);
  ASSERT_NE(sn, nullptr);
  ASSERT_TRUE(testing::held_movies(*sn->server).empty());  // fresh reboot

  const std::uint64_t before = ctl.stats().reregistrations;
  ctl.handle_restart(victim);
  EXPECT_EQ(ctl.stats().reregistrations - before, wanted_here);
  for (int i = 0; i < 4; ++i) {
    const std::string title = "m" + std::to_string(i);
    const auto& want = ctl.model().replicas(title);
    if (std::find(want.begin(), want.end(), victim) != want.end()) {
      EXPECT_TRUE(sn->server->holds(title)) << title;
    }
  }
  // And the stream still works end to end after the reboot.
  dep.run_for(sim::sec(6.0));
  EXPECT_TRUE(dep.clients()[0]->client->playing());
}

TEST(PlacementController, PeriodicTickRepairsRestartWithoutDelegate) {
  // Even with nobody calling handle_restart, the periodic reconcile pass
  // must repair the empty catalog within a few control periods.
  Deployment dep(424242);
  std::vector<net::NodeId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(dep.add_host("s" + std::to_string(i)));
  }
  for (net::NodeId h : hosts) dep.start_server(h);
  PlacementConfig cfg;
  cfg.replication_floor = 2;
  cfg.control_period = sim::msec(500);
  PlacementController ctl(dep, cfg);
  ctl.manage(mpeg::Movie::synthetic("solo", 600.0));
  ctl.start();
  dep.run_for(sim::sec(3.0));

  const net::NodeId victim = ctl.model().replicas("solo").front();
  dep.crash(victim);
  dep.run_for(sim::sec(1.0));
  Deployment::ServerNode* sn = dep.restart_server(victim);
  ASSERT_NE(sn, nullptr);
  dep.run_for(sim::sec(2.0));  // a few control periods
  if (std::binary_search(ctl.model().replicas("solo").begin(),
                         ctl.model().replicas("solo").end(), victim)) {
    EXPECT_TRUE(sn->server->holds("solo"));
  } else {
    // The model may have re-homed the title while the victim was down; it
    // must then live on enough *other* servers instead.
    EXPECT_GE(ctl.model().replicas("solo").size(), 2u);
  }
  EXPECT_GT(ctl.stats().ticks, 0u);
}

}  // namespace
}  // namespace ftvod::vod
