// Randomized chaos soak (label: soak). Each case builds a 3-server /
// 3-client deployment on a LAN or WAN profile, generates a mixed-fault
// ChaosPlan from the case seed — crashes with reboots, partitions,
// link-quality flaps, daemon pause/resume — replays it through the
// injector, and requires every invariant to hold for the entire run. On
// failure the offending seed and the full event trace are printed, so any
// red case reproduces with a one-line local run:
//
//   ./chaos_soak_test --gtest_filter='*lan_seed7*'
//
// Set FTVOD_LOG=info (or debug) to watch the full takeover / migration /
// reconnect traffic while replaying a seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "mpeg/catalog_gen.hpp"
#include "testing/chaos.hpp"
#include "testing/invariants.hpp"
#include "util/log.hpp"
#include "vod/placement.hpp"
#include "workload/session_workload.hpp"

namespace ftvod::testing {
namespace {

class ChaosSoak : public ::testing::TestWithParam<std::tuple<int, bool>> {
 public:
  static void SetUpTestSuite() {
    if (const char* lvl = std::getenv("FTVOD_LOG")) {
      const std::string s(lvl);
      if (s == "debug") util::Log::set_level(util::LogLevel::kDebug);
      if (s == "info") util::Log::set_level(util::LogLevel::kInfo);
    }
  }
};

void run_soak(std::uint64_t seed, bool wan, const ChaosOptions& copts) {
  vod::Deployment dep(seed, wan ? net::wan_quality() : net::lan_quality());
  std::vector<net::NodeId> server_nodes;
  std::vector<net::NodeId> client_nodes;
  for (int i = 0; i < 3; ++i) {
    server_nodes.push_back(dep.add_host("server" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    client_nodes.push_back(dep.add_host("client" + std::to_string(i)));
  }
  const auto movie = mpeg::Movie::synthetic("feature", 5 * 60.0);
  for (net::NodeId s : server_nodes) {
    dep.start_server(s).server->add_movie(movie);
  }
  for (net::NodeId c : client_nodes) dep.start_client(c);
  dep.run_for(sim::sec(2.0));
  for (auto& cn : dep.clients()) cn->client->watch("feature");
  dep.run_for(sim::sec(3.0));

  const ChaosPlan plan =
      ChaosPlan::generate(seed, copts, server_nodes, client_nodes);
  ASSERT_FALSE(plan.events().empty());
  ChaosInjector injector(dep, plan);
  injector.arm();
  InvariantMonitor monitor(dep);
  monitor.start();

  // Past the fault window plus every trailing repair, with settle time.
  dep.run_until(sim::sec(80.0));

  EXPECT_EQ(injector.events_applied(), plan.events().size());
  EXPECT_TRUE(monitor.ok())
      << (wan ? "WAN" : "LAN") << " soak violated invariants; reproduce "
      << "with seed " << seed << "\n"
      << plan.describe() << monitor.report();
  EXPECT_GT(monitor.checks_run(), 500u);

  // After the last repair the service must be fully healed: every client
  // saw a substantial share of the movie (75 s of wall time at 30 fps),
  // despite crashes, partitions and lossy links along the way.
  for (auto& cn : dep.clients()) {
    EXPECT_GT(cn->client->counters().displayed, 600u)
        << (wan ? "WAN" : "LAN") << " client on n" << cn->node
        << " starved; seed=" << seed << "\n"
        << plan.describe() << monitor.report();
  }
}

TEST_P(ChaosSoak, InvariantsHoldUnderMixedFaults) {
  const auto [seed_int, wan] = GetParam();
  // Default options: faults drawn in [8 s, 60 s), at least one server
  // always left healthy. Repairs may land a few seconds past the window.
  run_soak(static_cast<std::uint64_t>(seed_int), wan, ChaosOptions{});
}

using CorruptChaosSoak = ChaosSoak;

TEST_P(CorruptChaosSoak, InvariantsHoldUnderCorruptionAndBursts) {
  const auto [seed_int, wan] = GetParam();
  // Same mixed-fault schedule, but with corrupt-link flaps enabled: link
  // pairs transiently flip bits, truncate datagrams, and enter loss-burst
  // regimes. Every damaged datagram must be caught by the integrity
  // framing and handled exactly like loss — same invariants as the plain
  // sweep, no extra allowance.
  ChaosOptions copts;
  copts.weight_corrupt = 1.5;
  run_soak(static_cast<std::uint64_t>(seed_int), wan, copts);
}

// ---------------------------------------------------------------------------
// Catalog-churn soak: a miniature city — Zipf catalog, Poisson session
// churn through gateway-attached clients, the placement controller moving
// replicas as demand moves — under a scripted flash crowd on the top title
// with a server crash landing mid-rebalance. The injector's restart
// delegate hands recovery to the controller (the restarted server rejoins
// with an empty catalog and must be re-registered), and the invariant
// monitor additionally enforces the replication floor for every watched
// title.

class CatalogChurnSoak : public ::testing::TestWithParam<int> {
 public:
  static void SetUpTestSuite() {
    if (const char* lvl = std::getenv("FTVOD_LOG")) {
      const std::string s(lvl);
      if (s == "debug") util::Log::set_level(util::LogLevel::kDebug);
      if (s == "info") util::Log::set_level(util::LogLevel::kInfo);
    }
  }
};

TEST_P(CatalogChurnSoak, PlacementHoldsInvariantsUnderChurnAndCrash) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  vod::Deployment dep(seed);

  std::vector<net::NodeId> server_nodes;
  for (int i = 0; i < 4; ++i) {
    server_nodes.push_back(dep.add_host("server" + std::to_string(i)));
  }
  const net::NodeId gw_node = dep.add_host("gateway");
  std::vector<net::NodeId> edge_nodes;
  for (int i = 0; i < 20; ++i) {
    edge_nodes.push_back(dep.add_edge_host("edge" + std::to_string(i)));
  }
  // Servers start *empty*: the catalog belongs to the placement controller.
  for (net::NodeId s : server_nodes) dep.start_server(s);
  auto& gateway = dep.start_gateway(gw_node);
  for (net::NodeId e : edge_nodes) dep.start_client(e, gateway);

  mpeg::CatalogSpec cspec;
  cspec.titles = 24;
  cspec.min_duration_s = 120.0;
  cspec.max_duration_s = 300.0;
  const auto catalog = mpeg::GeneratedCatalog::generate(seed, cspec);

  vod::PlacementConfig pcfg;
  pcfg.replication_floor = 2;
  pcfg.viewers_per_replica = 4;
  pcfg.control_period = sim::msec(500);
  vod::PlacementController controller(dep, pcfg);
  for (const auto& entry : catalog.entries()) controller.manage(entry.movie);

  workload::WorkloadConfig wcfg;
  wcfg.arrival_rate_per_s = 1.0;
  wcfg.mean_hold_s = 20.0;
  wcfg.seed = seed;
  workload::SessionWorkload workload(dep.scheduler(), catalog, wcfg);
  for (auto& cn : dep.clients()) workload.add_client(cn->client.get());
  controller.set_demand_source(
      [&](std::map<std::string, std::size_t>& out) {
        workload.fill_demand(out);
      });

  dep.run_for(sim::sec(2.0));  // GCS convergence
  controller.tick_now();       // initial (idle) placement
  controller.start();
  workload.start();
  // Flash crowd on the most popular title from t=20 s to t=40 s.
  dep.scheduler().at(sim::sec(20.0), [&] {
    workload.flash_crowd(0, 0.7, sim::sec(40.0));
  });

  // Crash one replica of the flash-crowd title mid-rebalance (the boost is
  // 5 s old — adds are in flight), reboot it 6 s later.
  const net::NodeId victim = server_nodes[1];
  const vod::PlacementStats& pstats = controller.stats();
  ChaosEvent crash;
  crash.at = sim::sec(25.0);
  crash.kind = ChaosEventKind::kCrash;
  crash.a = victim;
  ChaosEvent reboot;
  reboot.at = sim::sec(31.0);
  reboot.kind = ChaosEventKind::kRestart;
  reboot.a = victim;
  const ChaosPlan plan = ChaosPlan::from_events({crash, reboot});
  ChaosInjector injector(dep, plan);
  injector.set_restart_delegate(
      [&](net::NodeId n, vod::Deployment::ServerNode&) {
        controller.handle_restart(n);
      });
  injector.arm();

  InvariantOptions iopts;
  iopts.replication_floor = pcfg.replication_floor;
  InvariantMonitor monitor(dep, iopts);
  monitor.start();

  dep.run_until(sim::sec(70.0));

  EXPECT_EQ(injector.events_applied(), plan.events().size());
  EXPECT_TRUE(monitor.ok())
      << "churn soak violated invariants; seed " << seed << "\n"
      << monitor.report();
  EXPECT_GT(monitor.checks_run(), 500u);
  // The workload actually churned and the controller actually worked.
  EXPECT_GT(workload.stats().arrivals, 40u);
  EXPECT_GT(workload.stats().departures, 20u);
  EXPECT_GT(pstats.adds, 24u);  // beyond the initial one-copy placement
  // The rebooted server rejoined empty and was re-registered by the
  // controller (it held a share of a 24-title catalog — some title wants it
  // back immediately, via the delegate or the next reconcile tick).
  EXPECT_GE(pstats.reregistrations, 1u) << "restart recovery never ran";
  // The flash-crowd title ended the run at or above its floor and, during
  // the crowd, demanded more than the floor's worth of replicas.
  const std::string& hot = catalog.entry(0).movie->name();
  EXPECT_GE(controller.model().replicas(hot).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CatalogChurnSoak, ::testing::Range(1, 41),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

const auto kSoakNamer =
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::string(std::get<1>(info.param) ? "wan" : "lan") + "_seed" +
             std::to_string(std::get<0>(info.param));
    };

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosSoak,
    ::testing::Combine(::testing::Range(1, 23), ::testing::Bool()),
    kSoakNamer);

// The corrupting sweep runs a subset of the seeds: every plan differs from
// the plain sweep's anyway (the extra fault class changes the whole
// schedule), so a handful of seeds buys coverage without doubling the tier.
INSTANTIATE_TEST_SUITE_P(
    CorruptSweep, CorruptChaosSoak,
    ::testing::Combine(::testing::Values(3, 7, 11, 16, 20), ::testing::Bool()),
    kSoakNamer);

}  // namespace
}  // namespace ftvod::testing
