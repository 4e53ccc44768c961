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
#include "violation_stream.hpp"
#include "vod/placement.hpp"
#include "workload/session_workload.hpp"

namespace ftvod::testing {
namespace {

template <class Param>
class Soak : public ::testing::TestWithParam<Param> {
 public:
  static void SetUpTestSuite() {
    if (const char* lvl = std::getenv("FTVOD_LOG")) {
      const std::string s(lvl);
      if (s == "debug") util::Log::set_level(util::LogLevel::kDebug);
      if (s == "info") util::Log::set_level(util::LogLevel::kInfo);
    }
  }
};

/// What a soak run's monitor saw. The run's other expectations do not
/// depend on the monitor's options, so the run checks them itself.
struct MonitorVerdict {
  std::uint64_t violations = 0;
  std::uint64_t checks = 0;
  std::string stream;   // violation_stream()
  std::string failure;  // reproduction context and report, for messages
};

MonitorVerdict verdict_of(vod::Deployment& dep,
                          const InvariantMonitor& monitor,
                          const std::string& context) {
  return {monitor.total_violations(), monitor.checks_run(),
          violation_stream(dep, monitor), context + monitor.report()};
}

using ChaosSoak = Soak<std::tuple<int, bool>>;

MonitorVerdict run_soak(std::uint64_t seed, bool wan,
                        const ChaosOptions& copts,
                        const InvariantOptions& iopts = {}) {
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
  EXPECT_FALSE(plan.events().empty());
  ChaosInjector injector(dep, plan);
  injector.arm();
  InvariantMonitor monitor(dep, iopts);
  monitor.start();

  // Past the fault window plus every trailing repair, with settle time.
  dep.run_until(sim::sec(80.0));

  EXPECT_EQ(injector.events_applied(), plan.events().size());
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
  return verdict_of(dep, monitor,
                    std::string(wan ? "WAN" : "LAN") +
                        " soak violated invariants; reproduce with seed " +
                        std::to_string(seed) + "\n" + plan.describe());
}

TEST_P(ChaosSoak, InvariantsHoldUnderMixedFaults) {
  const auto [seed_int, wan] = GetParam();
  // Default options: faults drawn in [8 s, 60 s), at least one server
  // always left healthy. Repairs may land a few seconds past the window.
  const MonitorVerdict v =
      run_soak(static_cast<std::uint64_t>(seed_int), wan, ChaosOptions{});
  EXPECT_EQ(v.violations, 0u) << v.failure;
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
  const MonitorVerdict v =
      run_soak(static_cast<std::uint64_t>(seed_int), wan, copts);
  EXPECT_EQ(v.violations, 0u) << v.failure;
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

using CatalogChurnSoak = Soak<int>;

/// The placement controller's floor, which the monitor enforces too.
constexpr std::size_t kPlacementFloor = 2;

MonitorVerdict run_churn_soak(std::uint64_t seed,
                              const InvariantOptions& iopts) {
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
  pcfg.replication_floor = kPlacementFloor;
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

  InvariantMonitor monitor(dep, iopts);
  monitor.start();

  dep.run_until(sim::sec(70.0));

  EXPECT_EQ(injector.events_applied(), plan.events().size());
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
  return verdict_of(dep, monitor,
                    "churn soak violated invariants; seed " +
                        std::to_string(seed) + "\n");
}

TEST_P(CatalogChurnSoak, PlacementHoldsInvariantsUnderChurnAndCrash) {
  const MonitorVerdict v =
      run_churn_soak(static_cast<std::uint64_t>(GetParam()),
                     {.replication_floor = kPlacementFloor});
  EXPECT_EQ(v.violations, 0u) << v.failure;
}

// ---------------------------------------------------------------------------
// The monitor's violation stream, pinned on two sweep runs that violate
// under a stall bound (and, in the churn run, a floor) tighter than the
// system keeps. A monitor change meant to be invisible must keep every
// violation: its time, its text and its order.

TEST(MonitorStreamPin, ChaosSoakLanSeed5UnderA300msStallBound) {
  const MonitorVerdict v = run_soak(5, /*wan=*/false, ChaosOptions{},
                                    {.stall_bound = sim::msec(300)});
  EXPECT_EQ(v.violations, 30u);
  EXPECT_EQ(v.checks, 750u);
  EXPECT_EQ(v.stream, R"(11100000 client #1 stalled at frame 218 for more than 0.3s despite a reachable replica
11500000 client #1 stalled at frame 218 for more than 0.3s despite a reachable replica
11900000 client #1 stalled at frame 218 for more than 0.3s despite a reachable replica
23300000 client #1 stalled at frame 542 for more than 0.3s despite a reachable replica
23700000 client #1 stalled at frame 542 for more than 0.3s despite a reachable replica
23900000 client #0 stalled at frame 640 for more than 0.3s despite a reachable replica
24000000 client #2 stalled at frame 651 for more than 0.3s despite a reachable replica
24100000 client #1 stalled at frame 542 for more than 0.3s despite a reachable replica
24300000 client #0 stalled at frame 640 for more than 0.3s despite a reachable replica
24400000 client #2 stalled at frame 651 for more than 0.3s despite a reachable replica
24500000 client #1 stalled at frame 542 for more than 0.3s despite a reachable replica
24700000 client #0 stalled at frame 640 for more than 0.3s despite a reachable replica
24800000 client #2 stalled at frame 651 for more than 0.3s despite a reachable replica
24900000 client #1 stalled at frame 542 for more than 0.3s despite a reachable replica
25100000 client #0 stalled at frame 640 for more than 0.3s despite a reachable replica
49600000 client #0 stalled at frame 1373 for more than 0.3s despite a reachable replica
49600000 client #1 stalled at frame 1273 for more than 0.3s despite a reachable replica
50000000 client #0 stalled at frame 1373 for more than 0.3s despite a reachable replica
50000000 client #1 stalled at frame 1273 for more than 0.3s despite a reachable replica
50400000 client #0 stalled at frame 1373 for more than 0.3s despite a reachable replica
50400000 client #1 stalled at frame 1273 for more than 0.3s despite a reachable replica
50800000 client #0 stalled at frame 1373 for more than 0.3s despite a reachable replica
50800000 client #1 stalled at frame 1273 for more than 0.3s despite a reachable replica
57500000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
57900000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
58300000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
58700000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
59100000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
59500000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
59900000 client #1 stalled at frame 1434 for more than 0.3s despite a reachable replica
)");
}

TEST(MonitorStreamPin, CatalogChurnSeed36UnderFloor3And300msStallBound) {
  const MonitorVerdict v = run_churn_soak(
      36, {.stall_bound = sim::msec(300), .replication_floor = 3});
  EXPECT_EQ(v.violations, 80u);
  EXPECT_EQ(v.checks, 680u);
  EXPECT_EQ(v.stream, R"(9100000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
9300000 title 'm000' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
12300000 title 'm006' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
14500000 title 'm003' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
15200000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
15400000 title 'm000' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
17700000 title 'm001' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
19400000 title 'm009' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
20600000 title 'm003' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
21300000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
21300000 title 'm011' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
21500000 title 'm000' with 3 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
23800000 title 'm001' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
24400000 title 'm013' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
25400000 title 'm010' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
25500000 client #2 stalled at frame 1 for more than 0.3s despite a reachable replica
25500000 title 'm009' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
25700000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
26100000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
26500000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
26700000 title 'm003' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
26900000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
27300000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
27400000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
27400000 title 'm011' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
27600000 title 'm000' with 6 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
27700000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
28100000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
28500000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
28900000 client #3 stalled at frame 18 for more than 0.3s despite a reachable replica
29900000 title 'm001' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
30500000 title 'm013' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
30700000 title 'm017' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
31500000 title 'm010' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
31600000 title 'm009' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
32800000 title 'm003' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
33500000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
33500000 title 'm011' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
36600000 title 'm013' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
36800000 title 'm017' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
37300000 title 'm005' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
37600000 title 'm010' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
37700000 title 'm009' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
38900000 title 'm003' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
39600000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
39600000 title 'm011' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
42700000 title 'm013' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
43700000 title 'm010' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
43800000 title 'm009' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
45000000 title 'm003' with 3 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
45700000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
45700000 title 'm011' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
48800000 title 'm013' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
49800000 title 'm010' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
49900000 title 'm009' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
50100000 title 'm012' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
51100000 title 'm003' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
51800000 title 'm002' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
51800000 title 'm011' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
53900000 title 'm005' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
54400000 title 'm014' with 2 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
54900000 title 'm013' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
55900000 title 'm010' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
56200000 title 'm012' with 1 watching clients under-replicated: 2 < 3 healthy replicas for more than 6s
)");
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
