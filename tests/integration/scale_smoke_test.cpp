// Tier-1 scale regression guard. A ~500-client city slice — Zipf catalog,
// two gateway daemons fanning out to edge hosts, demand-driven placement,
// Poisson churn on part of the pool — runs for a few simulated seconds and
// the test fails if the per-frame allocation count, the per-client event
// rate or (on datacenter NICs) the GCS fan-out and retransmissions per
// ordered message regress past the committed thresholds. This is the cheap canary
// for the full 10k-client macro run in bench/city_scale.cpp: an O(clients)
// periodic scan or a new per-frame allocation sneaks in, this trips in the
// default ctest tier rather than in a benchmark nobody re-runs.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "mpeg/catalog_gen.hpp"
#include "util/rng.hpp"
#include "vod/placement.hpp"
#include "vod/service.hpp"
#include "workload/session_workload.hpp"

// Counting allocator: under ASan the hooks compile out and the allocation
// assertions are skipped (throughput assertions still run).
#include "testing/counting_alloc.hpp"

using ftvod::testing::alloc_count;
using ftvod::testing::kCountingAlloc;

namespace ftvod::vod {
namespace {

// Committed regression thresholds, on the default 100 Mbps NICs. Measured
// steady state at commit time (RelWithDebInfo build, 500 clients, ~430
// watching): 2.6 allocs/frame — all of it session churn and control-loop
// bookkeeping; the frame send path itself is proven allocation-free by
// scheduler_slab_test — and 108 events/(client*sim-s). The event rate is
// fully deterministic (same seed, same count), so its headroom is pure
// regression budget; the allocation headroom additionally absorbs stdlib
// drift. An O(clients) periodic scan or a per-event allocation blows past
// either bound immediately.
constexpr double kMaxAllocsPerFrame = 20.0;
constexpr double kMaxEventsPerClientSimSecond = 200.0;
// GCS cost per ordered message, summed over every daemon, on the
// datacenter NICs of city_scale (10 GbE, 8 MiB queues): deliveries (the
// fan-out; group-scoped delivery sends every message of a group, joins and
// leaves included, only to the daemons hosting it plus the sender, so a
// session message reaches its two hosts) and retransmissions (none are
// needed on this lossless LAN). Measured 2.014 and 0; exact per seed,
// like the event rate (2.046 while two servers could open one client's
// session, 2.37 while joins and leaves went to all six daemons). On
// 100 Mbps NICs the coordinator (server0) drops most of its datagrams
// behind its own video, so no protocol could hold these there.
constexpr double kMaxDeliveredPerOrdered = 2.2;
constexpr double kMaxRetransPerOrdered = 0.01;
// Scheduler events per frame sent on the datacenter NICs, also exact per
// seed. A frame costs one arrival event (downlink serialization folded in)
// and one send tick. Display ticks are no events: a client runs them
// before its next arrival, and its deadline timer fires a few times a
// second only to catch an outage. Measured 2.429 (3.23 with a display-tick
// event per frame, 4.43 before downlink serialization and the watchdog
// were folded too); a per-frame client event lands far above the bound.
constexpr double kMaxEventsPerFrame = 2.5;

struct SliceCounts {
  std::size_t watching = 0;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  double allocs_per_frame = 0;
  double events_per_client_s = 0;
  double events_per_frame = 0;
  std::uint64_t ordered = 0;
  double delivered_per_ordered = 0;
  double retrans_per_ordered = 0;
};

/// Runs the slice with `core` NICs on servers and gateways and measures a
/// 4 s steady-state window.
SliceCounts run_slice(const char* label, const net::HostConfig& core) {
  constexpr int kServers = 4;
  constexpr int kGateways = 2;
  constexpr int kClients = 500;
  constexpr int kChurnPool = 150;  // tail of the pool churns via Poisson
  constexpr double kMeasureSimSeconds = 4.0;

  const auto wall0 = std::chrono::steady_clock::now();
  Deployment dep(20260808);
  std::vector<net::NodeId> server_nodes;
  for (int i = 0; i < kServers; ++i) {
    server_nodes.push_back(dep.add_host("server" + std::to_string(i), core));
  }
  std::vector<net::NodeId> gw_nodes;
  for (int i = 0; i < kGateways; ++i) {
    gw_nodes.push_back(dep.add_host("gw" + std::to_string(i), core));
  }
  std::vector<net::NodeId> edge_nodes;
  for (int i = 0; i < kClients; ++i) {
    edge_nodes.push_back(dep.add_edge_host("edge" + std::to_string(i)));
  }
  for (net::NodeId s : server_nodes) dep.start_server(s);
  std::vector<Deployment::GatewayNode*> gws;
  for (net::NodeId g : gw_nodes) gws.push_back(&dep.start_gateway(g));
  for (int i = 0; i < kClients; ++i) {
    dep.start_client(edge_nodes[i], *gws[i % kGateways]);
  }

  mpeg::CatalogSpec cspec;
  cspec.titles = 40;
  cspec.min_duration_s = 300.0;
  cspec.max_duration_s = 600.0;
  const auto catalog = mpeg::GeneratedCatalog::generate(1, cspec);

  PlacementConfig pcfg;
  pcfg.replication_floor = 2;
  pcfg.viewers_per_replica = 50;
  PlacementController controller(dep, pcfg);
  for (const auto& e : catalog.entries()) controller.manage(e.movie);

  dep.run_for(sim::sec(2.0));  // GCS convergence
  controller.tick_now();
  controller.start();

  // The bulk of the pool watches steadily (ranks drawn from the catalog's
  // own law); the tail churns through the Poisson driver. Watches are
  // staggered so session-open traffic ramps rather than detonates.
  util::Rng pick(99);
  for (int i = 0; i < kClients - kChurnPool; ++i) {
    const std::size_t rank = catalog.sample_rank(pick.uniform());
    VodClient* c = dep.clients()[static_cast<std::size_t>(i)]->client.get();
    dep.scheduler().at(
        dep.scheduler().now() + static_cast<sim::Duration>(i) * 10'000,
        [c, &catalog, rank] { c->watch(catalog.entry(rank).movie->name()); });
  }
  workload::WorkloadConfig wcfg;
  wcfg.arrival_rate_per_s = 20.0;
  wcfg.mean_hold_s = 5.0;
  workload::SessionWorkload churn(dep.scheduler(), catalog, wcfg);
  for (int i = kClients - kChurnPool; i < kClients; ++i) {
    churn.add_client(dep.clients()[static_cast<std::size_t>(i)]->client.get());
  }
  churn.start();

  dep.run_for(sim::sec(8.0));  // opens complete, buffers fill, rates settle

  std::size_t watching = 0;
  for (auto& cn : dep.clients()) {
    if (cn->client->watching()) ++watching;
  }
  SliceCounts c;
  c.watching = watching;
  if (watching <= 350u) {
    ADD_FAILURE() << "steady state never formed";
    return c;
  }

  auto frames_sent = [&] {
    std::uint64_t sum = 0;
    for (auto& sn : dep.servers()) {
      if (sn->server) sum += sn->server->stats().frames_sent;
    }
    return sum;
  };

  auto gcs_totals = [&] {
    gcs::DaemonStats sum;
    auto add = [&](const gcs::Daemon* d) {
      if (d == nullptr) return;
      sum.messages_ordered += d->stats().messages_ordered;
      sum.messages_delivered += d->stats().messages_delivered;
      sum.retransmissions += d->stats().retransmissions;
    };
    for (auto& sn : dep.servers()) add(sn->daemon.get());
    for (auto& gn : dep.gateways()) add(gn->daemon.get());
    return sum;
  };

  const std::uint64_t allocs0 = alloc_count;
  const std::uint64_t events0 = dep.scheduler().executed_events();
  const std::uint64_t frames0 = frames_sent();
  const gcs::DaemonStats gcs0 = gcs_totals();
  dep.run_for(sim::sec(kMeasureSimSeconds));
  const std::uint64_t allocs = alloc_count - allocs0;
  c.events = dep.scheduler().executed_events() - events0;
  c.frames = frames_sent() - frames0;
  const gcs::DaemonStats gcs1 = gcs_totals();
  c.ordered = gcs1.messages_ordered - gcs0.messages_ordered;

  EXPECT_GT(c.frames, 10'000u);  // ~440 clients x 30 fps x 4 s
  EXPECT_GT(c.ordered, 0u);
  if (c.frames == 0 || c.ordered == 0) return c;
  c.allocs_per_frame =
      static_cast<double>(allocs) / static_cast<double>(c.frames);
  c.events_per_client_s =
      static_cast<double>(c.events) /
      (static_cast<double>(kClients) * kMeasureSimSeconds);
  c.events_per_frame =
      static_cast<double>(c.events) / static_cast<double>(c.frames);
  c.delivered_per_ordered =
      static_cast<double>(gcs1.messages_delivered - gcs0.messages_delivered) /
      static_cast<double>(c.ordered);
  c.retrans_per_ordered =
      static_cast<double>(gcs1.retransmissions - gcs0.retransmissions) /
      static_cast<double>(c.ordered);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();

  std::printf(
      "[scale_smoke] %s watching=%zu frames=%llu events=%llu "
      "allocs/frame=%.3f events/(client*sim-s)=%.1f events/frame=%.3f "
      "ordered=%llu delivered/ordered=%.3f retrans/ordered=%.4f "
      "wall=%.1fs\n",
      label, c.watching, static_cast<unsigned long long>(c.frames),
      static_cast<unsigned long long>(c.events), c.allocs_per_frame,
      c.events_per_client_s, c.events_per_frame,
      static_cast<unsigned long long>(c.ordered),
      c.delivered_per_ordered, c.retrans_per_ordered, wall_s);
  // Generous wall cap below the CTest TIMEOUT: catches runaway slowness
  // with a readable message before ctest kills the binary.
  EXPECT_LT(wall_s, 90.0);
  return c;
}

TEST(ScaleSmoke, FiveHundredClientsStayWithinPerFrameBudgets) {
  const SliceCounts c = run_slice("100Mbps", net::HostConfig{});
  RecordProperty("watching", static_cast<int>(c.watching));
  RecordProperty("frames", static_cast<int>(c.frames));
  RecordProperty("events", static_cast<int>(c.events));
  if (kCountingAlloc) {
    EXPECT_LT(c.allocs_per_frame, kMaxAllocsPerFrame)
        << "per-frame allocation regression (steady state must stay on the "
           "slabs/pools)";
  }
  EXPECT_LT(c.events_per_client_s, kMaxEventsPerClientSimSecond)
      << "per-client event-rate regression (an O(clients) or O(titles) "
         "periodic scan crept into the hot path?)";
}

TEST(ScaleSmoke, GcsCostPerOrderedMessageOnDatacenterNics) {
  net::HostConfig core;
  core.uplink_bps = 10e9;
  core.downlink_bps = 10e9;
  core.queue_limit_bytes = 8u << 20;
  core.downlink_queue_bytes = 8u << 20;
  const SliceCounts c = run_slice("10GbE", core);
  EXPECT_LE(c.delivered_per_ordered, kMaxDeliveredPerOrdered)
      << "GCS fan-out regression (ordered messages reaching daemons that "
         "host no member of their group?)";
  EXPECT_LT(c.retrans_per_ordered, kMaxRetransPerOrdered)
      << "GCS retransmission regression on a lossless LAN";
  EXPECT_LE(c.events_per_frame, kMaxEventsPerFrame)
      << "scheduler events per frame regressed (a second event per "
         "datagram for downlink serialization, or a per-frame client "
         "clock?)";
}

}  // namespace
}  // namespace ftvod::vod
