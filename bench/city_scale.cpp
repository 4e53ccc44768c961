// City-scale macro benchmark: the tentpole scenario of the catalog /
// placement work. A Zipf catalog of a few hundred titles, thousands of
// edge clients attached through shared gateway daemons, Poisson session
// churn on part of the pool, and the placement controller moving replicas
// as demand moves — with the invariant monitor (including the replication
// floor) running for the whole measurement, so the numbers in the record
// are from a run that was *correct*, not merely fast.
//
// Two outputs, both in BENCH_city.json:
//   * scaling — clients vs events/s, frames/s and allocs/frame at 1k..10k
//     concurrent clients (timer wheel on, the shipping configuration).
//   * wheel_comparison — the flagship 10k-client run twice: timer wheel
//     disabled (the pre-optimization binary-heap scheduler, "before") and
//     enabled ("after"), with the speedup.
//
// Usage: city_scale [output.json]
//   FTVOD_BENCH_SMOKE=1 shrinks everything to a seconds-long sanity run
//   (bench_smoke uses this; smoke numbers are not meaningful).
//   FTVOD_CITY_ONLY=<clients> runs a single size and exits (debugging);
//   FTVOD_CITY_LOG=1 turns on protocol-level info logging.
//
// Run from a Release build only; Debug numbers are noise.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mpeg/catalog_gen.hpp"
#include "sim/scheduler.hpp"
#include "testing/invariants.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "vod/placement.hpp"
#include "vod/service.hpp"
#include "workload/session_workload.hpp"

#include "testing/counting_alloc.hpp"

namespace {

using Clock = std::chrono::steady_clock;

bool smoke_mode() {
  const char* v = std::getenv("FTVOD_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

struct CityConfig {
  int clients = 0;
  int churn_pool = 0;  // tail of the pool that churns via Poisson
  int servers = 8;
  int gateways = 2;
  std::size_t titles = 200;
  double stagger_s = 4.0;   // watch ramp
  double settle_s = 6.0;    // after the ramp, before measuring
  double measure_s = 4.0;   // measurement window
  bool wheel = true;
};

struct CityResult {
  int clients = 0;
  bool wheel = true;
  std::size_t watching = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  double sim_s = 0.0;
  double wall_s = 0.0;
  // Correctness alongside the speed numbers.
  std::uint64_t placement_adds = 0;
  std::uint64_t placement_removes = 0;
  std::uint64_t invariant_checks = 0;
  std::size_t invariant_violations = 0;
  std::uint64_t churn_arrivals = 0;
  std::uint64_t churn_departures = 0;
};

CityResult run_city(const CityConfig& cfg) {
  using namespace ftvod;
  using namespace ftvod::vod;

  Deployment dep(20260808);
  dep.scheduler().set_wheel_enabled(cfg.wheel);

  // Core hosts get datacenter provisioning: a server streaming to ~1250
  // clients at 1.4 Mbps needs ~1.8 Gbps of uplink, and the default
  // 100 Mbps host NIC would starve the control plane (syncs, open replies)
  // behind the video queue — protocol repair deadlines slip and the
  // invariant monitor rightly complains. 10 GbE, with queues deep enough
  // that a sync burst never tail-drops.
  net::HostConfig core;
  core.uplink_bps = 10e9;
  core.downlink_bps = 10e9;
  core.queue_limit_bytes = 8u << 20;
  core.downlink_queue_bytes = 8u << 20;
  std::vector<net::NodeId> server_nodes;
  for (int i = 0; i < cfg.servers; ++i) {
    server_nodes.push_back(dep.add_host("server" + std::to_string(i), core));
  }
  std::vector<net::NodeId> gw_nodes;
  for (int i = 0; i < cfg.gateways; ++i) {
    gw_nodes.push_back(dep.add_host("gw" + std::to_string(i), core));
  }
  std::vector<net::NodeId> edge_nodes;
  edge_nodes.reserve(static_cast<std::size_t>(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) {
    edge_nodes.push_back(dep.add_edge_host("edge" + std::to_string(i)));
  }
  for (net::NodeId s : server_nodes) dep.start_server(s);
  std::vector<Deployment::GatewayNode*> gws;
  for (net::NodeId g : gw_nodes) gws.push_back(&dep.start_gateway(g));
  for (int i = 0; i < cfg.clients; ++i) {
    dep.start_client(edge_nodes[static_cast<std::size_t>(i)],
                     *gws[static_cast<std::size_t>(i) % gws.size()]);
  }

  mpeg::CatalogSpec cspec;
  cspec.titles = cfg.titles;
  cspec.min_duration_s = 600.0;  // nobody reaches the credits mid-measure
  cspec.max_duration_s = 900.0;
  const auto catalog = mpeg::GeneratedCatalog::generate(7, cspec);

  PlacementConfig pcfg;
  pcfg.replication_floor = 2;
  pcfg.viewers_per_replica = 250;
  PlacementController controller(dep, pcfg);
  for (const auto& e : catalog.entries()) controller.manage(e.movie);

  dep.run_for(sim::sec(2.0));  // GCS convergence
  controller.tick_now();
  controller.start();

  // The bulk of the pool watches steadily — ranks drawn from the catalog's
  // own Zipf law, watches staggered across the ramp window so session-open
  // traffic ramps rather than detonates. The tail churns via Poisson.
  const int steady = cfg.clients - cfg.churn_pool;
  util::Rng pick(99);
  const auto step =
      static_cast<sim::Duration>(sim::sec(cfg.stagger_s) / std::max(steady, 1));
  for (int i = 0; i < steady; ++i) {
    const std::size_t rank = catalog.sample_rank(pick.uniform());
    VodClient* c = dep.clients()[static_cast<std::size_t>(i)]->client.get();
    dep.scheduler().at(
        dep.scheduler().now() + static_cast<sim::Duration>(i) * step,
        [c, &catalog, rank] { c->watch(catalog.entry(rank).movie->name()); });
  }
  workload::WorkloadConfig wcfg;
  wcfg.mean_hold_s = 30.0;
  wcfg.arrival_rate_per_s = static_cast<double>(cfg.churn_pool) / 25.0;
  workload::SessionWorkload churn(dep.scheduler(), catalog, wcfg);
  for (int i = steady; i < cfg.clients; ++i) {
    churn.add_client(dep.clients()[static_cast<std::size_t>(i)]->client.get());
  }
  churn.start();

  testing::InvariantOptions iopts;
  iopts.replication_floor = pcfg.replication_floor;
  testing::InvariantMonitor monitor(dep, iopts);
  monitor.start();

  dep.run_for(sim::sec(cfg.stagger_s + cfg.settle_s));

  CityResult r;
  r.clients = cfg.clients;
  r.wheel = cfg.wheel;
  r.sim_s = cfg.measure_s;
  for (auto& cn : dep.clients()) {
    if (cn->client->watching()) ++r.watching;
  }
  auto frames_sent = [&] {
    std::uint64_t sum = 0;
    for (auto& sn : dep.servers()) {
      if (sn->server) sum += sn->server->stats().frames_sent;
    }
    return sum;
  };

  const std::uint64_t allocs0 = testing::alloc_count;
  const std::uint64_t events0 = dep.scheduler().executed_events();
  const std::uint64_t frames0 = frames_sent();
  const auto t0 = Clock::now();
  dep.run_for(sim::sec(cfg.measure_s));
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.events = dep.scheduler().executed_events() - events0;
  r.frames = frames_sent() - frames0;
  r.allocs = testing::alloc_count - allocs0;
  r.placement_adds = controller.stats().adds;
  r.placement_removes = controller.stats().drops;
  r.invariant_checks = monitor.checks_run();
  r.invariant_violations = monitor.violations().size();
  r.churn_arrivals = churn.stats().arrivals;
  r.churn_departures = churn.stats().departures;
  return r;
}

double per_sec(std::uint64_t n, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(n) / wall_s : 0.0;
}

double per(std::uint64_t n, std::uint64_t d) {
  return d > 0 ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
}

void print_result(const char* tag, const CityResult& r) {
  std::printf(
      "%-22s %6d clients (%5zu watching)  %9llu events  %8llu frames  "
      "%6.2fs wall  ->  %8.0f events/s  %7.0f frames/s  %5.2f allocs/frame  "
      "[placement +%llu/-%llu, %llu checks, %zu violations]\n",
      tag, r.clients, r.watching, static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.frames), r.wall_s,
      per_sec(r.events, r.wall_s), per_sec(r.frames, r.wall_s),
      per(r.allocs, r.frames),
      static_cast<unsigned long long>(r.placement_adds),
      static_cast<unsigned long long>(r.placement_removes),
      static_cast<unsigned long long>(r.invariant_checks),
      r.invariant_violations);
}

void json_result(std::ostringstream& os, const CityResult& r,
                 const char* indent) {
  os << indent << "{\n";
  os << indent << "  \"clients\": " << r.clients << ",\n";
  os << indent << "  \"wheel\": " << (r.wheel ? "true" : "false") << ",\n";
  os << indent << "  \"watching\": " << r.watching << ",\n";
  os << indent << "  \"sim_s\": " << r.sim_s << ",\n";
  os << indent << "  \"events\": " << r.events << ",\n";
  os << indent << "  \"frames\": " << r.frames << ",\n";
  os << indent << "  \"allocs\": " << r.allocs << ",\n";
  os << indent << "  \"wall_s\": " << r.wall_s << ",\n";
  os << indent << "  \"events_per_s\": " << per_sec(r.events, r.wall_s)
     << ",\n";
  os << indent << "  \"frames_per_s\": " << per_sec(r.frames, r.wall_s)
     << ",\n";
  os << indent << "  \"allocs_per_frame\": " << per(r.allocs, r.frames)
     << ",\n";
  os << indent << "  \"placement_adds\": " << r.placement_adds << ",\n";
  os << indent << "  \"placement_removes\": " << r.placement_removes << ",\n";
  os << indent << "  \"invariant_checks\": " << r.invariant_checks << ",\n";
  os << indent << "  \"invariant_violations\": " << r.invariant_violations
     << ",\n";
  os << indent << "  \"churn_arrivals\": " << r.churn_arrivals << ",\n";
  os << indent << "  \"churn_departures\": " << r.churn_departures << "\n";
  os << indent << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode();
  if (const char* lvl = std::getenv("FTVOD_CITY_LOG"); lvl && *lvl) {
    ftvod::util::Log::set_level(ftvod::util::LogLevel::kInfo);
  }
  if (const char* only = std::getenv("FTVOD_CITY_ONLY"); only && *only) {
    // Debug: one run at the given client count, wheel on, then exit.
    CityConfig cfg;
    cfg.clients = std::atoi(only);
    cfg.churn_pool = cfg.clients / 10;
    cfg.gateways = std::max(2, cfg.clients / 400);
    const CityResult r = run_city(cfg);
    print_result("debug", r);
    return r.invariant_violations == 0 ? 0 : 1;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_city.json";

  // Scaling sweep (wheel on), then the flagship size twice for the
  // before/after wheel comparison. Smoke keeps the same structure at toy
  // scale so the whole harness stays exercised.
  std::vector<int> sweep =
      smoke ? std::vector<int>{40} : std::vector<int>{1000, 2500, 5000};
  const int flagship = smoke ? 80 : 10'000;

  auto config_for = [&](int clients, bool wheel) {
    CityConfig cfg;
    cfg.clients = clients;
    cfg.churn_pool = clients / 10;
    cfg.servers = smoke ? 3 : 8;
    cfg.gateways = std::max(2, clients / 400);
    cfg.titles = smoke ? 24 : 200;
    cfg.stagger_s = smoke ? 1.0 : 4.0;
    cfg.settle_s = smoke ? 2.0 : 6.0;
    cfg.measure_s = smoke ? 1.0 : 4.0;
    cfg.wheel = wheel;
    return cfg;
  };

  std::cout << "=== City-scale catalog + placement ===\n"
            << (smoke ? "(smoke scale; numbers not meaningful)\n" : "");

  std::vector<CityResult> scaling;
  for (int clients : sweep) {
    scaling.push_back(run_city(config_for(clients, /*wheel=*/true)));
    print_result("scaling", scaling.back());
  }
  const CityResult before = run_city(config_for(flagship, /*wheel=*/false));
  print_result("flagship (wheel off)", before);
  const CityResult after = run_city(config_for(flagship, /*wheel=*/true));
  print_result("flagship (wheel on)", after);
  scaling.push_back(after);

  const double speedup =
      before.wall_s > 0.0 && after.wall_s > 0.0 ? before.wall_s / after.wall_s
                                                : 0.0;
  std::printf("timer wheel speedup at %d clients: %.2fx\n", flagship, speedup);

  std::size_t violations = before.invariant_violations;
  for (const CityResult& r : scaling) violations += r.invariant_violations;

  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\n";
  os << "  \"bench\": \"city_scale\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    json_result(os, scaling[i], "    ");
    os << (i + 1 < scaling.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"wheel_comparison\": {\n";
  os << "    \"clients\": " << flagship << ",\n";
  os << "    \"before_wheel_off\":\n";
  json_result(os, before, "      ");
  os << ",\n";
  os << "    \"after_wheel_on\":\n";
  json_result(os, after, "      ");
  os << ",\n";
  os << "    \"wall_speedup\": " << speedup << "\n";
  os << "  }\n";
  os << "}\n";

  std::ofstream f(out_path, std::ios::trunc);
  if (!f) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  f << os.str();
  std::cout << "wrote " << out_path << '\n';

  if (violations != 0) {
    std::cerr << "invariant violations during the benchmark runs\n";
    return 1;
  }
  return 0;
}
