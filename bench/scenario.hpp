// Shared benchmark scenario: the measurement runs of §6. One client watches
// a 1.4 Mbps / 30 fps movie; mid-run its server is crashed and/or a new
// server is brought up for load balancing, while a sampler records the
// series the paper plots (cumulative skipped/late frames, buffer
// occupancies, overflow discards).
#pragma once

#include <optional>
#include <string>

#include "metrics/recorder.hpp"
#include "vod/service.hpp"

namespace ftvod::bench {

struct ScenarioOptions {
  net::LinkQuality quality = net::lan_quality();
  std::uint64_t seed = 42;
  vod::VodParams params;
  double duration_s = 90.0;
  /// Seconds after the movie starts; nullopt = event disabled.
  std::optional<double> crash_at_s = 38.0;
  std::optional<double> load_balance_at_s = 62.0;
  double sample_period_s = 0.2;
  double movie_minutes = 10.0;
};

struct ScenarioResult {
  metrics::Recorder recorder;
  vod::BufferCounters final_counters;
  vod::ClientControlStats control;
  std::uint64_t takeovers = 0;
  std::uint64_t migrations = 0;
  std::uint64_t gcs_control_bytes = 0;  // serving servers' daemon traffic
  std::uint64_t video_bytes = 0;
  bool connected = false;
  double duration_s = 0.0;
};

/// Runs the migration scenario and returns the recorded series:
///   "skipped"      cumulative frames never displayed        (Figs 4a/5a)
///   "late"         cumulative late/duplicate frames         (Fig 4b)
///   "sw_frames"    software buffer occupancy in frames      (Fig 4c)
///   "hw_bytes"     hardware buffer occupancy in bytes       (Fig 4d)
///   "overflow"     cumulative overflow discards             (Fig 5b)
///   "occupancy"    total occupancy fraction
inline ScenarioResult run_migration_scenario(const ScenarioOptions& opt) {
  using namespace ftvod::vod;
  Deployment dep(opt.seed, opt.quality, opt.params);
  const net::NodeId s0 = dep.add_host("server0");
  const net::NodeId s1 = dep.add_host("server1");
  const net::NodeId s2 = dep.add_host("server2");  // the load-balance spare
  const net::NodeId c0 = dep.add_host("client0");

  auto movie = mpeg::Movie::synthetic("feature", opt.movie_minutes * 60.0);
  dep.start_server(s0).server->add_movie(movie);
  dep.start_server(s1).server->add_movie(movie);
  auto& client_node = dep.start_client(c0);
  dep.run_for(sim::sec(2.0));  // GCS convergence

  VodClient& client = *client_node.client;
  client.watch("feature");
  const sim::Time origin = dep.scheduler().now();

  ScenarioResult result;
  metrics::Recorder& rec = result.recorder;

  sim::PeriodicTimer sampler(
      dep.scheduler(), sim::sec(opt.sample_period_s), [&] {
        const sim::Time t = dep.scheduler().now() - origin;
        const BufferCounters& c = client.counters();
        rec.sample("skipped", t, static_cast<double>(c.skipped));
        rec.sample("late", t, static_cast<double>(c.late));
        rec.sample("overflow", t, static_cast<double>(c.overflow_discards));
        if (const auto b = client.buffers()) {
          rec.sample("sw_frames", t, static_cast<double>(b->sw_frames()));
          rec.sample("hw_bytes", t, static_cast<double>(b->hw_bytes()));
          rec.sample("occupancy", t, b->occupancy_fraction());
        }
      });
  sampler.start(sim::sec(opt.sample_period_s));

  auto run_until_scenario_time = [&](double seconds) {
    dep.run_until(origin + sim::sec(seconds));
  };

  std::vector<std::pair<double, char>> events;  // (time, 'c'|'l')
  if (opt.crash_at_s) events.emplace_back(*opt.crash_at_s, 'c');
  if (opt.load_balance_at_s) events.emplace_back(*opt.load_balance_at_s, 'l');
  std::sort(events.begin(), events.end());

  for (const auto& [at, kind] : events) {
    run_until_scenario_time(at);
    if (kind == 'c') {
      // Crash whichever server currently transmits to the client.
      for (auto& sn : dep.servers()) {
        if (sn->server->serves(client.client_id()) &&
            dep.network().alive(sn->node)) {
          dep.crash(sn->node);
          break;
        }
      }
    } else {
      dep.start_server(s2).server->add_movie(movie);
    }
  }
  run_until_scenario_time(opt.duration_s);

  result.final_counters = client.counters();
  result.control = client.control_stats();
  result.connected = client.connected();
  result.duration_s = opt.duration_s;
  for (auto& sn : dep.servers()) {
    result.takeovers += sn->server->stats().takeovers;
    result.migrations += sn->server->stats().migrations_out;
    result.gcs_control_bytes += sn->daemon->socket_stats().bytes_sent;
    result.video_bytes += sn->server->data_socket_stats().bytes_sent;
  }
  return result;
}

}  // namespace ftvod::bench
