// End-to-end test bed: a Deployment with N server hosts and M client hosts,
// all GCS daemons started at t=0 (so the daemon view converges once), a
// shared movie replicated on every server, and helpers to locate the server
// currently transmitting to a client.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "vod/service.hpp"

namespace ftvod::vod::testing {

class VodTestBed {
 public:
  /// `defer_last_n` server hosts are registered but not started; use
  /// start_deferred() to bring them up mid-test ("a new server is brought
  /// up on the fly").
  VodTestBed(int n_servers, int n_clients,
             net::LinkQuality quality = net::lan_quality(),
             std::uint64_t seed = 42, VodParams params = {},
             double movie_minutes = 5.0, int defer_last_n = 0)
      : dep_(seed, quality, params) {
    for (int i = 0; i < n_servers; ++i) {
      server_hosts_.push_back(dep_.add_host("server" + std::to_string(i)));
    }
    for (int i = 0; i < n_clients; ++i) {
      client_hosts_.push_back(dep_.add_host("client" + std::to_string(i)));
    }
    movie_ = mpeg::Movie::synthetic("feature", movie_minutes * 60.0);
    for (int i = 0; i < n_servers - defer_last_n; ++i) {
      auto& sn = dep_.start_server(server_hosts_[i]);
      sn.server->add_movie(movie_);
    }
    for (int i = 0; i < n_clients; ++i) {
      dep_.start_client(client_hosts_[i]);
    }
    // Let the daemon views and movie groups converge.
    dep_.run_for(sim::sec(2.0));
  }

  /// Starts a previously deferred server host and gives it the movie.
  VodServer& start_deferred(int i) {
    auto& sn = dep_.start_server(server_hosts_[i]);
    sn.server->add_movie(movie_);
    return *sn.server;
  }

  VodClient& client(int i = 0) { return *dep_.clients()[i]->client; }
  VodServer& server(int i) { return *dep_.servers()[i]->server; }
  int server_count() {
    return static_cast<int>(dep_.servers().size());
  }

  void watch_all(double capability_fps = 0.0) {
    for (auto& cn : dep_.clients()) {
      cn->client->watch(movie_->name(), capability_fps);
    }
  }

  /// Index of the server currently transmitting to client i, or -1.
  int serving_server(int i = 0) {
    const std::uint64_t id = client(i).client_id();
    for (std::size_t s = 0; s < dep_.servers().size(); ++s) {
      if (dep_.servers()[s]->server->serves(id)) return static_cast<int>(s);
    }
    return -1;
  }

  void crash_server(int i) { dep_.crash(server_hosts_[i]); }

  /// Brings up a brand-new server host (pre-registered in the GCS peer
  /// list is not possible post-hoc, so the bed pre-allocates one spare).
  Deployment& deployment() { return dep_; }
  std::shared_ptr<const mpeg::Movie> movie() const { return movie_; }
  net::NodeId server_host(int i) const { return server_hosts_[i]; }

  void run_for(double seconds) { dep_.run_for(sim::sec(seconds)); }

 private:
  Deployment dep_;
  std::vector<net::NodeId> server_hosts_;
  std::vector<net::NodeId> client_hosts_;
  std::shared_ptr<const mpeg::Movie> movie_;
};

/// The movies `server` holds, in title order.
inline std::vector<std::shared_ptr<const mpeg::Movie>> held_movies(
    const VodServer& server) {
  std::vector<std::shared_ptr<const mpeg::Movie>> out;
  server.for_each_movie(
      [&](const VodServer::HeldMovie& held) { out.push_back(held.movie); });
  return out;
}

/// The local sessions of `server` streaming `title` (0 when it does not
/// hold the title).
inline std::size_t sessions_streaming(const VodServer& server,
                                      const std::string& title) {
  std::size_t n = 0;
  server.for_each_movie([&](const VodServer::HeldMovie& held) {
    if (held.movie->name() == title) n = held.sessions.size();
  });
  return n;
}

}  // namespace ftvod::vod::testing
