// System-wide invariant monitoring for chaos runs. The monitor rides the
// deployment's scheduler on a fine periodic tick and checks, across every
// host of the simulation:
//
//  1. single-owner   — no client is served by more than one *healthy*
//                      server for longer than a bounded hand-off window
//                      (the paper expects duplicate transmission during a
//                      takeover, never steady-state dual ownership);
//  2. agreement      — movie-group members that completed the same table
//                      exchange held identical client tables and computed
//                      identical re-distribution assignments (§5.2's
//                      determinism claim);
//  3. liveness       — a playing client whose movie is held by at least
//                      one healthy, reachable server never stalls longer
//                      than the takeover bound;
//  4. bounded buffers— client occupancy never exceeds capacity;
//  5. replication    — a watched title stays held by enough healthy servers
//                      (the placement controller's floor, an option).
//
// Checks run every 100 ms of simulated time. Each is one pass over the
// servers, which indexes whom the healthy ones stream and what they hold,
// then one pass over the clients, each a lookup in that index. Invariant
// 1's hand-off window is 8 s and invariant 5's grace is 6 s. A violation
// records the virtual time and a human-readable description (the first 64
// are kept, all are counted), and the soak harness prints them together
// with the chaos plan's seed and event trace.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/timer.hpp"
#include "vod/service.hpp"

namespace ftvod::testing {

struct InvariantOptions {
  /// Invariant 3: max time a servable client's display may fail to advance.
  sim::Duration stall_bound = sim::sec(10.0);
  /// Invariant 5: a title with at least one watching client must be held
  /// by at least min(replication_floor, healthy-server count) healthy
  /// servers. 0 disables the check (the default — deployments without a
  /// placement controller pin replicas by hand and legitimately run titles
  /// at one copy).
  std::size_t replication_floor = 0;
};

struct Violation {
  sim::Time at = 0;
  std::string what;
};

class InvariantMonitor {
 public:
  explicit InvariantMonitor(vod::Deployment& dep, InvariantOptions opts = {});

  /// Begins periodic checking on the deployment's scheduler.
  void start();
  /// Runs one check immediately (also called by the periodic tick).
  void check_now();

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }

  /// All recorded violations, one per line (empty string when ok()).
  [[nodiscard]] std::string report() const;

 private:
  struct ClientTrack {
    std::uint64_t last_displayed = 0;
    sim::Time stall_since = 0;
    sim::Time multi_since = -1;  // -1: not currently multi-served
    /// This check: how many healthy servers stream the client, and the
    /// first of them in server order (the others are in extra_owners_).
    std::uint32_t owners = 0;
    net::NodeId first_owner = net::kInvalidNode;
  };
  /// One title. All but `under_since` describe this check only.
  struct TitleIndex {
    struct Round {
      net::NodeId node;
      const vod::RebalanceSnapshot* snap;
    };
    /// Healthy servers holding the title, in server order.
    std::vector<net::NodeId> holders;
    /// Their last re-distributions of it, in server order.
    std::vector<Round> rounds;
    std::size_t watchers = 0;  // live clients watching it, not at the end
    /// Invariant 5: when it dipped below the floor; -1 while it is not.
    sim::Time under_since = -1;
  };

  void record(const std::string& what);
  [[nodiscard]] bool server_healthy(
      const vod::Deployment::ServerNode& sn) const;
  /// The server pass: fills the owners and the title index, and returns
  /// the number of healthy servers.
  std::size_t index_servers();
  void check_client(const vod::Deployment::ClientNode& cn,
                    const std::optional<vod::ClientBuffers::View>& view);
  void check_agreement();
  void check_buffers();
  void check_replication(std::size_t healthy_servers);

  vod::Deployment* dep_;
  InvariantOptions opts_;
  sim::PeriodicTimer timer_;
  std::unordered_map<std::uint64_t, ClientTrack> tracks_;  // by client id
  /// This check: (client, owner) for each owner after a client's first, in
  /// server order. Few clients have a second owner, so this stays short.
  std::vector<std::pair<std::uint64_t, net::NodeId>> extra_owners_;
  std::map<std::string, TitleIndex> titles_;
  /// During one check: each client's buffers(), projected once, in
  /// dep.clients() order.
  std::vector<std::optional<vod::ClientBuffers::View>> views_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
};

}  // namespace ftvod::testing
