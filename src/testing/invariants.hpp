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
//  4. bounded buffers— client occupancy never exceeds capacity.
//
// Checks run every 100 ms of simulated time, and the hand-off window of
// invariant 1 is 8 s; the stall bound and invariant 5 are options. A
// violation records the virtual time and a human-readable description (the
// first 64 are kept, all are counted), and the soak harness prints them
// together with the chaos plan's seed and event trace.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/timer.hpp"
#include "vod/service.hpp"

namespace ftvod::testing {

struct InvariantOptions {
  /// Invariant 3: max time a servable client's display may fail to advance.
  sim::Duration stall_bound = sim::sec(10.0);
  /// Invariant 5 (no under-replicated title): a title with at least one
  /// watching client must be held by at least min(replication_floor,
  /// healthy-server count) healthy servers. 0 disables the check (the
  /// default — deployments without a placement controller pin replicas by
  /// hand and legitimately run titles at one copy).
  std::size_t replication_floor = 0;
  /// How long a title may sit under its floor before it counts as a
  /// violation: the placement controller needs a control period or two
  /// (plus failure detection) to direct a repair.
  sim::Duration under_replicated_grace = sim::sec(6.0);
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
  };

  void record(const std::string& what);
  [[nodiscard]] bool server_healthy(
      const vod::Deployment::ServerNode& sn) const;
  void check_ownership_and_liveness();
  void check_assignment_agreement();
  void check_buffers();
  void check_replication();

  vod::Deployment* dep_;
  InvariantOptions opts_;
  sim::PeriodicTimer timer_;
  std::map<std::uint64_t, ClientTrack> tracks_;  // by client id
  /// During one check: every client with its buffers(), projected once.
  struct ClientRead {
    const vod::Deployment::ClientNode* cn;
    std::optional<vod::ClientBuffers::View> view;
  };
  std::vector<ClientRead> reads_;
  /// Title -> time it first dipped below the replication floor (invariant 5).
  std::map<std::string, sim::Time> under_replicated_since_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
};

}  // namespace ftvod::testing
