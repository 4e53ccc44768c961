// Demand-driven replica placement for a city-scale catalog. The paper fixes
// one replica set per movie at configuration time; at hundreds of titles
// under a shifting Zipf demand curve that choice dominates both
// availability (k-tolerance) and load, so a controller moves replicas as
// demand moves (cf. the Markov-chain replication strategy of
// arXiv:0912.1011 — add replicas where requests concentrate, retire them as
// interest fades, never below the fault-tolerance floor).
//
// The logic is split in two layers:
//
//  * PlacementModel — a pure, deterministic state machine: demand counts and
//    the live-server set in, add/drop operations out. Hysteresis (grow at
//    demand > viewers_per_replica per replica, shrink only below a margin of
//    the post-shrink capacity) plus a per-title cooldown make it provably
//    oscillation-free under constant demand, which the property test checks
//    over randomized trajectories.
//  * PlacementController — binds the model to a Deployment: measures demand
//    from the clients, applies ops through VodServer::add_movie /
//    remove_movie (the movie-group membership change *is* the replica
//    add/drop — §5's redistribution machinery does the client moves), and
//    reconciles desired-vs-actual holdings every period, which is also what
//    re-registers a restarted server's catalog when it rejoins empty.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/timer.hpp"
#include "vod/service.hpp"

namespace ftvod::vod {

struct PlacementConfig {
  /// k-tolerance floor: a title with at least one active viewer keeps at
  /// least this many live replicas (capped by the live-server count).
  std::size_t replication_floor = 2;
  /// Replicas kept for a title nobody watches (the archival copy).
  std::size_t idle_replicas = 1;
  /// Capacity model: one replica comfortably serves this many viewers.
  std::size_t viewers_per_replica = 50;
  /// Shrink hysteresis: drop a replica only when the remaining ones would
  /// still sit below this fraction of their capacity. Together with the
  /// grow rule this leaves a dead band, so constant demand never oscillates.
  double shrink_margin = 0.7;
  /// Periods a title rests after any op before the next op on it.
  int cooldown_periods = 2;
  sim::Duration control_period = sim::sec(1.0);
};

struct PlacementOp {
  enum class Kind : std::uint8_t { kAdd, kDrop };
  Kind kind = Kind::kAdd;
  std::string title;
  net::NodeId node = net::kInvalidNode;
};

class PlacementModel {
 public:
  explicit PlacementModel(PlacementConfig cfg) : cfg_(cfg) {}

  /// Registers a title with an empty replica set; the first step() places it.
  void add_title(const std::string& title);

  /// One control period: returns the ops that move every title toward its
  /// demand target, applying them to the model's own desired state.
  /// Deterministic in (current state, viewers, live_servers).
  std::vector<PlacementOp> step(
      const std::map<std::string, std::size_t>& viewers,
      const std::vector<net::NodeId>& live_servers);

  /// Desired replica nodes of a title (sorted; may include dead nodes —
  /// they stop counting toward availability until they come back).
  [[nodiscard]] const std::vector<net::NodeId>& replicas(
      const std::string& title) const;
  /// Desired replicas held per node (load-balance metric).
  [[nodiscard]] std::size_t load(net::NodeId node) const;
  [[nodiscard]] const PlacementConfig& config() const { return cfg_; }

  /// The target replica count the next step() steers toward (for tests).
  [[nodiscard]] std::size_t target_replicas(std::size_t viewer_count,
                                            std::size_t live_servers) const;

 private:
  struct TitleState {
    std::vector<net::NodeId> replicas;  // sorted
    int cooldown = 0;
  };

  PlacementConfig cfg_;
  std::map<std::string, TitleState> titles_;
  std::map<net::NodeId, std::size_t> load_;
};

struct PlacementStats {
  std::uint64_t ticks = 0;
  std::uint64_t adds = 0;
  std::uint64_t drops = 0;
  /// Titles re-pushed to a live server that should hold them but did not —
  /// the restart-recovery path (a rebooted server rejoins with an empty
  /// catalog; reconciliation restores it).
  std::uint64_t reregistrations = 0;
};

class PlacementController {
 public:
  PlacementController(Deployment& dep, PlacementConfig cfg);

  /// Registers a title under management. Placement happens on the next
  /// tick (or tick_now()).
  void manage(std::shared_ptr<const mpeg::Movie> movie);

  /// Starts the periodic control loop on the deployment's scheduler.
  void start();
  /// Runs one control period immediately.
  void tick_now();

  /// Immediate reconciliation for one node (e.g. right after a restart —
  /// wire this as the ChaosInjector's restart delegate). The periodic tick
  /// would repair it anyway; this just closes the gap faster.
  void handle_restart(net::NodeId node);

  /// Replaces the demand source (default: count watching deployment
  /// clients per title). The workload driver supplies exact per-title
  /// session counts this way at 10k-client scale.
  void set_demand_source(
      std::function<void(std::map<std::string, std::size_t>&)> fn) {
    demand_source_ = std::move(fn);
  }

  [[nodiscard]] const PlacementModel& model() const { return model_; }
  [[nodiscard]] const PlacementStats& stats() const { return stats_; }

 private:
  void collect_demand(std::map<std::string, std::size_t>& out) const;
  [[nodiscard]] std::vector<net::NodeId> live_servers() const;
  /// Pushes every desired title missing from a live server's catalog back
  /// to it. Returns the number of re-registrations performed.
  std::size_t reconcile(const std::vector<net::NodeId>& live);

  Deployment* dep_;
  PlacementModel model_;
  std::map<std::string, std::shared_ptr<const mpeg::Movie>> managed_;
  std::function<void(std::map<std::string, std::size_t>&)> demand_source_;
  sim::PeriodicTimer timer_;
  PlacementStats stats_;
};

}  // namespace ftvod::vod
