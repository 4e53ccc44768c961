// The VoD server (§3, §5). One per host. Movies are added to its catalog on
// the fly; for each movie it joins the movie group and shares its clients'
// positions every sync period. On every movie-group view change the
// surviving servers deterministically re-distribute the clients
// (redistribution.hpp) and the new owner of a client simply joins the
// client's session group and resumes transmission from the last-synced
// offset — the client never learns which server is sending.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "gcs/daemon.hpp"
#include "mpeg/catalog.hpp"
#include "mpeg/quality.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"
#include "vod/emergency.hpp"
#include "vod/params.hpp"
#include "vod/redistribution.hpp"
#include "vod/wire.hpp"

namespace ftvod::vod {

struct ServerStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t sessions_opened = 0;   // fresh client connections
  std::uint64_t takeovers = 0;         // sessions adopted from another server
  std::uint64_t migrations_out = 0;    // sessions handed to another server
  std::uint64_t syncs_sent = 0;
  std::uint64_t rebalances = 0;
  /// Group-delivered control messages this server rejected: unknown type
  /// for the channel, decoder refusal, or a client-id mismatch.
  std::uint64_t malformed_dropped = 0;
};

/// The last re-distribution this server computed for one movie, exposed so
/// an external monitor can assert that all surviving movie-group members
/// reached the same table and the same assignment for the same view (§5.2's
/// determinism claim).
struct RebalanceSnapshot {
  std::uint64_t exchange_tag = 0;
  std::vector<net::NodeId> view_servers;
  /// The owner table the computation ran on.
  Assignment input_owners;
  Assignment assignment;
};

class VodServer {
 public:
  VodServer(sim::Scheduler& sched, net::Network& net, gcs::Daemon& daemon,
            VodParams params);
  ~VodServer() = default;
  VodServer(const VodServer&) = delete;
  VodServer& operator=(const VodServer&) = delete;

  /// Stores a movie locally and joins its movie group ("replication done").
  void add_movie(std::shared_ptr<const mpeg::Movie> movie);
  /// Drops a movie: existing sessions migrate away at the next view change.
  void remove_movie(const std::string& name);

  [[nodiscard]] net::NodeId node() const { return daemon_->self(); }
  [[nodiscard]] std::size_t session_count() const {
    return session_index_.size();
  }
  [[nodiscard]] bool serves(std::uint64_t client_id) const {
    return session_index_.contains(client_id);
  }
  /// Local sessions currently streaming `movie` (monitor / placement use).
  [[nodiscard]] std::size_t session_count(const std::string& movie) const;
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const net::SocketStats& data_socket_stats() const {
    return data_socket_->stats();
  }
  [[nodiscard]] const mpeg::Catalog& catalog() const { return catalog_; }
  [[nodiscard]] bool halted() const { return halted_; }
  /// Monitor accessor: last computed re-distribution for `movie`, or
  /// nullptr when none ran yet (or the movie is unknown here).
  [[nodiscard]] const RebalanceSnapshot* rebalance_snapshot(
      const std::string& movie) const;
  /// Monitor accessor: true while a view change's table exchange is still
  /// in flight for `movie` (the assignment is about to be recomputed).
  [[nodiscard]] bool rebalance_pending(const std::string& movie) const;

  /// Graceful detach (§3: a server "crashes or detaches"): leaves the
  /// server group and every movie group, so the remaining servers observe
  /// an orderly membership change and take the clients over *without*
  /// waiting for failure detection. Sessions are closed after the groups
  /// are left. The server can not be re-attached; start a new one.
  void detach();

  /// Hard stop: ceases all activity without leaving groups (also wired to
  /// host crash; peers discover the failure via the failure detector).
  void halt();

 private:
  /// Per-client serving state. Sessions live in a slab (`session_slab_`):
  /// slots are recycled through a free list so steady-state churn re-uses
  /// the allocation. The send timer is bound to its session, so the
  /// per-frame path does no lookup; the id→slot index serves the control
  /// plane.
  struct Session {
    Session(sim::Scheduler& sched, double decay)
        : eq(decay), send_timer(sched) {}
    wire::ClientRecord rec;
    /// Snapshot of rec as of the last periodic sync: the state the rest of
    /// the movie group is known to have. Table exchanges advertise this,
    /// not the live offset — the paper's conservative approach, which makes
    /// a takeover re-send (duplicate) rather than skip frames.
    wire::ClientRecord synced_rec;
    std::shared_ptr<const mpeg::Movie> movie;
    std::unique_ptr<gcs::GroupMember> member;  // session group
    std::optional<mpeg::QualityFilter> quality;
    EmergencyQuantity eq;
    /// Base quantity of the burst in progress (escalation gate).
    int burst_base = 0;
    sim::OneShotTimer send_timer;
    /// The emergency quantity decays when the send loop passes this time.
    sim::Time next_decay_at = 0;
    bool finished = false;  // reached the end of the movie
  };

  /// One entry of a movie's client table (§5.2). Only ordered messages
  /// change it, in the same way at every member of the movie group, so all
  /// members hold the same table at the same message (DESIGN §5.6).
  struct Client {
    struct Claim {
      wire::ClientRecord rec;  // as last synced
      net::NodeId owner = net::kInvalidNode;
    };
    /// Only claims feed the re-distribution and the load counts. Empty when
    /// the entry survives only for its deferral count (until the next sweep
    /// after that count is cleared).
    std::optional<Claim> claim;
    int absent = 0;     // owner syncs in a row that left it out: forget at 2
    int deferrals = 0;  // asks in a row since the owner last synced it
    /// An ordered message set the claim since the current view's delivery.
    bool asserted = false;
    std::uint64_t reported_in = 0;  // syncs_applied of the last one naming it
  };

  struct MovieState {
    [[nodiscard]] bool in_view(net::NodeId node) const {
      return std::binary_search(view_servers.begin(), view_servers.end(),
                                node);
    }
    /// Records an ordered message's claim of `rec` for `owner`.
    Client& assert_claim(const wire::ClientRecord& rec, net::NodeId owner) {
      Client& c = clients[rec.client_id];
      c.claim = Client::Claim{rec, owner};
      c.absent = 0;
      c.asserted = true;
      return c;
    }

    std::shared_ptr<const mpeg::Movie> movie;
    std::unique_ptr<gcs::GroupMember> member;  // movie group
    /// Every client watching this movie (self + remote), by id.
    std::map<std::uint64_t, Client> clients;
    /// Periodic syncs applied so far (stamps `reported_in`).
    std::uint64_t syncs_applied = 0;
    /// Redistribution round state for the current group view. A round is
    /// identified by the exchange tag (derived from the group view); every
    /// member rebalances when it has delivered the tagged table of every
    /// view member, its own included — the same point of the total order at
    /// all members. A round that never completes is superseded by the next
    /// view change. A round is open while `pending_tables` is non-empty:
    /// a movie-group view a server receives contains the server itself, so
    /// each view opens a round, which closes exactly when the last table
    /// arrives and rebalance_now() runs. (The one exception is an install
    /// that reaches a handle whose join the view change overtook: if no
    /// other server holds the movie, that view is empty and opens no round,
    /// and the join's own view follows.)
    std::vector<net::NodeId> view_servers;
    std::uint64_t exchange_tag = 0;
    std::set<net::NodeId> pending_tables;
    RebalanceSnapshot last_rebalance;
    /// Open requests delivered during a round, decided when it completes:
    /// until then the members' tables may differ.
    std::vector<wire::OpenRequest> held_opens;
    /// Client ids of the local sessions streaming this movie, in open order.
    /// Periodic syncs and table exchanges walk this list, so their cost is
    /// O(sessions of this movie), not O(movies × all sessions).
    std::vector<std::uint64_t> local_sessions;
  };

  // control-plane handlers
  void on_server_group_message(const gcs::GcsEndpoint& from,
                               std::span<const std::byte> data);
  void on_movie_group_message(const std::string& movie,
                              const gcs::GcsEndpoint& from,
                              std::span<const std::byte> data);
  void on_movie_group_view(const std::string& movie, const gcs::GroupView& v);
  void on_session_message(std::uint64_t client_id,
                          const gcs::GcsEndpoint& from,
                          std::span<const std::byte> data);
  void on_session_view(std::uint64_t client_id, const gcs::GroupView& v);

  void handle_open_request(const wire::OpenRequest& req);
  void decide_open(MovieState& ms, const wire::OpenRequest& req);
  void apply_state_sync(net::NodeId from, const wire::StateSync& sync);
  void apply_table(MovieState& ms, net::NodeId from,
                   const wire::StateSync& table);
  void rebalance_now(MovieState& ms);

  // session lifecycle
  void open_session(const wire::ClientRecord& rec,
                    std::shared_ptr<const mpeg::Movie> movie,
                    bool is_takeover);
  void close_session(std::uint64_t client_id);
  void send_tick(Session& s);
  void arm_send_timer(Session& s);
  void send_sync();

  [[nodiscard]] double effective_rate(const Session& s) const;
  [[nodiscard]] Session* find_session(std::uint64_t client_id);
  [[nodiscard]] const Session* find_session(std::uint64_t client_id) const;

  sim::Scheduler* sched_;
  net::Network* net_;
  gcs::Daemon* daemon_;
  VodParams params_;
  bool halted_ = false;

  mpeg::Catalog catalog_;
  std::unique_ptr<net::Socket> data_socket_;
  /// Reused per-frame encode buffer for send_tick; the socket copies the
  /// span into the network's pooled storage, so this stays warm forever.
  util::Writer frame_writer_;
  std::unique_ptr<gcs::GroupMember> server_group_;
  std::map<std::string, std::unique_ptr<MovieState>> movies_;
  /// Session slab: slots are stable (Session is non-movable — it owns a
  /// OneShotTimer), recycled through `session_free_`, and addressed by the
  /// dense id→slot index. A freed slot keeps its allocation, so open/close
  /// churn stops allocating once the slab reaches its high-water mark.
  std::vector<std::unique_ptr<Session>> session_slab_;
  std::vector<std::uint32_t> session_free_;
  std::unordered_map<std::uint64_t, std::uint32_t> session_index_;

  sim::PeriodicTimer sync_timer_;
  ServerStats stats_;
};

}  // namespace ftvod::vod
