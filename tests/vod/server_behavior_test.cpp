// Server behaviour through the full stack: open-request arbitration, state
// sync semantics, table-exchange determinism, catalog changes, and the
// client table's repair rules.
#include <gtest/gtest.h>

#include "../integration/vod_testbed.hpp"

namespace ftvod::vod {
namespace {

using testing::VodTestBed;

TEST(ServerBehavior, ExactlyOneServerOpensASession) {
  VodTestBed bed(3, 1);
  bed.watch_all();
  bed.run_for(8.0);
  int serving = 0;
  for (int s = 0; s < 3; ++s) {
    if (bed.server(s).serves(bed.client().client_id())) ++serving;
  }
  EXPECT_EQ(serving, 1);
  // Exactly one fresh session was opened across the whole group.
  std::uint64_t opened = 0;
  for (int s = 0; s < 3; ++s) opened += bed.server(s).stats().sessions_opened;
  EXPECT_EQ(opened, 1u);
}

TEST(ServerBehavior, DuplicateOpenRequestIsIdempotent) {
  // The client retries OpenRequest until a reply arrives; make the reply
  // slow by using a lossy link so retries genuinely overlap.
  net::LinkQuality q = net::lan_quality();
  q.loss = 0.35;
  VodTestBed bed(1, 1, q, 3);
  bed.watch_all();
  bed.run_for(15.0);
  ASSERT_TRUE(bed.client().connected());
  EXPECT_EQ(bed.server(0).session_count(), 1u);
  EXPECT_EQ(bed.server(0).stats().sessions_opened, 1u);
}

TEST(ServerBehavior, SecondWatchOfSameMovieGetsOwnSession) {
  VodTestBed bed(1, 2);
  bed.watch_all();
  bed.run_for(8.0);
  EXPECT_EQ(bed.server(0).session_count(), 2u);
  EXPECT_NE(bed.client(0).client_id(), bed.client(1).client_id());
}

TEST(ServerBehavior, StateSyncCarriesOffsets) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(12.0);
  const int serving = bed.serving_server();
  const int other = 1 - serving;
  // The idle server must know the client's position from the syncs: crash
  // the serving one and check the takeover offset is recent.
  const std::int64_t displayed = bed.client().buffers()->last_displayed();
  bed.crash_server(serving);
  bed.run_for(3.0);
  ASSERT_TRUE(bed.server(other).serves(bed.client().client_id()));
  // Resumed within ~2 s of the display position (sync staleness bound).
  EXPECT_GT(bed.client().counters().received, 0u);
  EXPECT_GT(displayed, 200);
}

TEST(ServerBehavior, RemoveMovieMigratesClients) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(10.0);
  const int serving = bed.serving_server();
  const int other = 1 - serving;
  bed.server(serving).remove_movie(bed.movie()->name());
  bed.run_for(5.0);
  // The other replica picks the client up (the removal leaves the movie
  // group, which the survivors see as a membership change).
  EXPECT_TRUE(bed.server(other).serves(bed.client().client_id()));
  EXPECT_TRUE(bed.client().playing());
}

TEST(ServerBehavior, HaltedServerStopsTransmitting) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(8.0);
  bed.server(0).halt();
  const auto sent = bed.server(0).stats().frames_sent;
  bed.run_for(5.0);
  EXPECT_EQ(bed.server(0).stats().frames_sent, sent);
  EXPECT_TRUE(bed.server(0).halted());
}

TEST(ServerBehavior, ReusedSessionSlotServesOnlyTheNewClient) {
  // A session's send timer is bound to its slab slot. Close one session and
  // open another on the only server: the new session takes the freed slot,
  // and the closed client must hear nothing more while the new one gets a
  // single stream at the display rate.
  VodTestBed bed(1, 2);
  bed.client(0).watch(bed.movie()->name());
  bed.run_for(6.0);
  ASSERT_TRUE(bed.client(0).playing());
  bed.client(0).stop();
  bed.run_for(1.0);  // the Stop reaches the server; stragglers land
  ASSERT_EQ(bed.server(0).session_count(), 0u);
  const auto closed_received =
      bed.client(0).data_socket_stats().datagrams_received;

  bed.client(1).watch(bed.movie()->name());
  bed.run_for(20.0);  // past the start-up fill
  ASSERT_TRUE(bed.client(1).playing());
  ASSERT_EQ(bed.server(0).session_count(), 1u);
  const auto sent = bed.server(0).stats().frames_sent;
  const auto received = bed.client(1).data_socket_stats().datagrams_received;
  const auto discards = bed.client(1).counters().overflow_discards;
  constexpr double kWindowS = 10.0;
  bed.run_for(kWindowS);
  const auto sent_in_window = bed.server(0).stats().frames_sent - sent;
  EXPECT_EQ(bed.client(1).data_socket_stats().datagrams_received - received,
            sent_in_window);
  const double fps = static_cast<double>(sent_in_window) / kWindowS;
  EXPECT_GT(fps, 27.0);  // one stream, at the 30 fps display rate
  EXPECT_LT(fps, 33.0);
  EXPECT_EQ(bed.client(1).counters().overflow_discards, discards);
  EXPECT_EQ(bed.client(0).data_socket_stats().datagrams_received,
            closed_received);
  EXPECT_EQ(bed.server(0).stats().sessions_opened, 2u);
}

TEST(ServerBehavior, CatalogReflectsAddAndRemove) {
  VodTestBed bed(1, 1);
  EXPECT_TRUE(bed.server(0).catalog().contains("feature"));
  bed.server(0).add_movie(mpeg::Movie::synthetic("extra", 30.0));
  EXPECT_EQ(bed.server(0).catalog().size(), 2u);
  bed.server(0).remove_movie("extra");
  EXPECT_FALSE(bed.server(0).catalog().contains("extra"));
}

class ExactlyOneOwner : public ::testing::TestWithParam<unsigned> {};

// Invariant: after any crash/recovery sequence settles, each client is
// served by exactly one live server (the paper: "each client is served by
// exactly one server").
TEST_P(ExactlyOneOwner, AfterCrashAndRecovery) {
  VodTestBed bed(3, 2, net::lan_quality(), GetParam() * 977 + 5);
  bed.watch_all();
  bed.run_for(12.0 + (GetParam() % 4) * 0.37);
  const int victim = bed.serving_server(0);
  ASSERT_GE(victim, 0);
  bed.crash_server(victim);
  bed.run_for(8.0);
  for (int c = 0; c < 2; ++c) {
    int owners = 0;
    for (int s = 0; s < 3; ++s) {
      if (s == victim) continue;
      if (bed.server(s).serves(bed.client(c).client_id())) ++owners;
    }
    EXPECT_EQ(owners, 1) << "client " << c << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactlyOneOwner, ::testing::Range(0u, 10u));

TEST(ServerBehavior, PausedStateSurvivesTakeover) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(10.0);
  bed.client().pause();
  bed.run_for(2.0);  // let a sync carry the paused flag
  bed.crash_server(bed.serving_server());
  bed.run_for(4.0);
  // The takeover server must not stream into a paused session.
  const auto received = bed.client().counters().received;
  bed.run_for(5.0);
  EXPECT_LE(bed.client().counters().received - received, 2u);
}

TEST(ServerBehavior, SyncAbsenceToleranceKeepsFreshClients) {
  // A client connecting right around a sync boundary must never be erased
  // from the other servers' tables by the pre-connection (empty) sync.
  for (std::uint64_t seed : {1ull, 9ull, 23ull, 47ull}) {
    VodTestBed bed(2, 1, net::lan_quality(), seed);
    bed.watch_all();
    bed.run_for(15.0);
    ASSERT_TRUE(bed.client().connected()) << "seed " << seed;
    EXPECT_EQ(bed.serving_server() >= 0, true) << "seed " << seed;
    EXPECT_GT(bed.client().counters().displayed, 300u) << "seed " << seed;
  }
}

// ---------------------------------------------------------- repair rules
//
// Each server's client table carries three repair rules for tables that
// diverged (server.hpp, VodServer::Client). The tests below put exactly the
// claims a rule reacts to into one real server's table through a scripted
// movie-group member.

constexpr const char* kRepairMovie = "feature";

/// A periodic sync (`exchange_tag` 0) or table answer in which the sender
/// claims exactly `clients`.
util::Bytes claim_sync(std::uint64_t exchange_tag,
                       const std::vector<std::uint64_t>& clients) {
  wire::StateSync s;
  s.movie = kRepairMovie;
  s.exchange_tag = exchange_tag;
  for (std::uint64_t id : clients) {
    wire::ClientRecord rec;
    rec.client_id = id;
    rec.rate_fps = 30.0;
    s.clients.push_back(rec);
  }
  return wire::encode(s);
}

/// A movie-group member that is not a server: it joins the movie group on
/// its own daemon and multicasts only the periodic syncs a test scripts. It
/// answers every table exchange with its current claims, so each of the real
/// server's re-distributions is authoritative.
class ScriptedPeer {
 public:
  ScriptedPeer(gcs::Daemon& daemon, std::vector<std::uint64_t> claims)
      : claims_(std::move(claims)) {
    member_ = daemon.join(
        movie_group_name(kRepairMovie),
        gcs::GroupCallbacks{
            [this](const gcs::GcsEndpoint& from,
                   std::span<const std::byte> d) {
              if (!member_ || from == member_->endpoint()) return;
              const auto sync = wire::decode_state_sync(d);
              if (sync && sync->exchange_tag != 0 &&
                  sync->exchange_tag != answered_) {
                answered_ = sync->exchange_tag;
                member_->send(claim_sync(answered_, claims_));
              }
            },
            nullptr});
  }

  /// Claims exactly `clients` from now on and multicasts a periodic sync.
  void sync(std::vector<std::uint64_t> clients) {
    claims_ = std::move(clients);
    member_->send(claim_sync(0, claims_));
  }

 private:
  std::unique_ptr<gcs::GroupMember> member_;
  std::vector<std::uint64_t> claims_;
  std::uint64_t answered_ = 0;
};

/// One server, one scripted peer, two clients, and an outsider: a daemon
/// below every other node that never joins the movie group. The peer's node
/// id is below the server's when `peer_below_server` (it then wins every
/// lowest-id rule), above it otherwise.
class RepairBed {
 public:
  explicit RepairBed(bool peer_below_server, VodParams params = {})
      : dep_(42, net::lan_quality(), params) {
    const net::NodeId outsider_host = dep_.add_host("outsider");
    net::NodeId peer_host = net::kInvalidNode;
    if (peer_below_server) peer_host = dep_.add_host("peer");
    const net::NodeId server_host = dep_.add_host("server");
    if (!peer_below_server) peer_host = dep_.add_host("peer");
    const net::NodeId c0 = dep_.add_host("client0");
    const net::NodeId c1 = dep_.add_host("client1");
    server_ = dep_.start_server(server_host).server.get();
    server_->add_movie(mpeg::Movie::synthetic(kRepairMovie, 120.0));
    peer_daemon_ = dep_.start_gateway(peer_host).daemon.get();
    outsider_daemon_ = dep_.start_gateway(outsider_host).daemon.get();
    clients_[0] = dep_.start_client(c0).client.get();
    clients_[1] = dep_.start_client(c1).client.get();
    run_for(2.0);
  }

  /// Joins the scripted peer, claiming `claims`, to the movie group and lets
  /// the resulting table exchange finish.
  ScriptedPeer& join_peer(std::vector<std::uint64_t> claims = {}) {
    peer_ = std::make_unique<ScriptedPeer>(*peer_daemon_, std::move(claims));
    run_for(1.0);
    return *peer_;
  }
  /// A second, silent member on the peer's daemon: joining or dropping it
  /// changes the movie-group view (and so runs a re-distribution) without
  /// changing the set of server nodes.
  void toggle_extra_member() {
    if (extra_) {
      extra_.reset();
    } else {
      extra_ = peer_daemon_->join(movie_group_name(kRepairMovie), {});
    }
    run_for(1.0);
  }

  /// A periodic sync from the outsider, sent into the movie group.
  void outsider_sync(const std::vector<std::uint64_t>& clients) {
    outsider_daemon_->send_to_group(movie_group_name(kRepairMovie),
                                    claim_sync(0, clients));
  }

  VodServer& server() { return *server_; }
  VodClient& client(int i) { return *clients_[i]; }
  std::uint64_t id(int i) { return clients_[i]->client_id(); }
  /// Whether the server's last re-distribution ran on a claim for `client`.
  bool last_rebalance_knew(std::uint64_t client) {
    const RebalanceSnapshot* snap = server_->rebalance_snapshot(kRepairMovie);
    return snap != nullptr && snap->input_owners.contains(client);
  }
  void run_for(double seconds) { dep_.run_for(sim::sec(seconds)); }

 private:
  Deployment dep_;
  VodServer* server_ = nullptr;
  gcs::Daemon* peer_daemon_ = nullptr;
  gcs::Daemon* outsider_daemon_ = nullptr;
  VodClient* clients_[2] = {};
  std::unique_ptr<ScriptedPeer> peer_;
  std::unique_ptr<gcs::GroupMember> extra_;
};

constexpr std::uint64_t kPhantom = 0xF00D;  // a client no host runs

TEST(ServerRepair, YieldsToALowerIdClaimantOnTheThirdConflictingSync) {
  RepairBed bed(/*peer_below_server=*/true);
  bed.client(0).watch(kRepairMovie);
  bed.run_for(2.0);
  ASSERT_TRUE(bed.server().serves(bed.id(0)));
  // The peer's table answer claims a client of its own, so the balanced
  // re-distribution leaves client 0 where it is.
  ScriptedPeer& peer = bed.join_peer({kPhantom});
  ASSERT_TRUE(bed.server().serves(bed.id(0)));
  ASSERT_EQ(bed.server().stats().migrations_out, 0u);

  // Now the lower-id peer claims the client the server is streaming to.
  for (int sync = 1; sync <= 2; ++sync) {
    peer.sync({kPhantom, bed.id(0)});
    bed.run_for(0.3);
    EXPECT_TRUE(bed.server().serves(bed.id(0))) << "after sync " << sync;
  }
  peer.sync({kPhantom, bed.id(0)});
  bed.run_for(0.3);
  EXPECT_FALSE(bed.server().serves(bed.id(0)));
  EXPECT_EQ(bed.server().stats().migrations_out, 1u);
}

TEST(ServerRepair, SecondAskIsServedByTheLowestIdMember) {
  RepairBed bed(/*peer_below_server=*/false);
  ScriptedPeer& peer = bed.join_peer();
  // The table says the live peer serves client 0, but the peer never will.
  peer.sync({bed.id(0)});
  bed.run_for(0.3);
  bed.client(0).watch(kRepairMovie);
  bed.run_for(0.5);
  EXPECT_FALSE(bed.server().serves(bed.id(0)));  // first ask: deferred
  // The retry (1 s after the first ask, plus jitter) is the second ask.
  bed.run_for(1.5);
  EXPECT_TRUE(bed.server().serves(bed.id(0)));
  EXPECT_EQ(bed.server().stats().sessions_opened, 1u);
  EXPECT_TRUE(bed.client(0).connected());
}

TEST(ServerRepair, ForgetsAClaimAfterTwoAbsentSyncs) {
  VodParams params;
  // kStable keeps the peer's phantom with the peer at each re-distribution
  // (kSpread would hand it to the idle server).
  params.rebalance_policy = RebalancePolicy::kStable;
  RepairBed bed(/*peer_below_server=*/false, params);
  ScriptedPeer& peer = bed.join_peer();
  peer.sync({kPhantom});
  bed.run_for(0.3);
  peer.sync({});  // first absence: a sync may predate a hand-off
  bed.run_for(0.3);
  bed.toggle_extra_member();
  EXPECT_TRUE(bed.last_rebalance_knew(kPhantom));
  peer.sync({});  // second absence: the claim is gone
  bed.run_for(0.3);
  bed.toggle_extra_member();
  EXPECT_FALSE(bed.last_rebalance_knew(kPhantom));
  EXPECT_FALSE(bed.server().serves(kPhantom));
}

TEST(ServerRepair, ClaimsByANodeOutsideTheViewAreNoLoad) {
  RepairBed bed(/*peer_below_server=*/false);
  bed.join_peer();
  // The outsider, below the server, claims two clients. A new client's
  // choice counts only the view's members: both are idle, so the tie goes
  // to the lowest id, the server.
  bed.outsider_sync({kPhantom, kPhantom + 1});
  bed.run_for(0.3);
  bed.client(0).watch(kRepairMovie);
  bed.run_for(1.0);
  EXPECT_TRUE(bed.server().serves(bed.id(0)));
  EXPECT_EQ(bed.server().stats().sessions_opened, 1u);
}

TEST(ServerRepair, DeferralCountSurvivesAForgottenClaim) {
  RepairBed bed(/*peer_below_server=*/false);
  ScriptedPeer& peer = bed.join_peer();
  // Client 1 loads the server, so a fresh choice for client 0 would now go
  // to the (idle) peer.
  bed.client(1).watch(kRepairMovie);
  bed.run_for(1.0);
  ASSERT_TRUE(bed.server().serves(bed.id(1)));
  peer.sync({bed.id(0)});
  bed.run_for(0.3);
  bed.client(0).watch(kRepairMovie);
  bed.run_for(0.2);
  ASSERT_FALSE(bed.server().serves(bed.id(0)));  // first ask: deferred
  // Before the retry, the peer stops claiming client 0 and the absence
  // sweep forgets its claim. The deferral must outlive it: the retry is the
  // second ask and is rescued by the lowest id, the server.
  peer.sync({});
  bed.run_for(0.2);
  peer.sync({});
  bed.run_for(0.2);
  bed.run_for(1.5);
  EXPECT_TRUE(bed.server().serves(bed.id(0)));
}

}  // namespace
}  // namespace ftvod::vod
