// Server behaviour through the full stack: open-request arbitration, state
// sync semantics, table-exchange determinism, catalog changes, and the
// client table's repair rules.
#include <gtest/gtest.h>

#include <algorithm>

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

TEST(ServerBehavior, MovieAddedOnTheCoordinatorCompletesARoundEverywhere) {
  // The coordinator's server joins the movie group last, so its join is the
  // view change. Its first view must reach it (the daemon delivers nothing
  // before join() returns) and it must send its table like every other
  // member: then every member completes the same round.
  Deployment dep(7, net::lan_quality());
  std::vector<net::NodeId> hosts;  // all first: every daemon knows its peers
  for (int i = 0; i < 3; ++i) hosts.push_back(dep.add_host(std::to_string(i)));
  for (net::NodeId h : hosts) dep.start_server(h);
  dep.run_for(sim::sec(2.0));  // one daemon view, one coordinator
  const net::NodeId coord = dep.servers()[0]->daemon->view().id.coord;
  const auto movie = mpeg::Movie::synthetic("late", 60.0);
  for (auto& sn : dep.servers()) {
    if (sn->node != coord) sn->server->add_movie(movie);
  }
  dep.run_for(sim::sec(1.0));
  dep.find_server(coord)->server->add_movie(movie);
  dep.run_for(sim::sec(1.0));

  std::uint64_t tag = 0;
  for (auto& sn : dep.servers()) {
    const RebalanceSnapshot* snap = sn->server->rebalance_snapshot("late");
    ASSERT_NE(snap, nullptr) << "n" << sn->node;
    EXPECT_FALSE(sn->server->rebalance_pending("late")) << "n" << sn->node;
    EXPECT_EQ(snap->view_servers.size(), 3u) << "n" << sn->node;
    if (tag == 0) tag = snap->exchange_tag;
    EXPECT_EQ(snap->exchange_tag, tag) << "n" << sn->node;
  }
}

class OpenDuringARound : public ::testing::TestWithParam<unsigned> {};

TEST_P(OpenDuringARound, IsDecidedFromTheCompletedTable) {
  // A third server adds the movie as a client asks to watch it. The
  // newcomer's table is empty until the round its join starts completes, so
  // a request delivered during the round waits for it: every member then
  // decides from the same table, and exactly one server opens the session.
  Deployment dep(GetParam() * 131 + 3, net::lan_quality());
  std::vector<net::NodeId> hosts;  // all first: every daemon knows its peers
  for (int i = 0; i < 7; ++i) hosts.push_back(dep.add_host(std::to_string(i)));
  for (int i = 0; i < 3; ++i) dep.start_server(hosts[i]);
  for (int i = 3; i < 7; ++i) dep.start_client(hosts[i]);
  const auto movie = mpeg::Movie::synthetic("feature", 300.0);
  dep.servers()[0]->server->add_movie(movie);
  dep.servers()[1]->server->add_movie(movie);
  dep.run_for(sim::sec(2.0));
  for (int c = 0; c < 3; ++c) dep.clients()[c]->client->watch("feature");
  dep.run_for(sim::sec(3.0));
  dep.servers()[2]->server->add_movie(movie);
  dep.clients()[3]->client->watch("feature");
  dep.run_for(sim::sec(3.0));

  const RebalanceSnapshot* first =
      dep.servers()[0]->server->rebalance_snapshot("feature");
  ASSERT_NE(first, nullptr);
  std::uint64_t opened = 0;
  int serving = 0;
  for (auto& sn : dep.servers()) {
    const RebalanceSnapshot* snap = sn->server->rebalance_snapshot("feature");
    ASSERT_NE(snap, nullptr) << "n" << sn->node;
    EXPECT_EQ(snap->exchange_tag, first->exchange_tag) << "n" << sn->node;
    EXPECT_EQ(snap->input_owners, first->input_owners) << "n" << sn->node;
    opened += sn->server->stats().sessions_opened;
    if (sn->server->serves(dep.clients()[3]->client->client_id())) ++serving;
  }
  EXPECT_EQ(opened, 4u);
  EXPECT_EQ(serving, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpenDuringARound, ::testing::Range(0u, 8u));

class OpenBeforeTheJoin : public ::testing::TestWithParam<unsigned> {};

TEST_P(OpenBeforeTheJoin, IsLeftToTheMembers) {
  // A server adds the movie just after a client asked for it, so the
  // request is ordered before the server's join but delivered after
  // add_movie. Not yet in the view, the server must leave the decision to
  // the members: a claim it recorded from an empty view names no server,
  // and would reach every member as an orphan at its first round. kStable
  // moves no client here (two members with one client each when the
  // newcomer joins).
  VodParams params;
  params.rebalance_policy = RebalancePolicy::kStable;
  Deployment dep(GetParam() * 17 + 5, net::lan_quality(), params);
  std::vector<net::NodeId> hosts;  // all first: every daemon knows its peers
  for (int i = 0; i < 5; ++i) hosts.push_back(dep.add_host(std::to_string(i)));
  for (int i = 0; i < 3; ++i) dep.start_server(hosts[i]);
  for (int i = 3; i < 5; ++i) dep.start_client(hosts[i]);
  dep.run_for(sim::sec(2.0));
  // The newcomer is a server other than the coordinator, so that its join
  // travels to the coordinator like the client's request.
  const net::NodeId coord = dep.servers()[0]->daemon->view().id.coord;
  const int newcomer = dep.servers()[2]->node != coord ? 2 : 1;
  const auto movie = mpeg::Movie::synthetic("feature", 300.0);
  for (int s = 0; s < 3; ++s) {
    if (s != newcomer) dep.servers()[s]->server->add_movie(movie);
  }
  dep.run_for(sim::sec(1.0));
  dep.clients()[0]->client->watch("feature");
  dep.run_for(sim::sec(3.0));
  dep.clients()[1]->client->watch("feature");
  dep.run_for(sim::usec(200));
  dep.servers()[newcomer]->server->add_movie(movie);
  dep.run_for(sim::sec(3.0));

  std::uint64_t opened = 0, moved = 0;
  for (auto& sn : dep.servers()) {
    opened += sn->server->stats().sessions_opened;
    moved += sn->server->stats().takeovers + sn->server->stats().migrations_out;
    const RebalanceSnapshot* snap = sn->server->rebalance_snapshot("feature");
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->view_servers.size(), 3u);
    for (const auto& [client, owner] : snap->input_owners) {
      EXPECT_TRUE(std::binary_search(snap->view_servers.begin(),
                                     snap->view_servers.end(), owner))
          << "n" << sn->node << ": client " << client << " claimed by n"
          << owner;
    }
  }
  EXPECT_EQ(opened, 2u);
  EXPECT_EQ(moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpenBeforeTheJoin, ::testing::Range(0u, 8u));

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

class ChurnNeverStreamsTwice : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChurnNeverStreamsTwice, FromTheSameOpenRequest) {
  // Every member of the movie group holds the same client table at the same
  // message, so exactly one server opens each session and no client is
  // ever streamed twice. Clients stop and re-watch in a loop; the checks
  // run every 100 ms.
  constexpr int kServers = 3;
  constexpr int kClients = 12;
  VodTestBed bed(kServers, kClients, net::lan_quality(), GetParam());
  double next_toggle[kClients];
  for (int c = 0; c < kClients; ++c) next_toggle[c] = 0.3 * c;
  std::uint64_t watches = 0;
  for (int tick = 0; tick < 400; ++tick) {
    const double now = tick * 0.1;
    for (int c = 0; c < kClients; ++c) {
      if (now < next_toggle[c]) continue;
      if (bed.client(c).watching()) {
        bed.client(c).stop();
        next_toggle[c] = now + 0.1 + 0.1 * (c % 3);
      } else {
        bed.client(c).watch(bed.movie()->name());
        ++watches;
        next_toggle[c] = now + 1.0 + 0.4 * (c % 5);
      }
    }
    bed.run_for(0.1);
    std::uint64_t opened = 0;
    for (int s = 0; s < kServers; ++s) {
      opened += bed.server(s).stats().sessions_opened;
    }
    ASSERT_LE(opened, watches) << "at t=" << now;
    for (int c = 0; c < kClients; ++c) {
      int serving = 0;
      for (int s = 0; s < kServers; ++s) {
        if (bed.server(s).serves(bed.client(c).client_id())) ++serving;
      }
      ASSERT_LE(serving, 1) << "client " << c << " at t=" << now;
    }
  }
  bed.run_for(2.0);  // the last opens are answered
  std::uint64_t opened = 0;
  for (int s = 0; s < kServers; ++s) {
    opened += bed.server(s).stats().sessions_opened;
  }
  EXPECT_EQ(opened, watches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnNeverStreamsTwice,
                         ::testing::Range(0u, 8u));

// ---------------------------------------------------------- repair rules
//
// Two repair rules remain in each server's client table (server.hpp,
// VodServer::Client): a second ask rescues the client, and two absent
// syncs forget a claim. Every member applies them alike. The tests below
// put exactly the claims a rule reacts to into one real server's table
// through a scripted movie-group member.

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
/// server's rounds completes.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(gcs::Daemon& daemon) {
    member_ = daemon.join(
        movie_group_name(kRepairMovie),
        gcs::GroupCallbacks{
            [this](const gcs::GcsEndpoint& from,
                   std::span<const std::byte> d) {
              if (!member_ || from == member_->endpoint()) return;
              const auto sync = wire::decode<wire::StateSync>(d);
              if (sync && sync->exchange_tag != 0 &&
                  sync->exchange_tag != round_) {
                round_ = sync->exchange_tag;
                if (answering_) table(round_, claims_);
              }
            },
            nullptr});
  }

  /// Claims exactly `clients` from now on and multicasts a periodic sync.
  void sync(std::vector<std::uint64_t> clients) {
    claims_ = std::move(clients);
    member_->send(claim_sync(0, claims_));
  }

  /// From now on, rounds are answered only by hand, with table().
  void hold_answers() { answering_ = false; }
  /// Multicasts a round table tagged `tag` that claims exactly `clients`.
  void table(std::uint64_t tag, const std::vector<std::uint64_t>& clients) {
    member_->send(claim_sync(tag, clients));
  }
  /// The tag of the last round the server's table announced.
  [[nodiscard]] std::uint64_t round() const { return round_; }

 private:
  std::unique_ptr<gcs::GroupMember> member_;
  std::vector<std::uint64_t> claims_;
  std::uint64_t round_ = 0;
  bool answering_ = true;
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

  /// Joins the scripted peer, claiming nothing, to the movie group and lets
  /// the resulting table exchange finish.
  ScriptedPeer& join_peer() {
    peer_ = std::make_unique<ScriptedPeer>(*peer_daemon_);
    run_for(1.0);
    return *peer_;
  }
  /// A second, silent member on the peer's daemon: its join changes the
  /// movie-group view, and so starts a round, without a new server node.
  void add_extra_member() {
    extra_ = peer_daemon_->join(movie_group_name(kRepairMovie), {});
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
  // The peer, below the server, claims a phantom and then leaves it out of
  // its syncs. A held claim loads the peer, so a new client goes to the
  // idle server; a forgotten one leaves both idle, and the tie goes to the
  // lowest id, the peer.
  for (const int absences : {1, 2}) {
    RepairBed bed(/*peer_below_server=*/true);
    ScriptedPeer& peer = bed.join_peer();
    peer.sync({kPhantom});
    for (int i = 0; i < absences; ++i) {
      bed.run_for(0.3);
      peer.sync({});
    }
    bed.run_for(0.3);
    bed.client(0).watch(kRepairMovie);
    bed.run_for(0.3);
    EXPECT_EQ(bed.server().serves(bed.id(0)), absences == 1)
        << absences << " absent syncs";
  }
}

TEST(ServerRepair, KeepsItsOwnStoppedClientForTwoSyncs) {
  // The server applies its own syncs as a peer's: a client that stopped
  // stays in its table, as load, until two of its syncs left it out.
  RepairBed bed(/*peer_below_server=*/false);
  bed.join_peer();
  bed.client(1).watch(kRepairMovie);
  bed.run_for(1.5);
  ASSERT_TRUE(bed.server().serves(bed.id(1)));
  bed.client(1).stop();
  bed.run_for(0.1);
  ASSERT_FALSE(bed.server().serves(bed.id(1)));
  // The stopped client still loads the server, so the idle peer is chosen
  // (and stays silent) ...
  bed.client(0).watch(kRepairMovie);
  bed.run_for(0.3);
  EXPECT_FALSE(bed.server().serves(bed.id(0)));
  // ... until the retry is rescued by the lowest id, the server.
  bed.run_for(1.5);
  EXPECT_TRUE(bed.server().serves(bed.id(0)));
}

TEST(ServerRepair, AViewChangeRestartsTheAskCount) {
  // A member new to the view has no ask counts, so every member restarts
  // them at a view change: an ask before the change and one after it are
  // two first asks, and only the next one is rescued. kStable leaves the
  // peer's claim with the peer at the round (kSpread would move it).
  VodParams params;
  params.rebalance_policy = RebalancePolicy::kStable;
  RepairBed bed(/*peer_below_server=*/false, params);
  ScriptedPeer& peer = bed.join_peer();
  peer.sync({bed.id(0)});  // the silent peer claims client 0
  bed.run_for(0.3);
  bed.client(0).watch(kRepairMovie);
  bed.run_for(0.1);        // first ask: the peer owns it
  bed.add_extra_member();  // a round; the retry lands 1-1.25 s after the ask
  bed.run_for(0.5);
  EXPECT_FALSE(bed.server().serves(bed.id(0)));
  bed.run_for(3.0);  // the next retry is the second ask since the change
  EXPECT_TRUE(bed.server().serves(bed.id(0)));
}

TEST(ServerRepair, IgnoresATableOfASupersededRound) {
  // A table tagged for an earlier round would re-claim clients that the
  // round's successor has since moved. The server ignores it and keeps
  // waiting for the peer's table of the current round.
  RepairBed bed(/*peer_below_server=*/false);
  ScriptedPeer& peer = bed.join_peer();
  const std::uint64_t old_round = peer.round();
  peer.hold_answers();
  bed.add_extra_member();
  ASSERT_NE(peer.round(), old_round);
  ASSERT_TRUE(bed.server().rebalance_pending(kRepairMovie));
  peer.table(old_round, {kPhantom});
  bed.run_for(0.3);
  EXPECT_TRUE(bed.server().rebalance_pending(kRepairMovie));
  peer.table(peer.round(), {});
  bed.run_for(0.3);
  EXPECT_FALSE(bed.server().rebalance_pending(kRepairMovie));
  const RebalanceSnapshot* snap = bed.server().rebalance_snapshot(kRepairMovie);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->exchange_tag, peer.round());
  EXPECT_FALSE(snap->input_owners.contains(kPhantom));
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
