// Reproducibility: the whole stack is deterministic given a seed — two
// identical deployments produce bit-identical event streams and counters,
// and different seeds genuinely differ. This is what makes the benchmark
// harnesses and failure injections trustworthy.
#include <gtest/gtest.h>

#include "vod/service.hpp"

namespace ftvod::vod {
namespace {

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t received = 0;
  std::uint64_t displayed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t late = 0;
  std::uint64_t wire_bytes = 0;
  // Server counters, summed over both servers (the crashed one included).
  std::uint64_t sessions_opened = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t frames_sent = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult collect(Deployment& dep, const VodClient& client) {
  RunResult r;
  r.events = dep.scheduler().executed_events();
  r.received = client.counters().received;
  r.displayed = client.counters().displayed;
  r.skipped = client.counters().skipped;
  r.late = client.counters().late;
  r.wire_bytes = dep.network().total_wire_bytes();
  for (const auto& sn : dep.servers()) {
    const ServerStats& st = sn->server->stats();
    r.sessions_opened += st.sessions_opened;
    r.takeovers += st.takeovers;
    r.migrations_out += st.migrations_out;
    r.rebalances += st.rebalances;
    r.frames_sent += st.frames_sent;
  }
  return r;
}

RunResult run_scenario(std::uint64_t seed) {
  Deployment dep(seed);
  const net::NodeId s0 = dep.add_host("s0");
  const net::NodeId s1 = dep.add_host("s1");
  const net::NodeId c0 = dep.add_host("c0");
  auto movie = mpeg::Movie::synthetic("m", 120.0);
  dep.start_server(s0).server->add_movie(movie);
  dep.start_server(s1).server->add_movie(movie);
  auto& client = *dep.start_client(c0).client;
  dep.run_for(sim::sec(2.0));
  client.watch("m");
  dep.run_for(sim::sec(20.0));
  // Inject a crash mid-run to exercise the failover path too.
  for (auto& sn : dep.servers()) {
    if (sn->server->serves(client.client_id())) {
      dep.crash(sn->node);
      break;
    }
  }
  dep.run_for(sim::sec(10.0));
  return collect(dep, client);
}

/// Session and view churn with no crash: the client pauses and resumes,
/// then stops and watches a second title, while a server's daemon is
/// paused past the suspect timeout, so the others exclude it, and resumed,
/// so it merges back under the same coordinator. The counts after the last
/// watch() are the second session's.
struct ChurnResult {
  RunResult run;
  std::uint64_t view_changes = 0;  // summed over every daemon
  std::uint64_t session_views = 0;
  std::uint64_t open_retries = 0;
  std::uint64_t emergencies_sent = 0;
};

ChurnResult run_churn_scenario(std::uint64_t seed) {
  Deployment dep(seed);
  const net::NodeId s0 = dep.add_host("s0");
  const net::NodeId s1 = dep.add_host("s1");
  const net::NodeId c0 = dep.add_host("c0");
  auto m = mpeg::Movie::synthetic("m", 120.0);
  auto n = mpeg::Movie::synthetic("n", 120.0);
  for (const net::NodeId s : {s0, s1}) {
    VodServer& server = *dep.start_server(s).server;
    server.add_movie(m);
    server.add_movie(n);
  }
  auto& client = *dep.start_client(c0).client;
  dep.run_for(sim::sec(2.0));
  client.watch("m");
  dep.run_for(sim::sec(8.0));
  client.pause();
  dep.run_for(sim::sec(2.0));
  client.resume();
  dep.run_for(sim::sec(4.0));
  gcs::Daemon& paused = *dep.servers()[1]->daemon;
  paused.pause();
  dep.run_for(sim::sec(2.0));
  paused.resume();
  dep.run_for(sim::sec(6.0));
  client.stop();
  dep.run_for(sim::sec(1.0));
  client.watch("n");
  dep.run_for(sim::sec(10.0));

  // The scenario did what it says: everyone is back in one view, which the
  // lowest daemon coordinates.
  const gcs::DaemonView& view = dep.servers()[0]->daemon->view();
  EXPECT_EQ(view.members, (std::vector<net::NodeId>{s0, s1, c0}));
  EXPECT_EQ(view.id.coord, s0);
  EXPECT_EQ(paused.view().id, view.id);
  EXPECT_TRUE(client.playing());

  ChurnResult r{.run = collect(dep, client)};
  for (const auto& sn : dep.servers()) {
    r.view_changes += sn->daemon->stats().view_changes;
  }
  r.view_changes += dep.clients()[0]->daemon->stats().view_changes;
  r.session_views = client.control_stats().session_views;
  r.open_retries = client.control_stats().open_retries;
  r.emergencies_sent = client.control_stats().emergencies_sent;
  return r;
}

// run_scenario(12345) as recorded when this guard was added. The two-run
// tests below only compare a binary with itself, so a change to seeded
// behaviour between commits passes them; this one does not. Change these
// values only in a commit that means to change seeded behaviour (protocol
// decisions, timer phases, event order) and says so. Last re-pinned for
// three declared model changes: the downlink serialization folded into one
// event per datagram, booked in first-bit order; the watchdog run by a
// playing client's display tick; and a GCS proposer re-proposing above a
// view its members installed instead of abandoning them (one view change
// fewer here, hence one rebalance fewer). Since then only wire_bytes
// moved (+1,498): every ordered GCS message carries a change number and a
// member count, and a join the members before it. Joins and leaves now
// reach only the group's hosts, but on this three-host deployment that
// removes no datagram (and so no event), and no VoD count moves.
// Re-pinned when the coordinator started ordering its own submissions
// after the event and the client table became identical at every member:
// events +26 (the coordinator's end-of-event flushes), wire_bytes +536
// (every StateSync carries a 4-byte orphan count), rebalances 4 -> 6 (at
// t=0 each daemon coordinates itself, and each server now receives and
// completes the round of its own first, singleton movie-group view).
// Re-pinned when display ticks stopped being scheduler events (the client
// runs them lazily and owns one deadline timer): events -847, ~30 display
// ticks a second replaced by ~2 deadline firings; no other count moves.
constexpr RunResult kPinned{
    .events = 11581,
    .received = 998,
    .displayed = 897,
    .skipped = 14,
    .late = 15,
    .wire_bytes = 6098663,
    .sessions_opened = 1,
    .takeovers = 1,
    .migrations_out = 0,
    .rebalances = 6,
    .frames_sent = 998,
};

TEST(Determinism, SeededRunMatchesPinnedCounts) {
  const RunResult r = run_scenario(12345);
  EXPECT_EQ(r.events, kPinned.events);
  EXPECT_EQ(r.received, kPinned.received);
  EXPECT_EQ(r.displayed, kPinned.displayed);
  EXPECT_EQ(r.skipped, kPinned.skipped);
  EXPECT_EQ(r.late, kPinned.late);
  EXPECT_EQ(r.wire_bytes, kPinned.wire_bytes);
  EXPECT_EQ(r.sessions_opened, kPinned.sessions_opened);
  EXPECT_EQ(r.takeovers, kPinned.takeovers);
  EXPECT_EQ(r.migrations_out, kPinned.migrations_out);
  EXPECT_EQ(r.rebalances, kPinned.rebalances);
  EXPECT_EQ(r.frames_sent, kPinned.frames_sent);
}

// run_churn_scenario(4242) as recorded when this guard was added, before
// the GCS per-view state and the client's per-session state became one
// object each. The same rule as kPinned applies.
constexpr ChurnResult kChurnPinned{
    .run = {.events = 13669,
            .received = 361,
            .displayed = 297,
            .skipped = 0,
            .late = 0,
            .wire_bytes = 6396450,
            .sessions_opened = 2,
            .takeovers = 1,
            .migrations_out = 1,
            .rebalances = 16,
            .frames_sent = 1033},
    .view_changes = 10,
    .session_views = 8,
    .open_retries = 0,
    .emergencies_sent = 18,
};

TEST(Determinism, SessionAndViewChurnMatchesPinnedCounts) {
  const ChurnResult r = run_churn_scenario(4242);
  EXPECT_EQ(r.run.events, kChurnPinned.run.events);
  EXPECT_EQ(r.run.received, kChurnPinned.run.received);
  EXPECT_EQ(r.run.displayed, kChurnPinned.run.displayed);
  EXPECT_EQ(r.run.skipped, kChurnPinned.run.skipped);
  EXPECT_EQ(r.run.late, kChurnPinned.run.late);
  EXPECT_EQ(r.run.wire_bytes, kChurnPinned.run.wire_bytes);
  EXPECT_EQ(r.run.sessions_opened, kChurnPinned.run.sessions_opened);
  EXPECT_EQ(r.run.takeovers, kChurnPinned.run.takeovers);
  EXPECT_EQ(r.run.migrations_out, kChurnPinned.run.migrations_out);
  EXPECT_EQ(r.run.rebalances, kChurnPinned.run.rebalances);
  EXPECT_EQ(r.run.frames_sent, kChurnPinned.run.frames_sent);
  EXPECT_EQ(r.view_changes, kChurnPinned.view_changes);
  EXPECT_EQ(r.session_views, kChurnPinned.session_views);
  EXPECT_EQ(r.open_retries, kChurnPinned.open_retries);
  EXPECT_EQ(r.emergencies_sent, kChurnPinned.emergencies_sent);
}

TEST(Determinism, SameSeedBitIdentical) {
  const RunResult a = run_scenario(12345);
  const RunResult b = run_scenario(12345);
  EXPECT_EQ(a, b);
}

TEST(Determinism, SameSeedBitIdenticalWan) {
  auto run = [](std::uint64_t seed) {
    Deployment dep(seed, net::wan_quality(0.02));
    const net::NodeId s0 = dep.add_host("s0");
    const net::NodeId c0 = dep.add_host("c0");
    auto movie = mpeg::Movie::synthetic("m", 60.0);
    dep.start_server(s0).server->add_movie(movie);
    auto& client = *dep.start_client(c0).client;
    dep.run_for(sim::sec(2.0));
    client.watch("m");
    dep.run_for(sim::sec(20.0));
    return std::pair{dep.scheduler().executed_events(),
                     client.counters().received};
  };
  EXPECT_EQ(run(777), run(777));
}

TEST(Determinism, DifferentSeedsDiffer) {
  const RunResult a = run_scenario(1);
  const RunResult b = run_scenario(2);
  // The deterministic protocol work is the same; the jitter draws differ,
  // so the runs must differ somewhere (event count, deliveries, or wire
  // volume — any single scalar can coincide by chance).
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ftvod::vod
