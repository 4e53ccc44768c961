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
constexpr RunResult kPinned{
    .events = 12428,
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
