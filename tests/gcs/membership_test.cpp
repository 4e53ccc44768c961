// View-change GCS tests: crashes, joins on the fly, partitions, merges,
// coordinator failure, virtual synchrony.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gcs_harness.hpp"

namespace ftvod::gcs {
namespace {

using testing::GcsHarness;
using testing::Listener;
using testing::text_msg;

TEST(GcsMembership, CrashShrinksDaemonView) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  h.crash(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  EXPECT_EQ(h.daemon(0).view().members.size(), 2u);
  EXPECT_FALSE(h.daemon(0).view().contains(h.node(2)));
}

TEST(GcsMembership, CrashDetectionIsFast) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  const sim::Time t0 = h.scheduler().now();
  h.crash(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  const sim::Time elapsed = h.scheduler().now() - t0;
  // suspect_timeout is 400 ms; the whole view change should finish within
  // roughly twice that (the paper reports ~0.5 s takeover on a LAN).
  EXPECT_LT(elapsed, sim::msec(1100));
}

TEST(GcsMembership, GroupViewReflectsCrashedMember) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_EQ(l0.views.back().members.size(), 3u);

  h.crash(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  h.run_for(sim::msec(200));
  ASSERT_EQ(l0.views.back().members.size(), 2u);
  EXPECT_FALSE(l0.views.back().contains(m2->endpoint()));
  EXPECT_EQ(l0.views.back().members, l1.views.back().members);
}

TEST(GcsMembership, CoordinatorCrashRecovered) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  // The coordinator is the view's proposer; by construction the smallest id
  // proposed the merged view.
  const net::NodeId coord = h.daemon(0).view().id.coord;
  int coord_idx = 0;
  for (int i = 0; i < 3; ++i) {
    if (h.node(i) == coord) coord_idx = i;
  }
  h.crash(coord_idx);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  for (int i = 0; i < 3; ++i) {
    if (i == coord_idx) continue;
    EXPECT_EQ(h.daemon(i).view().members.size(), 2u);
  }
}

TEST(GcsMembership, MessagesFlowAfterCoordinatorCrash) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l1, l2;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));

  h.crash(0);  // smallest id: the coordinator
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  m1->send(text_msg("post-crash"));
  h.run_for(sim::sec(2));
  ASSERT_EQ(l2.texts(), std::vector<std::string>{"post-crash"});
}

TEST(GcsMembership, SequentialCrashesDownToOne) {
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  for (int victim = 3; victim >= 1; --victim) {
    h.crash(victim);
    ASSERT_TRUE(h.run_until_converged(sim::sec(5)))
        << "failed after crashing host " << victim;
  }
  EXPECT_EQ(h.daemon(0).view().members.size(), 1u);
}

TEST(GcsMembership, NewDaemonJoinsOnTheFly) {
  GcsHarness h(3);
  h.start(0);
  h.start(1);
  ASSERT_TRUE(h.run_until_converged());
  EXPECT_EQ(h.daemon(0).view().members.size(), 2u);

  h.start(2);  // brought up later, like a new VoD server
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  EXPECT_EQ(h.daemon(0).view().members.size(), 3u);
  EXPECT_EQ(h.daemon(2).view().id, h.daemon(0).view().id);
}

TEST(GcsMembership, JoinerLearnsGroupTable) {
  GcsHarness h(3);
  h.start(0);
  h.start(1);
  ASSERT_TRUE(h.run_until_converged());
  Listener l0;
  auto m0 = h.daemon(0).join("movie", l0.callbacks());
  h.run_for(sim::sec(1));

  h.start(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  // The late daemon hosts nothing, so it keeps no copy of the group. Once
  // it joins, its first view lists the member that joined before it
  // arrived: the join carries the group's members.
  EXPECT_TRUE(h.daemon(2).group_members("movie").empty());
  Listener l2;
  auto m2 = h.daemon(2).join("movie", l2.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_FALSE(l2.views.empty());
  EXPECT_EQ(l2.views.front().members,
            (std::vector<GcsEndpoint>{m0->endpoint(), m2->endpoint()}));
  EXPECT_EQ(h.daemon(2).group_members("movie"), l2.views.front().members);
}

TEST(GcsMembership, LateJoinerCanTalkToExistingGroup) {
  GcsHarness h(2);
  h.start(0);
  ASSERT_TRUE(h.run_until_converged());
  Listener l0;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  h.run_for(sim::sec(1));

  h.start(1);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  Listener l1;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  m1->send(text_msg("hello-from-joiner"));
  h.run_for(sim::sec(1));
  ASSERT_FALSE(l0.messages.empty());
  EXPECT_EQ(l0.messages.back().text, "hello-from-joiner");
  EXPECT_EQ(l0.views.back().members.size(), 2u);
}

TEST(GcsMembership, PartitionFormsDisjointViews) {
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  h.network().partition({{h.node(0), h.node(1)}, {h.node(2), h.node(3)}});
  h.run_for(sim::sec(3));
  EXPECT_EQ(h.daemon(0).view().members,
            (std::vector<net::NodeId>{h.node(0), h.node(1)}));
  EXPECT_EQ(h.daemon(2).view().members,
            (std::vector<net::NodeId>{h.node(2), h.node(3)}));
  EXPECT_NE(h.daemon(0).view().id, h.daemon(2).view().id);
}

TEST(GcsMembership, HealedPartitionMerges) {
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  h.network().partition({{h.node(0), h.node(1)}, {h.node(2), h.node(3)}});
  h.run_for(sim::sec(3));
  h.network().heal();
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  EXPECT_EQ(h.daemon(0).view().members.size(), 4u);
  EXPECT_EQ(h.daemon(0).view().id, h.daemon(3).view().id);
}

TEST(GcsMembership, GroupSurvivesPartitionAndMerge) {
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_EQ(l0.views.back().members.size(), 2u);

  h.network().partition({{h.node(0), h.node(1)}, {h.node(2), h.node(3)}});
  h.run_for(sim::sec(3));
  // Each side sees only its own member.
  EXPECT_EQ(l0.views.back().members, std::vector<GcsEndpoint>{m0->endpoint()});
  EXPECT_EQ(l2.views.back().members, std::vector<GcsEndpoint>{m2->endpoint()});

  h.network().heal();
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::msec(500));
  EXPECT_EQ(l0.views.back().members.size(), 2u);
  EXPECT_EQ(l2.views.back().members.size(), 2u);

  // And messages flow across the healed group.
  m0->send(text_msg("after-merge"));
  h.run_for(sim::sec(1));
  ASSERT_FALSE(l2.messages.empty());
  EXPECT_EQ(l2.messages.back().text, "after-merge");
}

// Virtual synchrony: daemons that transition together deliver the same
// message set before the new view. We crash the sender right after it hands
// a burst to the coordinator; the survivors must agree on what arrived.
TEST(GcsMembership, SurvivorsAgreeOnDeliveredSet) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));

  for (int i = 0; i < 10; ++i) m0->send(text_msg("x" + std::to_string(i)));
  h.run_for(sim::msec(3));  // partial propagation
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  h.run_for(sim::sec(1));
  // Whatever subset made it, both survivors deliver exactly the same
  // sequence (prefix agreement is the virtual synchrony obligation).
  EXPECT_EQ(l1.texts(), l2.texts());
}

TEST(GcsMembership, FlushEqualizesUnderLoss) {
  net::LinkQuality lossy = net::lan_quality();
  lossy.loss = 0.25;
  GcsHarness h(3, lossy);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(sim::sec(30)));
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(2));
  for (int i = 0; i < 20; ++i) m0->send(text_msg("y" + std::to_string(i)));
  h.run_for(sim::msec(50));
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(20)));
  h.run_for(sim::sec(2));
  EXPECT_EQ(l1.texts(), l2.texts());
}

TEST(GcsMembership, ViewIdsMonotonicallyIncrease) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  const std::uint64_t c1 = h.daemon(0).view().id.counter;
  h.crash(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  const std::uint64_t c2 = h.daemon(0).view().id.counter;
  EXPECT_GT(c2, c1);
}

TEST(GcsMembership, RestoredHostRejoins) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  h.crash(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  // Bring the host back with a fresh daemon (new incarnation).
  h.network().restore_host(h.node(2));
  // The old daemon instance is halted; a fresh one must be constructed on a
  // fresh host in real deployments. Here we emulate via a new harness slot:
  // restore + new daemon is covered by NewDaemonJoinsOnTheFly; this test
  // checks the view stays stable at 2 members when nothing rejoins.
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.daemon(0).view().members.size(), 2u);
}

TEST(GcsMembership, ProposeFromAnyoneButItsProposerIsIgnored) {
  // A view's proposer is its coordinator, so a Propose is only taken from
  // pv.coord: one sent from another host neither blocks the daemon nor
  // draws an ack.
  GcsHarness h(3);
  h.start(0);
  h.start(1);
  ASSERT_TRUE(h.run_until_converged());
  int acks = 0;
  auto rogue = h.network().bind(
      h.node(2), h.config().port,
      [&](const net::Endpoint&, std::span<const std::byte> data) {
        if (wire::peek_type(data) == wire::MsgType::kProposeAck) ++acks;
      });
  const ViewId before = h.daemon(1).view().id;
  const util::Bytes propose = wire::encode(wire::Propose{
      ViewId{before.counter + 1, h.node(0)}, {h.node(0), h.node(1)}});

  rogue->send(net::Endpoint{h.node(1), h.config().port}, propose);
  h.run_for(sim::msec(500));
  EXPECT_EQ(acks, 0);
  EXPECT_FALSE(h.daemon(1).blocked());
  EXPECT_EQ(h.daemon(1).view().id, before);

  // The same datagram from the proposer's host is a proposal.
  auto from_coord = h.network().bind(h.node(0), h.config().port + 1,
                                     [](const net::Endpoint&,
                                        std::span<const std::byte>) {});
  from_coord->send(net::Endpoint{h.node(1), h.config().port}, propose);
  h.run_for(sim::msec(50));
  EXPECT_TRUE(h.daemon(1).blocked());
}

TEST(GcsMembership, PausedDaemonSendsNothingUntilResumed) {
  // pause() stops every timer and keeps all state: the daemon falls
  // silent, its peers exclude it, and resume() brings it back.
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  const ViewId before = h.daemon(2).view().id;
  h.daemon(2).pause();
  const auto sent = h.daemon(2).socket_stats().datagrams_sent;
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.daemon(2).socket_stats().datagrams_sent, sent);
  EXPECT_EQ(h.daemon(2).view().id, before);
  EXPECT_EQ(h.daemon(0).view().members,
            (std::vector<net::NodeId>{h.node(0), h.node(1)}));

  h.daemon(2).resume();
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  EXPECT_EQ(h.daemon(0).view().members.size(), 3u);
  EXPECT_GT(h.daemon(2).socket_stats().datagrams_sent, sent);
}

TEST(GcsMembership, PauseAndHaltStopEveryTimer) {
  // pause() and halt() stop one list of timers: a lone daemon, which has
  // no traffic in flight, leaves nothing scheduled behind either.
  GcsHarness h(1);
  Daemon& d = h.start(0);
  Listener lis;
  auto m = d.join("g", lis.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_GT(h.scheduler().pending_events(), 0u);
  d.pause();
  EXPECT_EQ(h.scheduler().pending_events(), 0u);
  d.resume();
  EXPECT_GT(h.scheduler().pending_events(), 0u);
  h.run_for(sim::sec(1));
  d.halt();
  EXPECT_EQ(h.scheduler().pending_events(), 0u);
}

class MembershipChurn : public ::testing::TestWithParam<unsigned> {};

// Random crash/heal churn: after the dust settles, survivors converge and
// can exchange messages.
TEST_P(MembershipChurn, ConvergesAfterChurn) {
  GcsHarness h(5, net::lan_quality(), GetParam() * 97 + 3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());

  // Crash two distinct victims (never host 0, our observer).
  const int v1 = 1 + static_cast<int>(GetParam() % 4);
  const int v2 = 1 + static_cast<int>((GetParam() + 2) % 4);
  h.crash(v1);
  h.run_for(sim::msec(150 * (GetParam() % 5)));
  if (v2 != v1) h.crash(v2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(15)));

  Listener l0;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  h.run_for(sim::sec(1));
  m0->send(text_msg("alive"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.texts(), std::vector<std::string>{"alive"});
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipChurn, ::testing::Range(0u, 10u));

}  // namespace
}  // namespace ftvod::gcs
