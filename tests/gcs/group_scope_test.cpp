// Group-scoped delivery: every message of a group, joins and leaves
// included, reaches only the daemons hosting it (plus the sender), each
// daemon keeps only the groups it hosts, gap repair stays exact per
// destination, and the flush exchange keeps virtual synchrony when only
// some destinations got a message before the coordinator died.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gcs_harness.hpp"

namespace ftvod::gcs {
namespace {

using testing::GcsHarness;
using testing::Listener;
using testing::text_msg;

TEST(GcsGroupScope, FlushHandsOverAMessageOnlyOneDestinationGot) {
  // n0 coordinates; g lives on n1 (A) and n2 (B); n3 (C) hosts nothing.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  ASSERT_EQ(h.daemon(1).view().id.coord, h.node(0));
  Listener la, lb;
  auto a = h.daemon(1).join("g", la.callbacks());
  auto b = h.daemon(2).join("g", lb.callbacks());
  h.run_for(sim::sec(1));
  a->send(text_msg("both-saw"));
  h.run_for(sim::msec(100));
  const std::uint64_t c_delivered = h.daemon(3).stats().messages_delivered;

  // Every datagram between the coordinator and B is lost: the next message
  // reaches A only, and then the coordinator dies.
  net::LinkQuality dead = net::lan_quality();
  dead.loss = 1.0;
  h.network().set_quality(h.node(0), h.node(2), dead);
  a->send(text_msg("only-A"));
  h.run_for(sim::msec(5));
  ASSERT_EQ(la.texts(), (std::vector<std::string>{"both-saw", "only-A"}));
  ASSERT_EQ(lb.texts(), std::vector<std::string>{"both-saw"});
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::sec(1));

  // A held it, so the flush hands it to B before the new view: both
  // delivered the same sequence. C, which hosts no member, never saw it.
  EXPECT_EQ(la.texts(), lb.texts());
  EXPECT_EQ(h.daemon(3).stats().messages_delivered, c_delivered);

  // The new view works for both.
  b->send(text_msg("after"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(la.texts().back(), "after");
  EXPECT_EQ(lb.texts().back(), "after");
}

TEST(GcsGroupScope, SenderKeepsSendingAfterTheFlushDeliversItsOwnMessage) {
  // A's own copy of its message is lost (A is paused while it arrives), B
  // gets it, and the coordinator dies. The flush hands the message back to
  // A, retiring a submission the new coordinator was told to expect from A;
  // A must still get its next message ordered in the new view.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener la, lb;
  auto a = h.daemon(1).join("g", la.callbacks());
  auto b = h.daemon(2).join("g", lb.callbacks());
  h.run_for(sim::sec(1));

  a->send(text_msg("own-copy-lost"));
  h.run_for(sim::usec(100));  // the submission is on its way
  h.daemon(1).pause();
  h.run_for(sim::msec(5));
  ASSERT_TRUE(la.messages.empty());
  ASSERT_EQ(lb.texts(), std::vector<std::string>{"own-copy-lost"});
  h.crash(0);
  h.daemon(1).resume();
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  EXPECT_EQ(la.texts(), lb.texts());

  a->send(text_msg("after"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(la.texts(),
            (std::vector<std::string>{"own-copy-lost", "after"}));
  EXPECT_EQ(lb.texts(), la.texts());
}

TEST(GcsGroupScope, FlushKeepsTheSendersOrderWhenAnEarlierMessageIsLost) {
  // A sends m1 then m2. Every copy of m1 is lost (A's and B's), m2 reaches
  // A only, and the coordinator dies. No survivor holds m1, so the flush
  // must not deliver m2 either: A resubmits both in the new view, and both
  // members see m1 before m2.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener la, lb;
  auto a = h.daemon(1).join("g", la.callbacks());
  auto b = h.daemon(2).join("g", lb.callbacks());
  h.run_for(sim::sec(1));
  a->send(text_msg("first"));
  h.run_for(sim::msec(100));

  net::LinkQuality dead = net::lan_quality();
  dead.loss = 1.0;
  a->send(text_msg("m1"));
  h.run_for(sim::usec(50));  // the submission is on its way
  h.network().set_quality(h.node(0), h.node(1), dead);
  h.network().set_quality(h.node(0), h.node(2), dead);
  h.run_for(sim::msec(3));  // m1 is ordered; both copies are lost
  h.network().clear_quality(h.node(0), h.node(1));
  a->send(text_msg("m2"));
  h.run_for(sim::msec(3));  // m2 reaches A, which holds it behind m1
  ASSERT_EQ(la.texts(), std::vector<std::string>{"first"});
  ASSERT_EQ(lb.texts(), std::vector<std::string>{"first"});
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::sec(1));

  const std::vector<std::string> expected{"first", "m1", "m2"};
  EXPECT_EQ(la.texts(), expected);
  EXPECT_EQ(lb.texts(), expected);
}

TEST(GcsGroupScope, FlushKeepsWhatASurvivorAlreadyDelivered) {
  // n1 sends p into g (n1, n2), then m into h (n1, n3). Every copy of p is
  // lost; n3 delivers m (p was never addressed to it), n1 holds m behind
  // p, and the coordinator dies. m cannot be cut: n3 delivered it, so n1
  // delivers it in the old view too, and p follows in the new view. This
  // is the one case where the sender's order is not kept.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener lg1, lg2, lh1, lh3;
  auto g1 = h.daemon(1).join("g", lg1.callbacks());
  auto g2 = h.daemon(2).join("g", lg2.callbacks());
  auto h1 = h.daemon(1).join("h", lh1.callbacks());
  auto h3 = h.daemon(3).join("h", lh3.callbacks());
  h.run_for(sim::sec(1));

  net::LinkQuality dead = net::lan_quality();
  dead.loss = 1.0;
  g1->send(text_msg("p"));
  h.run_for(sim::usec(50));
  h.network().set_quality(h.node(0), h.node(1), dead);
  h.network().set_quality(h.node(0), h.node(2), dead);
  h.run_for(sim::msec(3));
  h.network().clear_quality(h.node(0), h.node(1));
  h1->send(text_msg("m"));
  h.run_for(sim::msec(3));
  ASSERT_EQ(lh3.texts(), std::vector<std::string>{"m"});
  ASSERT_TRUE(lh1.messages.empty());
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::sec(1));

  EXPECT_EQ(lh1.texts(), std::vector<std::string>{"m"});
  EXPECT_EQ(lh3.texts(), std::vector<std::string>{"m"});
  EXPECT_EQ(lg1.texts(), std::vector<std::string>{"p"});
  EXPECT_EQ(lg2.texts(), std::vector<std::string>{"p"});
}

TEST(GcsGroupScope, SecondCrashDuringTheFlushStillInstallsOneView) {
  // The coordinator dies; while the survivors flush, n3 (slow links, so
  // its flush answers are still on their way) dies too. The others give
  // up on it once they suspect it and install one common view at once,
  // rather than falling apart into singletons that re-merge.
  GcsHarness h(5);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l1, l4;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m4 = h.daemon(4).join("g", l4.callbacks());
  h.run_for(sim::sec(1));
  net::LinkQuality slow = net::lan_quality();
  slow.base_delay = sim::msec(50);
  for (int i = 0; i < 5; ++i) {
    if (i != 3) h.network().set_quality(h.node(3), h.node(i), slow);
  }
  h.run_for(sim::sec(1));
  std::vector<std::uint64_t> views_before(5);
  for (int i = 1; i < 5; ++i) {
    views_before[i] = h.daemon(i).stats().view_changes;
  }

  h.crash(0);
  // n2 blocks when n1's proposal reaches it; n3's acknowledgement reaches
  // n1 about 100 ms later, and its flush answers would take 50 ms more.
  const sim::Time deadline = h.scheduler().now() + sim::sec(5);
  while (!h.daemon(2).blocked() && h.scheduler().now() < deadline) {
    h.run_for(sim::usec(200));
  }
  ASSERT_TRUE(h.daemon(2).blocked());
  h.run_for(sim::msec(120));
  ASSERT_TRUE(h.daemon(2).blocked());
  h.crash(3);
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  for (int i : {1, 2, 4}) {
    EXPECT_EQ(h.daemon(i).view().members,
              (std::vector<net::NodeId>{h.node(1), h.node(2), h.node(4)}));
    EXPECT_EQ(h.daemon(i).stats().view_changes, views_before[i] + 1)
        << "daemon " << i;
  }

  m4->send(text_msg("after"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(l1.texts(), std::vector<std::string>{"after"});
  EXPECT_EQ(l4.texts(), l1.texts());
}

TEST(GcsGroupScope, NonHostingDaemonReceivesNoGroupTraffic) {
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener la, lb;
  auto a = h.daemon(1).join("g", la.callbacks());
  auto b = h.daemon(2).join("g", lb.callbacks());
  h.run_for(sim::sec(1));

  // Compare n3's datagrams over two equal windows whose edges sit midway
  // between heartbeat arrivals: one idle, one in which g carries 100
  // messages. Heartbeats are all n3 may receive in either.
  const sim::Duration period = h.config().heartbeat_interval;
  h.run_for(period - h.scheduler().now() % period + period / 2);
  const sim::Duration window = 20 * period;
  const auto received = [&] {
    return h.network().stats(h.node(3)).datagrams_received;
  };
  const std::uint64_t idle0 = received();
  h.run_for(window);
  const std::uint64_t idle = received() - idle0;

  const std::uint64_t busy0 = received();
  for (int i = 0; i < 100; ++i) {
    (i % 2 == 0 ? a : b)->send(text_msg("m" + std::to_string(i)));
  }
  h.run_for(window);
  const std::uint64_t busy = received() - busy0;

  ASSERT_EQ(la.messages.size(), 100u);
  EXPECT_EQ(la.texts(), lb.texts());
  EXPECT_GT(idle, 0u);
  EXPECT_EQ(busy, idle);
}

TEST(GcsGroupScope, LateHostSeesSameChangeSeq) {
  // n0 and n1 host g. A fourth daemon starting forces an install, which
  // restarts g's change count; then n2, which has hosted nothing so far,
  // joins g. Its first view must be the one the existing hosts got for
  // the same join: same members, same change number.
  GcsHarness h(4);
  h.start(0);
  h.start(1);
  h.start(2);
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto a = h.daemon(0).join("g", l0.callbacks());
  auto b = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  const std::uint64_t views = h.daemon(0).stats().view_changes;
  h.start(3);
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)));
  ASSERT_GT(h.daemon(0).stats().view_changes, views);

  auto c = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_EQ(l2.views.size(), 1u);
  const GroupView& late = l2.views.front();
  EXPECT_EQ(late.members, (std::vector<GcsEndpoint>{
                              a->endpoint(), b->endpoint(), c->endpoint()}));
  for (const Listener* l : {&l0, &l1}) {
    ASSERT_GE(l->views.size(), 2u);
    const GroupView& host = l->views.back();
    EXPECT_EQ(late.members, host.members);
    EXPECT_EQ(late.change_seq, host.change_seq);
    EXPECT_EQ(late.daemon_view_counter, host.daemon_view_counter);
    // The install's view came first in the same daemon view, with a lower
    // change number, so the two never share a table-exchange tag.
    const GroupView& installed = l->views[l->views.size() - 2];
    EXPECT_EQ(installed.daemon_view_counter, host.daemon_view_counter);
    EXPECT_LT(installed.change_seq, host.change_seq);
  }
}

TEST(GcsGroupScope, NonHostingDaemonDeliversNoJoinOrLeave) {
  // g lives on n1 and n2. Neither the coordinator (n0) nor n3 hosts a
  // member, so neither delivers any of g's joins or leaves.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  ASSERT_EQ(h.daemon(1).view().id.coord, h.node(0));
  const std::uint64_t d0 = h.daemon(0).stats().messages_delivered;
  const std::uint64_t d3 = h.daemon(3).stats().messages_delivered;

  Listener la, lb;
  auto a = h.daemon(1).join("g", la.callbacks());
  auto b = h.daemon(2).join("g", lb.callbacks());
  h.run_for(sim::sec(1));
  a->leave();
  h.run_for(sim::sec(1));
  b->leave();
  h.run_for(sim::sec(1));

  // The hosts saw both joins and the first leave.
  ASSERT_FALSE(lb.views.empty());
  EXPECT_EQ(lb.views.back().members,
            std::vector<GcsEndpoint>{b->endpoint()});
  EXPECT_EQ(h.daemon(0).stats().messages_delivered, d0);
  EXPECT_EQ(h.daemon(3).stats().messages_delivered, d3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(h.daemon(i).stats().groups_held, 0u) << "daemon " << i;
  }
}

TEST(GcsGroupScope, NewCoordinatorRoutesToExactlyTheHosts) {
  // g lives on n2 and n3. The coordinator n0 dies; the new one, n1, hosts
  // nothing of g, yet routes g's next join and application message to
  // exactly g's hosts, from the table the install carried.
  GcsHarness h(5);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l2, l3, l3b;
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  auto m3 = h.daemon(3).join("g", l3.callbacks());
  h.run_for(sim::sec(1));
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::sec(1));
  ASSERT_EQ(h.daemon(2).view().id.coord, h.node(1));
  std::vector<std::uint64_t> before(5);
  for (int i = 1; i < 5; ++i) {
    before[i] = h.daemon(i).stats().messages_delivered;
  }

  auto m3b = h.daemon(3).join("g", l3b.callbacks());
  h.run_for(sim::sec(1));
  m2->send(text_msg("after"));
  h.run_for(sim::sec(1));

  EXPECT_EQ(h.daemon(1).stats().messages_delivered, before[1]);
  EXPECT_EQ(h.daemon(2).stats().messages_delivered, before[2] + 2);
  EXPECT_EQ(h.daemon(3).stats().messages_delivered, before[3] + 2);
  EXPECT_EQ(h.daemon(4).stats().messages_delivered, before[4]);
  const std::vector<GcsEndpoint> all{m2->endpoint(), m3->endpoint(),
                                     m3b->endpoint()};
  for (const Listener* l : {&l2, &l3, &l3b}) {
    ASSERT_FALSE(l->views.empty());
    EXPECT_EQ(l->views.back().members, all);
    EXPECT_EQ(l->views.back().change_seq, l2.views.back().change_seq);
    EXPECT_EQ(l->texts(), std::vector<std::string>{"after"});
  }
}

TEST(GcsGroupScope, DaemonWhoseLastMemberLeftGetsNoMoreGroupTraffic) {
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l1, l2, l3, l1b;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  auto m3 = h.daemon(3).join("g", l3.callbacks());
  h.run_for(sim::sec(1));
  m3->leave();
  h.run_for(sim::sec(1));
  EXPECT_EQ(h.daemon(3).stats().groups_held, 0u);
  EXPECT_TRUE(h.daemon(3).group_members("g").empty());
  const std::uint64_t d3 = h.daemon(3).stats().messages_delivered;

  // A message, a join and a leave of g: none of them reaches n3.
  m1->send(text_msg("x"));
  auto m1b = h.daemon(1).join("g", l1b.callbacks());
  m2->leave();
  h.run_for(sim::sec(1));

  EXPECT_EQ(l1.texts(), std::vector<std::string>{"x"});
  EXPECT_EQ(l1.views.back().members,
            (std::vector<GcsEndpoint>{m1->endpoint(), m1b->endpoint()}));
  EXPECT_TRUE(l3.messages.empty());
  EXPECT_EQ(h.daemon(3).stats().messages_delivered, d3);
}

TEST(GcsGroupScope, InstallDropsAGroupWhoseLastHandleLeftBeforeIt) {
  // n3's member of g leaves, but the leave never reaches the coordinator,
  // which then dies. n3 still hosts g in the old view; the install, built
  // from registrations, no longer lists it there, so n3 keeps no entry,
  // and the leave ordered in the new view changes nothing.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l1, l3;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m3 = h.daemon(3).join("g", l3.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_EQ(l1.views.back().members.size(), 2u);

  net::LinkQuality dead = net::lan_quality();
  dead.loss = 1.0;
  h.network().set_quality(h.node(0), h.node(3), dead);
  m3->leave();
  h.run_for(sim::msec(5));
  ASSERT_EQ(h.daemon(3).stats().groups_held, 1u);  // still a host
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::sec(1));

  EXPECT_EQ(h.daemon(3).stats().groups_held, 0u);
  EXPECT_EQ(l1.views.back().members,
            std::vector<GcsEndpoint>{m1->endpoint()});
}

TEST(GcsGroupScope, GroupsHeldReturnsToTheLiveGroupsAfterChurn) {
  // n1 opens and closes 1,000 session-style groups next to one long-lived
  // movie group it shares with n2. Each daemon's table then holds exactly
  // the groups that are still live on it.
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener lm1, lm2;
  auto movie1 = h.daemon(1).join("movie", lm1.callbacks());
  auto movie2 = h.daemon(2).join("movie", lm2.callbacks());
  h.run_for(sim::sec(1));

  constexpr int kSessions = 1000;
  std::vector<Listener> listeners(kSessions);
  std::vector<std::unique_ptr<GroupMember>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(h.daemon(1).join("session/" + std::to_string(i),
                                        listeners[i].callbacks()));
  }
  h.run_for(sim::sec(1));
  EXPECT_EQ(h.daemon(1).stats().groups_held, kSessions + 1u);
  EXPECT_EQ(listeners.back().views.size(), 1u);
  for (auto& s : sessions) s->leave();
  h.run_for(sim::sec(1));

  EXPECT_EQ(h.daemon(0).stats().groups_held, 0u);
  EXPECT_EQ(h.daemon(1).stats().groups_held, 1u);
  EXPECT_EQ(h.daemon(2).stats().groups_held, 1u);
  EXPECT_EQ(lm2.views.back().members,
            (std::vector<GcsEndpoint>{movie1->endpoint(), movie2->endpoint()}));
}

TEST(GcsGroupScope, LosslessSteadyStreamNeedsNoRetransmission) {
  // Eight daemons, four groups of two hosts each, every member streaming:
  // on a lossless LAN (jitter still reorders) nothing is ever re-sent.
  constexpr int kDaemons = 8;
  GcsHarness h(kDaemons);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(sim::sec(20)));
  std::vector<Listener> listeners(kDaemons);
  std::vector<std::unique_ptr<GroupMember>> members;
  for (int i = 0; i < kDaemons; ++i) {
    members.push_back(h.daemon(i).join("g" + std::to_string(i % 4),
                                       listeners[i].callbacks()));
  }
  h.run_for(sim::sec(1));

  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    for (auto& m : members) m->send(text_msg(std::to_string(round)));
    h.run_for(sim::msec(10));
  }
  h.run_for(sim::sec(1));

  std::uint64_t ordered = 0;
  std::uint64_t retransmissions = 0;
  for (int i = 0; i < kDaemons; ++i) {
    ordered += h.daemon(i).stats().messages_ordered;
    retransmissions += h.daemon(i).stats().retransmissions;
    // Each member sees its own and its one peer's stream.
    EXPECT_EQ(listeners[i].messages.size(), 2u * kRounds) << "daemon " << i;
    EXPECT_EQ(listeners[i].texts(), listeners[(i + 4) % kDaemons].texts());
  }
  EXPECT_GE(ordered, static_cast<std::uint64_t>(kDaemons) * kRounds);
  EXPECT_EQ(retransmissions, 0u);
}

}  // namespace
}  // namespace ftvod::gcs
