// Group-scoped delivery: an application message reaches only the daemons
// hosting its group (plus the sender), gap repair stays exact per
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
