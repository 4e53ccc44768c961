// Normal-operation GCS tests: group membership, ordered delivery, FIFO,
// total order, retransmission under loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gcs_harness.hpp"

namespace ftvod::gcs {
namespace {

using testing::GcsHarness;
using testing::Listener;
using testing::text_msg;

TEST(GcsDaemon, SingleDaemonSelfDelivery) {
  GcsHarness h(1);
  h.start_all();
  Listener lis;
  auto m = h.daemon(0).join("g", lis.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_FALSE(lis.views.empty());
  EXPECT_EQ(lis.views.back().members.size(), 1u);
  EXPECT_EQ(lis.views.back().members[0], m->endpoint());

  m->send(text_msg("hello"));
  h.run_for(sim::sec(1));
  ASSERT_EQ(lis.messages.size(), 1u);
  EXPECT_EQ(lis.messages[0].text, "hello");
  EXPECT_EQ(lis.messages[0].from, m->endpoint());
}

TEST(GcsDaemon, FirstViewIsItsOwnSingleton) {
  // A daemon starts in the view {self} its constructor builds, unblocked,
  // and orders for itself at once: no peer has to answer first.
  GcsHarness h(2);
  Daemon& d = h.start(1);
  EXPECT_EQ(d.view().id, (ViewId{1, h.node(1)}));
  EXPECT_EQ(d.view().members, std::vector<net::NodeId>{h.node(1)});
  EXPECT_FALSE(d.blocked());

  Listener lis;
  auto m = d.join("g", lis.callbacks());
  m->send(text_msg("solo"));
  h.run_for(sim::msec(100));
  ASSERT_EQ(lis.messages.size(), 1u);
  EXPECT_EQ(lis.messages[0].text, "solo");
  EXPECT_EQ(d.view().id, (ViewId{1, h.node(1)}));
}

TEST(GcsDaemon, CoordinatorDeliversNothingBeforeJoinOrSendReturns) {
  // The coordinator orders its own submissions after the event, as it does
  // every other daemon's: a caller that stores the handle join() returns
  // sees the group's first view through it, and a send is never delivered
  // back inside the call.
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  int coord = 0;
  while (h.node(coord) != h.daemon(0).view().id.coord) ++coord;

  Listener lis;
  std::unique_ptr<GroupMember> m;
  bool handle_stored_at_first_view = false;
  GroupCallbacks cb = lis.callbacks();
  cb.on_view = [&](const GroupView& v) {
    if (lis.views.empty()) handle_stored_at_first_view = m != nullptr;
    lis.views.push_back(v);
  };
  m = h.daemon(coord).join("g", cb);
  EXPECT_TRUE(lis.views.empty());
  m->send(text_msg("x"));
  EXPECT_TRUE(lis.messages.empty());

  h.run_for(sim::sec(1));
  ASSERT_EQ(lis.views.size(), 1u);
  EXPECT_TRUE(handle_stored_at_first_view);
  EXPECT_EQ(lis.views[0].members,
            (std::vector<GcsEndpoint>{m->endpoint()}));
  EXPECT_EQ(lis.texts(), (std::vector<std::string>{"x"}));
}

TEST(GcsDaemon, TwoDaemonsConvergeToOneView) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  EXPECT_EQ(h.daemon(0).view().members.size(), 2u);
  EXPECT_EQ(h.daemon(0).view().id, h.daemon(1).view().id);
}

TEST(GcsDaemon, FiveDaemonsConverge) {
  GcsHarness h(5);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(h.daemon(i).view().members.size(), 5u);
  }
}

TEST(GcsDaemon, GroupMessageReachesAllMembers) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("movie", l0.callbacks());
  auto m1 = h.daemon(1).join("movie", l1.callbacks());
  auto m2 = h.daemon(2).join("movie", l2.callbacks());
  h.run_for(sim::sec(1));

  m0->send(text_msg("from0"));
  m1->send(text_msg("from1"));
  h.run_for(sim::sec(1));

  for (Listener* l : {&l0, &l1, &l2}) {
    EXPECT_EQ(l->texts(), (std::vector<std::string>{"from0", "from1"}));
  }
}

TEST(GcsDaemon, JoinViewsSeenByAll) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_FALSE(l0.views.empty());
  EXPECT_EQ(l0.views.back().members.size(), 1u);

  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.views.back().members.size(), 2u);
  EXPECT_EQ(l1.views.back().members.size(), 2u);
  EXPECT_EQ(l0.views.back().members, l1.views.back().members);
}

TEST(GcsDaemon, LeaveShrinksView) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_EQ(l0.views.back().members.size(), 2u);

  m1->leave();
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.views.back().members.size(), 1u);
  EXPECT_EQ(l0.views.back().members[0], m0->endpoint());
  EXPECT_FALSE(m1->active());
}

TEST(GcsDaemon, HandleDestructionLeaves) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  {
    auto m1 = h.daemon(1).join("g", l1.callbacks());
    h.run_for(sim::sec(1));
    ASSERT_EQ(l0.views.back().members.size(), 2u);
  }
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.views.back().members.size(), 1u);
}

TEST(GcsDaemon, FifoPerSender) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  for (int i = 0; i < 50; ++i) m0->send(text_msg("m" + std::to_string(i)));
  h.run_for(sim::sec(2));
  ASSERT_EQ(l1.messages.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(l1.messages[i].text, "m" + std::to_string(i));
  }
}

TEST(GcsDaemon, TotalOrderAcrossSenders) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));
  // Interleaved concurrent sends from all members.
  for (int i = 0; i < 20; ++i) {
    m0->send(text_msg("a" + std::to_string(i)));
    m1->send(text_msg("b" + std::to_string(i)));
    m2->send(text_msg("c" + std::to_string(i)));
  }
  h.run_for(sim::sec(3));
  ASSERT_EQ(l0.messages.size(), 60u);
  EXPECT_EQ(l0.texts(), l1.texts());
  EXPECT_EQ(l0.texts(), l2.texts());
}

TEST(GcsDaemon, NonMemberSendReachesGroup) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0;
  auto m0 = h.daemon(0).join("servers", l0.callbacks());
  h.run_for(sim::sec(1));
  h.daemon(1).send_to_group("servers", text_msg("request"));
  h.run_for(sim::sec(1));
  ASSERT_EQ(l0.messages.size(), 1u);
  EXPECT_EQ(l0.messages[0].text, "request");
  EXPECT_EQ(l0.messages[0].from.node, h.node(1));
  EXPECT_EQ(l0.messages[0].from.local, 0u);  // non-member marker
}

TEST(GcsDaemon, SubmitFromOutsideTheViewIsNotOrdered) {
  // The coordinator orders only for the members of its view: a Submit
  // from a host outside it is dropped, the same one from a member is not.
  GcsHarness h(3);
  h.start(0);
  h.start(1);
  ASSERT_TRUE(h.run_until_converged());
  const ViewId view = h.daemon(0).view().id;
  const int coord = view.coord == h.node(0) ? 0 : 1;
  const int member = 1 - coord;
  Listener lis;
  auto m = h.daemon(coord).join("g", lis.callbacks());
  h.run_for(sim::sec(1));
  const auto ordered = h.daemon(coord).stats().messages_ordered;

  const auto submit_from = [&](int host, std::uint16_t port) {
    auto sock = h.network().bind(
        h.node(host), port,
        [](const net::Endpoint&, std::span<const std::byte>) {});
    wire::Submit s;
    s.view = view;
    s.sender_seq = 1;
    s.group = "g";
    s.origin = GcsEndpoint{h.node(host), 0};
    s.payload = text_msg("forged");
    sock->send(net::Endpoint{h.node(coord), h.config().port}, wire::encode(s));
    h.run_for(sim::msec(200));
  };
  submit_from(2, h.config().port);
  EXPECT_TRUE(lis.messages.empty());
  EXPECT_EQ(h.daemon(coord).stats().messages_ordered, ordered);

  submit_from(member, h.config().port + 1);
  ASSERT_EQ(lis.messages.size(), 1u);
  EXPECT_EQ(lis.messages[0].text, "forged");
  EXPECT_EQ(h.daemon(coord).stats().messages_ordered, ordered + 1);
}

TEST(GcsDaemon, SubmitWithUnknownKindIsNotOrdered) {
  // A Submit whose kind no daemon knows is malformed at the coordinator.
  // Ordered, it would poison every batch that carried it: each destination
  // rejects the whole datagram, and a re-send is the same datagram.
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  const ViewId view = h.daemon(0).view().id;
  int coord = 0;
  while (h.node(coord) != view.coord) ++coord;
  const int member = (coord + 1) % 3;
  const int idle = (coord + 2) % 3;
  Listener lis;
  auto m = h.daemon(member).join("g", lis.callbacks());
  h.run_for(sim::sec(1));
  const auto ordered = h.daemon(coord).stats().messages_ordered;
  const auto malformed = h.daemon(coord).stats().malformed_dropped;

  auto sock = h.network().bind(
      h.node(idle), h.config().port + 1,
      [](const net::Endpoint&, std::span<const std::byte>) {});
  wire::Submit s;
  s.view = view;
  s.sender_seq = 1;
  s.kind = static_cast<wire::PayloadKind>(3);
  s.group = "g";
  s.origin = GcsEndpoint{h.node(idle), 0};
  s.payload = text_msg("forged");
  sock->send(net::Endpoint{h.node(coord), h.config().port}, wire::encode(s));
  h.run_for(sim::msec(200));
  EXPECT_EQ(h.daemon(coord).stats().messages_ordered, ordered);
  EXPECT_EQ(h.daemon(coord).stats().malformed_dropped, malformed + 1);

  // The group's order goes on: a later message still reaches the member.
  h.daemon(idle).send_to_group("g", text_msg("after"));
  h.run_for(sim::sec(1));
  ASSERT_EQ(lis.messages.size(), 1u);
  EXPECT_EQ(lis.messages[0].text, "after");
}

TEST(GcsDaemon, GroupsAreIsolated) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener la, lb;
  auto ma = h.daemon(0).join("a", la.callbacks());
  auto mb = h.daemon(1).join("b", lb.callbacks());
  h.run_for(sim::sec(1));
  ma->send(text_msg("for-a"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(la.messages.size(), 1u);
  EXPECT_TRUE(lb.messages.empty());
  EXPECT_EQ(la.views.back().members.size(), 1u);
  EXPECT_EQ(lb.views.back().members.size(), 1u);
}

TEST(GcsDaemon, SendImmediatelyAfterJoinIsOrderedAfterJoin) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  h.run_for(sim::sec(1));
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  m1->send(text_msg("eager"));  // before its join view arrives
  h.run_for(sim::sec(1));
  ASSERT_EQ(l1.messages.size(), 1u);
  // The join view must have been delivered before the message.
  ASSERT_FALSE(l1.views.empty());
  EXPECT_TRUE(l1.views.front().contains(m1->endpoint()));
  EXPECT_EQ(l0.messages.size(), 1u);
}

TEST(GcsDaemon, MessagesDeliveredUnderLoss) {
  net::LinkQuality lossy = net::lan_quality();
  lossy.loss = 0.15;
  GcsHarness h(3, lossy);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(sim::sec(30)));
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(2));
  for (int i = 0; i < 30; ++i) m0->send(text_msg("m" + std::to_string(i)));
  h.run_for(sim::sec(10));
  // Reliable multicast: despite 15% loss, everything arrives, in order.
  EXPECT_EQ(l1.messages.size(), 30u);
  EXPECT_EQ(l2.messages.size(), 30u);
  EXPECT_EQ(l1.texts(), l2.texts());
}

TEST(GcsDaemon, LargePayloadRoundTrip) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  m0->send(text_msg(std::string(50'000, 'z')));
  h.run_for(sim::sec(2));
  ASSERT_EQ(l1.messages.size(), 1u);
  EXPECT_EQ(l1.messages[0].text.size(), 50'000u);
}

TEST(GcsDaemon, GroupMembersQueryTracksTable) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  EXPECT_EQ(h.daemon(0).group_members("g").size(), 2u);
  EXPECT_EQ(h.daemon(1).group_members("g").size(), 2u);
  EXPECT_TRUE(h.daemon(0).group_members("nonexistent").empty());
}

TEST(GcsDaemon, ControlBandwidthIsModest) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  const std::uint64_t before = h.daemon(0).socket_stats().bytes_sent;
  h.run_for(sim::sec(10));
  const std::uint64_t idle_bytes =
      h.daemon(0).socket_stats().bytes_sent - before;
  // Idle daemon overhead is heartbeats only: well under 10 KB/s.
  EXPECT_LT(idle_bytes, 100'000u);
}

}  // namespace
}  // namespace ftvod::gcs
