#include "gcs/wire.hpp"

#include <gtest/gtest.h>

#include "util/frame.hpp"

namespace ftvod::gcs::wire {
namespace {

TEST(GcsWire, HeartbeatRoundTrip) {
  Heartbeat m;
  m.view = {7, 3};
  m.members = {1, 3, 9};
  m.delivered_upto = 42;
  m.safe_upto = 40;
  auto bytes = encode(m);
  EXPECT_EQ(peek_type(bytes), MsgType::kHeartbeat);
  auto d = decode_heartbeat(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->view, m.view);
  EXPECT_EQ(d->members, m.members);
  EXPECT_EQ(d->delivered_upto, 42u);
  EXPECT_EQ(d->safe_upto, 40u);
}

TEST(GcsWire, SubmitRoundTrip) {
  Submit m;
  m.view = {2, 1};
  m.sender_seq = 17;
  m.kind = PayloadKind::kJoin;
  m.group = "vod.movie.casablanca";
  m.origin = {5, 2};
  m.payload = {std::byte{1}, std::byte{2}};
  auto d = decode_submit(encode(m));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->size(), 1u);
  EXPECT_EQ(d->front().sender_seq, 17u);
  EXPECT_EQ(d->front().kind, PayloadKind::kJoin);
  EXPECT_EQ(d->front().group, m.group);
  EXPECT_EQ(d->front().origin, m.origin);
  EXPECT_EQ(d->front().payload, m.payload);
}

TEST(GcsWire, SubmitBatchRoundTrip) {
  std::vector<Submit> batch(3);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].view = {2, 1};
    batch[i].sender_seq = 40 + i;
    batch[i].group = "g" + std::to_string(i);
  }
  const util::Bytes bytes = encode(batch);
  auto d = decode_submit(bytes);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->size(), 3u);
  EXPECT_EQ((*d)[2].sender_seq, 42u);
  EXPECT_EQ((*d)[1].group, "g1");
  EXPECT_EQ(encode(*d), bytes);
  // An empty batch is never sent, so it is never accepted.
  EXPECT_EQ(decode_submit(encode(std::vector<Submit>{})), std::nullopt);
}

Ordered sample_ordered() {
  Ordered m;
  m.view = {9, 0};
  m.gseq = 1234;
  m.prev = 1200;
  m.dests = {2, 6, 11};
  m.sender = 6;
  m.sender_seq = 99;
  m.sender_prev = 1101;
  m.kind = PayloadKind::kApp;
  m.group = "g";
  m.origin = {6, 1};
  m.payload = {std::byte{0xFF}};
  return m;
}

TEST(GcsWire, OrderedRoundTrip) {
  const Ordered m = sample_ordered();
  const util::Bytes bytes = encode(m);
  auto batch = decode_ordered(bytes);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 1u);
  const Ordered& d = batch->front();
  EXPECT_EQ(d.gseq, 1234u);
  EXPECT_EQ(d.prev, 1200u);
  EXPECT_EQ(d.dests, m.dests);
  EXPECT_EQ(d.sender, 6u);
  EXPECT_EQ(d.sender_prev, 1101u);
  EXPECT_EQ(d.payload, m.payload);
  EXPECT_EQ(encode(*batch), bytes);
  EXPECT_TRUE(d.addressed_to(6));
  EXPECT_FALSE(d.addressed_to(7));
}

TEST(GcsWire, JoinCarriesChangeSeqAndMembersRoundTrip) {
  Ordered m = sample_ordered();
  m.kind = PayloadKind::kJoin;
  m.payload.clear();
  m.change_seq = 7;
  m.members = {{2, 1}, {2, 4}, {11, 3}};
  const util::Bytes bytes = encode(m);
  auto batch = decode_ordered(bytes);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 1u);
  const Ordered& d = batch->front();
  EXPECT_EQ(d.kind, PayloadKind::kJoin);
  EXPECT_EQ(d.change_seq, 7u);
  EXPECT_EQ(d.members, m.members);
  EXPECT_EQ(d.origin, m.origin);
  EXPECT_EQ(encode(*batch), bytes);
  EXPECT_EQ(bytes.size(), encode(sample_ordered()).size() + 3 * 8 - 1);

  // A leave carries its change number but no members.
  m.kind = PayloadKind::kLeave;
  m.members.clear();
  auto leave = decode_ordered(encode(m));
  ASSERT_TRUE(leave.has_value());
  EXPECT_EQ(leave->front().change_seq, 7u);
}

TEST(GcsWire, OrderedMembershipFieldsAreValidated) {
  Ordered join = sample_ordered();
  join.kind = PayloadKind::kJoin;
  join.change_seq = 2;
  join.members = {{2, 1}, {6, 1}};
  ASSERT_TRUE(decode_ordered(encode(join)).has_value());

  // Members belong to joins only, and a change number to joins and leaves.
  Ordered app = join;
  app.kind = PayloadKind::kApp;
  EXPECT_EQ(decode_ordered(encode(app)), std::nullopt);
  app.members.clear();
  EXPECT_EQ(decode_ordered(encode(app)), std::nullopt);  // change_seq 2
  app.change_seq = 0;
  EXPECT_TRUE(decode_ordered(encode(app)).has_value());
  Ordered leave = join;
  leave.kind = PayloadKind::kLeave;
  EXPECT_EQ(decode_ordered(encode(leave)), std::nullopt);

  // Members must be strictly ascending.
  Ordered unsorted = join;
  unsorted.members = {{6, 1}, {2, 1}};
  EXPECT_EQ(decode_ordered(encode(unsorted)), std::nullopt);
  Ordered repeated = join;
  repeated.members = {{2, 1}, {2, 1}};
  EXPECT_EQ(decode_ordered(encode(repeated)), std::nullopt);

  // An unknown kind is refused.
  Ordered odd = sample_ordered();
  odd.kind = static_cast<PayloadKind>(3);
  EXPECT_EQ(decode_ordered(encode(odd)), std::nullopt);
}

TEST(GcsWire, OrderedMemberCountBeyondTheDatagramRejected) {
  // Rewrite the member count of a sealed join to more than the remaining
  // bytes could hold, then re-seal so only the count is wrong.
  Ordered join = sample_ordered();
  join.kind = PayloadKind::kJoin;
  join.change_seq = 1;
  join.members = {{2, 1}};
  util::Writer w;
  begin_batch(w, MsgType::kOrdered);
  const std::size_t at = append(w, join);
  // The count follows everything before it: the fixed fields, the dests,
  // the group, the origin and the change number.
  const std::size_t count_at = at + 12 + 8 + 8 + 4 + 4 * join.dests.size() +
                               4 + 8 + 8 + 1 + 4 + join.group.size() + 8 + 4;
  w.patch_u32(count_at, 1'000'000);
  seal_batch(w);
  EXPECT_EQ(decode_ordered(w.buffer()), std::nullopt);
  w.patch_u32(count_at, 2);  // one more than there is, also too many
  seal_batch(w);
  EXPECT_EQ(decode_ordered(w.buffer()), std::nullopt);
  w.patch_u32(count_at, 1);
  seal_batch(w);
  ASSERT_TRUE(decode_ordered(w.buffer()).has_value());
  EXPECT_EQ(decode_ordered(w.buffer())->front().members, join.members);
}

TEST(GcsWire, PatchedFanOutCopiesMatchFreshEncodings) {
  // The coordinator encodes a message once and appends the bytes to each
  // destination's batch, patching `prev` per copy: every batch must equal
  // a fresh encoding of the same messages with those prevs.
  Ordered a = sample_ordered();
  Ordered b = sample_ordered();
  b.gseq = 1240;
  b.payload.assign(300, std::byte{9});
  util::Writer body;
  util::Writer w;
  begin_batch(w, MsgType::kOrdered);
  encode_body(a, body);
  patch_prev(w, append_body(w, body.buffer()), 7);
  encode_body(b, body);
  patch_prev(w, append_body(w, body.buffer()), 0x1'0000'0001ull);
  seal_batch(w);
  a.prev = 7;
  b.prev = 0x1'0000'0001ull;
  EXPECT_EQ(w.buffer(), encode(std::vector<Ordered>{a, b}));
  auto d = decode_ordered(w.buffer());
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->size(), 2u);
  EXPECT_EQ((*d)[0].prev, 7u);
  EXPECT_EQ((*d)[1].prev, 0x1'0000'0001ull);
  EXPECT_EQ((*d)[1].payload, b.payload);
}

TEST(GcsWire, EncodedSizeIsWhatAnAppendAdds) {
  util::Writer w;
  begin_batch(w, MsgType::kOrdered);
  Ordered o = sample_ordered();
  o.payload.assign(77, std::byte{1});
  std::size_t before = w.size();
  append(w, o);
  EXPECT_EQ(w.size() - before, encoded_size(o));
  o.kind = PayloadKind::kJoin;
  o.members = {{1, 1}, {2, 1}};
  before = w.size();
  append(w, o);
  EXPECT_EQ(w.size() - before, encoded_size(o));

  begin_batch(w, MsgType::kSubmit);
  Submit s;
  s.group = "vod.movie.x";
  s.payload.assign(13, std::byte{2});
  before = w.size();
  append(w, s);
  EXPECT_EQ(w.size() - before, encoded_size(s));
}

TEST(GcsWire, ProposeAndAckRoundTrip) {
  Propose p;
  p.pv = {12, 2};
  p.members = {2, 4, 6};
  auto dp = decode_propose(encode(p));
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->pv, p.pv);
  EXPECT_EQ(dp->members, p.members);

  ProposeAck a;
  a.pv = {12, 2};
  a.old_view = {11, 4};
  a.next_submit_seq = 5;
  a.regs = {{"g1", {2, 1}}, {"g2", {2, 3}}};
  auto da = decode_propose_ack(encode(a));
  ASSERT_TRUE(da.has_value());
  EXPECT_EQ(da->old_view, a.old_view);
  ASSERT_EQ(da->regs.size(), 2u);
  EXPECT_EQ(da->regs[1].group, "g2");
  EXPECT_EQ(da->regs[1].member, (GcsEndpoint{2, 3}));
}

TEST(GcsWire, FlushMessagesRoundTrip) {
  FlushTarget ft;
  ft.pv = {3, 1};
  ft.entries = {{{2, 1}, {1, 4, 5}}, {{1, 7}, {7}}, {{1, 9}, {}}};
  auto dft = decode_flush_target(encode(ft));
  ASSERT_TRUE(dft.has_value());
  ASSERT_EQ(dft->entries.size(), 3u);
  EXPECT_EQ(dft->entries[0].old_view, (ViewId{2, 1}));
  EXPECT_EQ(dft->entries[0].survivors, (std::vector<net::NodeId>{1, 4, 5}));
  EXPECT_EQ(dft->entries[1].survivors, (std::vector<net::NodeId>{7}));
  EXPECT_TRUE(dft->entries[2].survivors.empty());
  EXPECT_EQ(encode(*dft), encode(ft));

  FlushDone fd{{3, 1}, {4, 9}};
  auto dfd = decode_flush_done(encode(fd));
  ASSERT_TRUE(dfd.has_value());
  EXPECT_EQ(dfd->dropped, fd.dropped);
  EXPECT_EQ(encode(*dfd), encode(fd));
}

TEST(GcsWire, FlushExchangeRoundTrip) {
  const FlushReq req{{3, 1}, 41};
  EXPECT_EQ(peek_type(encode(req)), MsgType::kFlushReq);
  auto dreq = decode_flush_req(encode(req));
  ASSERT_TRUE(dreq.has_value());
  EXPECT_EQ(dreq->pv, req.pv);
  EXPECT_EQ(dreq->horizon, 41u);

  FlushReply reply;
  reply.pv = {3, 1};
  reply.part = 1;
  reply.parts = 3;
  reply.safe_upto = 1190;
  reply.held = {{1200, 0, true}, {1234, 1101, false}};
  reply.msgs = {sample_ordered(), sample_ordered()};
  reply.msgs[1].gseq = 1300;
  const util::Bytes reply_bytes = encode(reply);
  EXPECT_EQ(peek_type(reply_bytes), MsgType::kFlushReply);
  auto drep = decode_flush_reply(reply_bytes);
  ASSERT_TRUE(drep.has_value());
  EXPECT_EQ(drep->pv, reply.pv);
  EXPECT_EQ(drep->part, 1u);
  EXPECT_EQ(drep->parts, 3u);
  EXPECT_EQ(drep->safe_upto, 1190u);
  ASSERT_EQ(drep->held.size(), 2u);
  EXPECT_EQ(drep->held[0].gseq, 1200u);
  EXPECT_TRUE(drep->held[0].delivered);
  EXPECT_EQ(drep->held[1].sender_prev, 1101u);
  EXPECT_FALSE(drep->held[1].delivered);
  ASSERT_EQ(drep->msgs.size(), 2u);
  EXPECT_EQ(drep->msgs[0].dests, reply.msgs[0].dests);
  EXPECT_EQ(drep->msgs[1].gseq, 1300u);
  EXPECT_EQ(drep->msgs[1].payload, reply.msgs[1].payload);
  EXPECT_EQ(encode(*drep), reply_bytes);
  // A reply is not an Ordered, and the other way round.
  EXPECT_EQ(decode_ordered(reply_bytes), std::nullopt);
  EXPECT_EQ(decode_flush_reply(encode(sample_ordered())), std::nullopt);

  // A part past the count, or a header flag other than 0/1, is malformed.
  FlushReply bad = reply;
  bad.part = 3;
  EXPECT_EQ(decode_flush_reply(encode(bad)), std::nullopt);
  util::Writer w;
  encode_into(FlushReply{{3, 1}, 0, 1, 0, {{5, 4, true}}, {}}, w);
  util::Bytes flag = w.take();
  // The flag is the last header byte, before the 4-byte message count.
  flag[flag.size() - 5] = std::byte{2};
  util::Writer resealed;
  util::frame_begin(resealed);
  resealed.raw(std::span<const std::byte>(flag).subspan(
      util::kIntegrityHeaderBytes));
  util::frame_seal(resealed);
  EXPECT_EQ(decode_flush_reply(resealed.buffer()), std::nullopt);
}

TEST(GcsWire, InstallRoundTrip) {
  Install m;
  m.pv = {20, 0};
  m.members = {0, 1, 2};
  m.group_table = {{"movie.x", {1, 4}}};
  m.submit_seqs = {{0, 10}, {1, 1}, {2, 55}};
  auto d = decode_install(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->members, m.members);
  ASSERT_EQ(d->group_table.size(), 1u);
  EXPECT_EQ(d->group_table[0].group, "movie.x");
  ASSERT_EQ(d->submit_seqs.size(), 3u);
  EXPECT_EQ(d->submit_seqs[2], (std::pair<net::NodeId, std::uint64_t>{2, 55}));
}

TEST(GcsWire, EncodeIntoAUsedWriterMatchesAFreshEncode) {
  // encode_into() clears the writer first: every message type encodes the
  // same into a writer that already holds another message as
  // encode() does into a fresh buffer.
  util::Writer w;
  const auto check = [&w](const auto& m) {
    encode_into(m, w);
    EXPECT_EQ(w.buffer(), encode(m));
  };
  Install install;
  install.pv = {20, 0};
  install.members = {0, 1, 2};
  install.group_table = {{"movie.x", {1, 4}}, {"movie.y", {2, 1}}};
  install.submit_seqs = {{0, 10}, {1, 1}, {2, 55}};
  check(install);
  check(Heartbeat{{7, 3}, {1, 3, 9}, 42, 40});
  check(RetransReq{{7, 3}, 11, 19});
  check(Propose{{12, 2}, {2, 4, 6}});
  ProposeAck ack;
  ack.pv = {12, 2};
  ack.old_view = {11, 4};
  ack.next_submit_seq = 5;
  ack.regs = {{"g1", {2, 1}}};
  check(ack);
  FlushTarget ft;
  ft.pv = {3, 1};
  ft.entries = {{{2, 1}, {1, 4, 5}}};
  check(ft);
  check(FlushReq{{3, 1}, 41});
  check(FlushReply{{3, 1}, 0, 1, 1190, {{1200, 0, true}}, {}});
  check(FlushDone{{3, 1}, {4, 9}});
}

TEST(GcsWire, WrongTypeRejected) {
  Heartbeat hb;
  auto bytes = encode(hb);
  EXPECT_EQ(decode_submit(bytes), std::nullopt);
  EXPECT_EQ(decode_install(bytes), std::nullopt);
}

TEST(GcsWire, TruncatedRejected) {
  Ordered m;
  m.group = "group";
  m.payload = util::Bytes(100, std::byte{7});
  auto bytes = encode(m);
  for (std::size_t cut : {1ul, 5ul, bytes.size() / 2, bytes.size() - 1}) {
    auto truncated =
        std::span<const std::byte>(bytes.data(), bytes.size() - cut);
    EXPECT_EQ(decode_ordered(truncated), std::nullopt) << "cut=" << cut;
  }
}

TEST(GcsWire, TrailingGarbageRejected) {
  FlushDone fd{{1, 1}, {2}};
  auto bytes = encode(fd);
  bytes.push_back(std::byte{0});
  EXPECT_EQ(decode_flush_done(bytes), std::nullopt);
}

TEST(GcsWire, PeekTypeOnGarbage) {
  EXPECT_EQ(peek_type({}), std::nullopt);
  util::Bytes junk{std::byte{200}};
  EXPECT_EQ(peek_type(junk), std::nullopt);
}

}  // namespace
}  // namespace ftvod::gcs::wire
