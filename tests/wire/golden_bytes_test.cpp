// Pins the wire format: the exact bytes of one fixed sample of every GCS
// and VoD message type, of a Submit batch and of a patched Ordered fan-out
// batch. Any change to a field's width, order or encoding, to a tag, or to
// the integrity frame shows up here as a hex diff.
#include <gtest/gtest.h>

#include <string>

#include "gcs/wire.hpp"
#include "vod/wire.hpp"

namespace ftvod {
namespace {

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    const auto v = std::to_integer<unsigned>(b);
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xF]);
  }
  return out;
}

util::Bytes bytes_of(std::string_view s) {
  util::Bytes b;
  for (char c : s) b.push_back(static_cast<std::byte>(c));
  return b;
}

gcs::wire::Ordered sample_ordered() {
  gcs::wire::Ordered m;
  m.view = {9, 2};
  m.gseq = 1234;
  m.prev = 1200;
  m.dests = {2, 6, 11};
  m.sender = 6;
  m.sender_seq = 99;
  m.sender_prev = 1101;
  m.kind = gcs::wire::PayloadKind::kJoin;
  m.group = "g.m";
  m.origin = {6, 1};
  m.change_seq = 7;
  m.members = {{2, 1}, {11, 3}};
  m.payload = bytes_of("ab");
  return m;
}

TEST(WireGolden, GcsMessages) {
  using namespace gcs::wire;
  Submit submit;
  submit.view = {2, 1};
  submit.sender_seq = 17;
  submit.kind = PayloadKind::kLeave;
  submit.group = "grp";
  submit.origin = {5, 2};
  submit.payload = bytes_of("xyz");

  ProposeAck ack;
  ack.pv = {12, 2};
  ack.old_view = {11, 4};
  ack.next_submit_seq = 5;
  ack.regs = {{"g1", {2, 1}}, {"g2", {3, 7}}};

  FlushTarget target;
  target.pv = {3, 1};
  target.entries = {{{2, 1}, {1, 4}}, {{1, 7}, {}}};

  FlushReply reply;
  reply.pv = {3, 1};
  reply.part = 1;
  reply.parts = 2;
  reply.safe_upto = 1190;
  reply.held = {{1200, 0, true}, {1234, 1101, false}};
  reply.msgs = {sample_ordered()};

  Install install;
  install.pv = {20, 0};
  install.members = {0, 1};
  install.group_table = {{"mv", {1, 4}}};
  install.submit_seqs = {{0, 10}, {1, 0x1'0000'0002ull}};

  EXPECT_EQ(hex(encode(Heartbeat{{7, 3}, {1, 3, 9}, 42, 40})),
            "2d000000ef8af9fc010700000000000000030000000300000001000000030000"
            "00090000002a000000000000002800000000000000");
  EXPECT_EQ(hex(encode(submit)),
            "30000000b2aba6d3020100000002000000000000000100000011000000000000"
            "00020300000067727005000000020000000300000078797a");
  EXPECT_EQ(hex(encode(sample_ordered())),
            "730000002e8e62d30301000000090000000000000002000000d2040000000000"
            "00b0040000000000000300000002000000060000000b00000006000000630000"
            "00000000004d040000000000000103000000672e6d0600000001000000070000"
            "000200000002000000010000000b00000003000000020000006162");
  EXPECT_EQ(hex(encode(RetransReq{{7, 3}, 11, 19})),
            "1d000000ee961266040700000000000000030000000b00000000000000130000"
            "0000000000");
  EXPECT_EQ(hex(encode(Propose{{12, 2}, {2, 4, 6}})),
            "1d000000cb2cc516050c00000000000000020000000300000002000000040000"
            "0006000000");
  EXPECT_EQ(hex(encode(ack)),
            "41000000595a395e060c00000000000000020000000b00000000000000040000"
            "0005000000000000000200000002000000673102000000010000000200000067"
            "320300000007000000");
  EXPECT_EQ(hex(encode(target)),
            "3900000099ee2ad0070300000000000000010000000200000002000000000000"
            "0001000000020000000100000004000000010000000000000007000000000000"
            "00");
  EXPECT_EQ(hex(encode(FlushReq{{3, 1}, 41})),
            "15000000b0a4afd20a0300000000000000010000002900000000000000");
  EXPECT_EQ(hex(encode(reply)),
            "b5000000d9c9d3760b0300000000000000010000000100000002000000a60400"
            "000000000002000000b004000000000000000000000000000001d20400000000"
            "00004d040000000000000001000000090000000000000002000000d204000000"
            "000000b0040000000000000300000002000000060000000b0000000600000063"
            "000000000000004d040000000000000103000000672e6d060000000100000007"
            "0000000200000002000000010000000b00000003000000020000006162");
  EXPECT_EQ(hex(encode(FlushDone{{3, 1}, {4, 9}})),
            "19000000574a3438080300000000000000010000000200000004000000090000"
            "00");
  EXPECT_EQ(hex(encode(install)),
            "470000001c7ed43d091400000000000000000000000200000000000000010000"
            "0001000000020000006d76010000000400000002000000000000000a00000000"
            "000000010000000200000001000000");
}

TEST(WireGolden, SubmitBatch) {
  using namespace gcs::wire;
  std::vector<Submit> batch(2);
  batch[0].view = {2, 1};
  batch[0].sender_seq = 40;
  batch[0].group = "a";
  batch[0].origin = {5, 1};
  batch[1] = batch[0];
  batch[1].sender_seq = 41;
  batch[1].kind = PayloadKind::kJoin;
  batch[1].payload = bytes_of("p");
  EXPECT_EQ(hex(encode(batch)),
            "52000000e239fed6020200000002000000000000000100000028000000000000"
            "0000010000006105000000010000000000000002000000000000000100000029"
            "0000000000000001010000006105000000010000000100000070");
}

TEST(WireGolden, PatchedOrderedFanOutBatch) {
  using namespace gcs::wire;
  Ordered a = sample_ordered();
  Ordered b = sample_ordered();
  b.gseq = 1240;
  b.kind = PayloadKind::kApp;
  b.change_seq = 0;
  b.members.clear();
  util::Writer body;
  util::Writer w;
  begin_batch(w, MsgType::kOrdered);
  encode_body(a, body);
  patch_prev(w, append_body(w, body.buffer()), 7);
  encode_body(b, body);
  patch_prev(w, append_body(w, body.buffer()), 0x1'0000'0001ull);
  seal_batch(w);
  EXPECT_EQ(hex(w.buffer()),
            "d1000000c7f697ca0302000000090000000000000002000000d2040000000000"
            "0007000000000000000300000002000000060000000b00000006000000630000"
            "00000000004d040000000000000103000000672e6d0600000001000000070000"
            "000200000002000000010000000b000000030000000200000061620900000000"
            "00000002000000d8040000000000000100000001000000030000000200000006"
            "0000000b0000000600000063000000000000004d040000000000000003000000"
            "672e6d06000000010000000000000000000000020000006162");
}

TEST(WireGolden, VodMessages) {
  using namespace vod::wire;
  StateSync sync;
  sync.movie = "m1";
  sync.exchange_tag = 3;
  sync.clients = {{1, {2, 9100}, 555, 31.5, 0.0, 15.0, false},
                  {2, {3, 9101}, 777, 29.0, 15.0, 15.0, true}};
  sync.orphans = {{{4, {5, 9102}, 888, 30.0, 0.0, 0.0, true}, 17}};

  EXPECT_EQ(hex(encode(OpenRequest{42, "casablanca", {3, 9100}, 15.0})),
            "25000000576db943012a000000000000000a00000063617361626c616e636103"
            "0000008c230000000000002e40");
  EXPECT_EQ(hex(encode(OpenReply{42, "casablanca", 30.0, 180'000, 5833})),
            "2b00000074a7e48e022a000000000000000a00000063617361626c616e636100"
            "00000000003e4020bf020000000000c9160000");
  EXPECT_EQ(hex(encode(Flow{7, -1})),
            "0a0000003e97d6d1030700000000000000ff");
  EXPECT_EQ(hex(encode(Emergency{7, 2})),
            "0a000000013bebe604070000000000000002");
  EXPECT_EQ(hex(encode(Vcr{9, VcrOp::kSeek, 12345})),
            "1200000004742c6a050900000000000000033930000000000000");
  EXPECT_EQ(hex(encode(SetQuality{9, 12.5})),
            "11000000729bf4d40609000000000000000000000000002940");
  EXPECT_EQ(hex(encode(sync)),
            "a8000000561469cc07020000006d310300000000000000020000000100000000"
            "000000020000008c232b020000000000000000000000803f4000000000000000"
            "000000000000002e40000200000000000000030000008d230903000000000000"
            "0000000000003d400000000000002e400000000000002e400101000000040000"
            "0000000000050000008e2378030000000000000000000000003e400000000000"
            "00000000000000000000000111000000");
  EXPECT_EQ(hex(encode(Frame{88, 4242, mpeg::FrameType::kB, 2800})),
            "16000000f0e0218e085800000000000000921000000000000002f00a0000");
}

}  // namespace
}  // namespace ftvod
