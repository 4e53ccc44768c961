#include "vod/wire.hpp"

#include <gtest/gtest.h>

namespace ftvod::vod::wire {
namespace {

TEST(VodWire, OpenRequestRoundTrip) {
  OpenRequest m{42, "casablanca", {3, 9100}, 15.0};
  auto d = decode_open_request(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->client_id, 42u);
  EXPECT_EQ(d->movie, "casablanca");
  EXPECT_EQ(d->data_endpoint, (net::Endpoint{3, 9100}));
  EXPECT_DOUBLE_EQ(d->capability_fps, 15.0);
}

TEST(VodWire, OpenReplyRoundTrip) {
  OpenReply m{42, "casablanca", 30.0, 180'000, 5833};
  auto d = decode_open_reply(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->frame_count, 180'000u);
  EXPECT_EQ(d->avg_frame_bytes, 5833u);
}

TEST(VodWire, FlowRoundTripBothDirections) {
  for (std::int8_t delta : {std::int8_t{+1}, std::int8_t{-1}}) {
    Flow m{7, delta};
    auto d = decode_flow(encode(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->delta, delta);
  }
}

TEST(VodWire, EmergencyTiers) {
  for (std::uint8_t tier : {1, 2}) {
    Emergency m{7, tier};
    auto d = decode_emergency(encode(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->tier, tier);
  }
}

TEST(VodWire, VcrOps) {
  for (VcrOp op : {VcrOp::kPause, VcrOp::kResume, VcrOp::kSeek, VcrOp::kStop}) {
    Vcr m{9, op, 12345};
    auto d = decode_vcr(encode(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->op, op);
    EXPECT_EQ(d->seek_frame, 12345u);
  }
}

TEST(VodWire, StateSyncRoundTrip) {
  StateSync m;
  m.movie = "m";
  m.clients = {
      {1, {2, 9100}, 555, 31.0, 0.0, 0.0, false},
      {2, {3, 9100}, 777, 29.0, 15.0, 15.0, true},
  };
  m.orphans = {{{3, {4, 9100}, 888, 30.0, 0.0, 0.0, false}, 17}};
  auto d = decode_state_sync(encode(m));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->clients.size(), 2u);
  EXPECT_EQ(d->clients[0].next_frame, 555u);
  EXPECT_DOUBLE_EQ(d->clients[1].quality_fps, 15.0);
  EXPECT_TRUE(d->clients[1].paused);
  ASSERT_EQ(d->orphans.size(), 1u);
  EXPECT_EQ(d->orphans[0].rec.next_frame, 888u);
  EXPECT_EQ(d->orphans[0].owner, 17u);
}

TEST(VodWire, EmptyStateSync) {
  StateSync m;
  m.movie = "empty";
  auto d = decode_state_sync(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->clients.empty());
}

TEST(VodWire, FrameRoundTripAndHeaderSize) {
  Frame m{88, 4242, mpeg::FrameType::kB, 2800};
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  auto d = decode_frame(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->frame_index, 4242u);
  EXPECT_EQ(d->type, mpeg::FrameType::kB);
  EXPECT_EQ(d->size_bytes, 2800u);
}

TEST(VodWire, EncodeIntoAUsedWriterMatchesAFreshEncode) {
  // encode_into() clears the writer first: every message type encodes the
  // same into a writer that already holds another message as
  // encode() does into a fresh buffer.
  util::Writer w;
  const auto check = [&w](const auto& m) {
    encode_into(m, w);
    EXPECT_EQ(w.buffer(), encode(m));
  };
  StateSync sync;
  sync.movie = "m";
  sync.clients = {{1, {2, 9100}, 555, 31.0, 0.0, 0.0, false},
                  {2, {3, 9100}, 777, 29.0, 15.0, 15.0, true}};
  check(sync);
  check(OpenRequest{42, "casablanca", {3, 9100}, 15.0});
  check(OpenReply{42, "casablanca", 30.0, 180'000, 5833});
  check(Flow{7, -1});
  check(Emergency{7, 2});
  check(Vcr{9, VcrOp::kSeek, 12345});
  check(SetQuality{});
  check(Frame{88, 4242, mpeg::FrameType::kB, 2800});
}

TEST(VodWire, CrossDecodeRejected) {
  Flow m{7, +1};
  const auto bytes = encode(m);
  EXPECT_EQ(decode_vcr(bytes), std::nullopt);
  EXPECT_EQ(decode_frame(bytes), std::nullopt);
  EXPECT_EQ(peek_type(bytes), MsgType::kFlow);
}

TEST(VodWire, TruncationRejected) {
  StateSync m;
  m.movie = "m";
  m.clients.resize(3);
  auto bytes = encode(m);
  bytes.resize(bytes.size() / 2);
  EXPECT_EQ(decode_state_sync(bytes), std::nullopt);
}

TEST(VodWire, GarbageRejected) {
  util::Bytes junk{std::byte{99}, std::byte{1}, std::byte{2}};
  EXPECT_EQ(peek_type(junk), std::nullopt);
  EXPECT_EQ(decode_open_request(junk), std::nullopt);
}

}  // namespace
}  // namespace ftvod::vod::wire
