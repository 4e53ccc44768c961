// Table tests over every wire type's field list: the sizer agrees with the
// writer, a default value is the smallest encoding, and the reader rejects
// what no encoder sends: a forged list count, trailing bytes, a bool byte
// other than 0 or 1, and every value a field list's rules exclude.
#include <gtest/gtest.h>

#include <limits>
#include <typeinfo>
#include <vector>

#include "gcs/wire.hpp"
#include "testing/counting_alloc.hpp"
#include "vod/wire.hpp"

namespace ftvod {
namespace {

/// A writer that records, for every list count it writes, the count's byte
/// offset and the smallest encoding of the list's element.
class CountRecorder {
 public:
  static constexpr bool kReading = false;
  struct Count {
    std::size_t at;
    std::size_t min_elem;
  };

  explicit CountRecorder(util::Writer& w) : w_(w) {}

  template <class... Ts>
  void operator()(const Ts&... vs) {
    (util::field(*this, const_cast<Ts&>(vs)), ...);
  }
  template <std::unsigned_integral U>
  void word(U v) {
    w_.word(v);
  }
  template <class Elem>
  std::size_t count(std::size_t n) {
    counts_.push_back({w_.size(), util::min_encoded_size<Elem>()});
    return w_.count<Elem>(n);
  }
  void bytes(const std::byte* p, std::size_t n) { w_.bytes(p, n); }
  void check(bool) {}

  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

 private:
  util::Writer& w_;
  std::vector<Count> counts_;
};

/// `bytes` with its integrity header recomputed, so only the body's edit
/// can make a decoder reject it.
util::Bytes reseal(const util::Bytes& bytes) {
  util::Writer w;
  w.raw(bytes);
  util::frame_seal(w);
  return w.take();
}

/// Checks one datagram type: `sample` is a message, or a vector of batch
/// messages, and `tag` its type tag.
template <class T, class Tag, class Decode>
void check_layout(const T& sample, Tag tag, Decode decode) {
  util::Writer w;
  util::begin_tagged(w, tag);
  CountRecorder rec(w);
  rec(sample);
  util::frame_seal(w);
  const util::Bytes bytes = w.take();

  EXPECT_EQ(bytes, encode(sample));
  EXPECT_EQ(bytes.size(),
            util::kIntegrityHeaderBytes + 1 + util::encoded_size(sample));
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode(*decoded), bytes);

  util::Bytes longer = bytes;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(decode(reseal(longer)).has_value()) << "trailing byte";

  for (const CountRecorder::Count& c : rec.counts()) {
    const std::size_t remaining = bytes.size() - (c.at + 4);
    util::Writer forged;
    forged.raw(bytes);
    forged.patch_u32(c.at,
                     static_cast<std::uint32_t>(remaining / c.min_elem + 1));
    util::frame_seal(forged);
    EXPECT_FALSE(decode(forged.buffer()).has_value())
        << "count at byte " << c.at;
  }
}

template <class M>
void check_message(const M& sample) {
  SCOPED_TRACE(typeid(M).name());
  check_layout(sample, M::kType, [](util::Datagram d) {
    return util::decode<M>(d);
  });
}

/// min_encoded_size<T>() is the length of a default T's encoding, and
/// encoded_size() of a sample what the writer appends for it.
template <class T>
void check_sizes(const T& sample) {
  util::Writer w;
  w(T{});
  EXPECT_EQ(util::min_encoded_size<T>(), w.size());
  w.clear();
  w(sample);
  EXPECT_EQ(util::encoded_size(sample), w.size());
  EXPECT_GE(w.size(), util::min_encoded_size<T>());
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
  m.payload = {std::byte{1}, std::byte{2}};
  return m;
}

gcs::wire::Submit sample_submit() {
  gcs::wire::Submit m;
  m.view = {2, 1};
  m.sender_seq = 17;
  m.kind = gcs::wire::PayloadKind::kLeave;
  m.group = "grp";
  m.origin = {5, 2};
  m.payload = {std::byte{3}};
  return m;
}

vod::wire::ClientRecord sample_record() {
  return {1, {2, 9100}, 555, 31.5, 0.0, 15.0, true};
}

TEST(FieldLists, GcsMessages) {
  using namespace gcs::wire;
  check_message(Heartbeat{{7, 3}, {1, 3, 9}, 42, 40});
  check_message(RetransReq{{7, 3}, 11, 19});
  check_message(Propose{{12, 2}, {2, 4, 6}});
  check_message(ProposeAck{{12, 2}, {11, 4}, 5, {{"g1", {2, 1}}}});
  check_message(FlushTarget{{3, 1}, {{{2, 1}, {1, 4}}, {{1, 7}, {}}}});
  check_message(FlushReq{{3, 1}, 41});
  check_message(FlushReply{
      {3, 1}, 1, 2, 1190, {{1200, 0, true}}, {sample_ordered()}});
  check_message(FlushDone{{3, 1}, {4, 9}});
  check_message(Install{{20, 0}, {0, 1}, {{"mv", {1, 4}}}, {{0, 10}}});
}

TEST(FieldLists, GcsBatches) {
  using namespace gcs::wire;
  Ordered app = sample_ordered();
  app.kind = PayloadKind::kApp;
  app.change_seq = 0;
  app.members.clear();
  check_layout(std::vector<Submit>{sample_submit(), Submit{}},
               MsgType::kSubmit, decode_submit);
  check_layout(std::vector<Ordered>{sample_ordered(), app}, MsgType::kOrdered,
               decode_ordered);
}

TEST(FieldLists, VodMessages) {
  using namespace vod::wire;
  check_message(OpenRequest{42, "casablanca", {3, 9100}, 15.0});
  check_message(OpenReply{42, "casablanca", 30.0, 180'000, 5833});
  check_message(Flow{7, -1});
  check_message(Emergency{7, 2});
  check_message(Vcr{9, VcrOp::kSeek, 12345});
  check_message(SetQuality{9, 12.5});
  check_message(
      StateSync{"m1", 3, {sample_record()}, {{sample_record(), 17}}});
  check_message(Frame{88, 4242, mpeg::FrameType::kB, 2800});
}

TEST(FieldLists, SizesOfEveryType) {
  using namespace gcs::wire;
  using namespace vod::wire;
  check_sizes(gcs::ViewId{7, 3});
  check_sizes(gcs::GcsEndpoint{7, 3});
  check_sizes(net::Endpoint{7, 3});
  check_sizes(Heartbeat{{7, 3}, {1, 3, 9}, 42, 40});
  check_sizes(sample_submit());
  check_sizes(sample_ordered());
  check_sizes(RetransReq{{7, 3}, 11, 19});
  check_sizes(Propose{{12, 2}, {2, 4, 6}});
  check_sizes(GroupReg{"g1", {2, 1}});
  check_sizes(ProposeAck{{12, 2}, {11, 4}, 5, {{"g1", {2, 1}}}});
  check_sizes(FlushTarget::Entry{{2, 1}, {1, 4}});
  check_sizes(FlushTarget{{3, 1}, {{{2, 1}, {1, 4}}}});
  check_sizes(FlushReq{{3, 1}, 41});
  check_sizes(Held{1200, 0, true});
  check_sizes(FlushReply{{3, 1}, 1, 2, 1190, {{1200, 0, true}},
                         {sample_ordered()}});
  check_sizes(FlushDone{{3, 1}, {4, 9}});
  check_sizes(Install{{20, 0}, {0, 1}, {{"mv", {1, 4}}}, {{0, 10}}});
  check_sizes(OpenRequest{42, "casablanca", {3, 9100}, 15.0});
  check_sizes(OpenReply{42, "casablanca", 30.0, 180'000, 5833});
  check_sizes(Flow{7, -1});
  check_sizes(Emergency{7, 2});
  check_sizes(Vcr{9, VcrOp::kSeek, 12345});
  check_sizes(SetQuality{9, 12.5});
  check_sizes(sample_record());
  check_sizes(ForeignClaim{sample_record(), 17});
  check_sizes(StateSync{"m1", 3, {sample_record()}, {}});
  check_sizes(Frame{88, 4242, mpeg::FrameType::kB, 2800});
  // The smallest bodies the batch decoders count against.
  EXPECT_EQ(util::min_encoded_size<Submit>(), 12u + 8 + 1 + 4 + 8 + 4);
  EXPECT_EQ(util::min_encoded_size<Ordered>(),
            12u + 8 + 8 + 4 + 4 + 8 + 8 + 1 + 4 + 8 + 4 + 4 + 4);
}

TEST(FieldLists, PausedByteOtherThanZeroOrOneRejected) {
  // (Held::delivered has the same check in GcsWire.FlushExchangeRoundTrip.)
  using namespace vod::wire;
  // A lone client, then an empty orphan list: `paused` is the byte before
  // the orphan count. A lone orphan: the byte before its owner.
  const util::Bytes client = encode(StateSync{"m", 0, {sample_record()}, {}});
  const util::Bytes orphan =
      encode(StateSync{"m", 0, {}, {{sample_record(), 17}}});
  for (const util::Bytes& bytes : {client, orphan}) {
    util::Bytes b = bytes;
    std::byte& paused = b[b.size() - 5];
    ASSERT_EQ(paused, std::byte{1});
    paused = std::byte{0};
    ASSERT_TRUE(decode<StateSync>(reseal(b)).has_value());
    paused = std::byte{2};
    EXPECT_FALSE(decode<StateSync>(reseal(b)).has_value());
  }
}

TEST(FieldLists, RulesOfEachFieldList) {
  using namespace vod::wire;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::int8_t delta : {0, 2, -2}) {
    EXPECT_FALSE(decode<Flow>(encode(Flow{7, delta}))) << int{delta};
  }
  for (std::uint8_t tier : {0, 3}) {
    EXPECT_FALSE(decode<Emergency>(encode(Emergency{7, tier}))) << int{tier};
  }
  for (std::uint8_t op : {0, 5}) {
    EXPECT_FALSE(decode<Vcr>(encode(Vcr{9, static_cast<VcrOp>(op), 0})));
  }
  EXPECT_FALSE(decode<Frame>(
      encode(Frame{1, 2, static_cast<mpeg::FrameType>(3), 100})));
  for (double fps : {-1.0, nan, inf}) {
    EXPECT_FALSE(decode<OpenRequest>(encode(OpenRequest{1, "m", {}, fps})));
    EXPECT_FALSE(decode<OpenReply>(encode(OpenReply{1, "m", fps, 1, 1})));
    EXPECT_FALSE(decode<SetQuality>(encode(SetQuality{1, fps})));
    for (double ClientRecord::*rate :
         {&ClientRecord::rate_fps, &ClientRecord::quality_fps,
          &ClientRecord::capability_fps}) {
      ClientRecord c = sample_record();
      c.*rate = fps;
      EXPECT_FALSE(decode<StateSync>(encode(StateSync{"m", 0, {c}, {}})));
      EXPECT_FALSE(
          decode<StateSync>(encode(StateSync{"m", 0, {}, {{c, 17}}})));
    }
  }

  // A Submit of a kind no daemon knows is refused like an Ordered one, and
  // so is a flush reply part past its count.
  gcs::wire::Submit s = sample_submit();
  s.kind = static_cast<gcs::wire::PayloadKind>(3);
  EXPECT_FALSE(gcs::wire::decode_submit(gcs::wire::encode(s)));
  s.kind = gcs::wire::PayloadKind::kApp;
  EXPECT_TRUE(gcs::wire::decode_submit(gcs::wire::encode(s)));
  EXPECT_FALSE(decode<gcs::wire::FlushReply>(
      encode(gcs::wire::FlushReply{{3, 1}, 2, 2, 0, {}, {}})));
}

TEST(FieldLists, ForgedInstallCountAllocatesNothing) {
  // 33 bytes: the integrity header, the tag, a view id, empty member and
  // group lists, then a count of a million submit sequences with none
  // behind it.
  util::Writer w;
  util::begin_tagged(w, gcs::wire::MsgType::kInstall);
  w(gcs::ViewId{1, 0});
  w.u32(0);
  w.u32(0);
  w.u32(1'000'000);
  util::frame_seal(w);
  ASSERT_EQ(w.size(), 33u);
  if (!testing::kCountingAlloc) {
    GTEST_SKIP() << "allocation counting is compiled out under ASan";
  }
  const std::uint64_t before = testing::alloc_count;
  const bool decoded =
      gcs::wire::decode<gcs::wire::Install>(w.buffer()).has_value();
  EXPECT_EQ(testing::alloc_count - before, 0u);
  EXPECT_FALSE(decoded);
}

}  // namespace
}  // namespace ftvod
