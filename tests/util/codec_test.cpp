#include "util/codec.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

namespace ftvod::util {
namespace {

TEST(Codec, RoundTripPrimitives) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1'000'000'000'000);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  const Bytes bytes = w.buffer();

  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1'000'000'000'000);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripStringsAndBlobs) {
  Writer w;
  w.str("hello");
  w.str("");
  w.str(std::string(10'000, 'x'));
  Bytes blob{std::byte{1}, std::byte{2}, std::byte{3}};
  w.blob(blob);
  w.blob({});
  const Bytes bytes = w.buffer();

  Reader r(bytes);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(10'000, 'x'));
  EXPECT_EQ(r.blob(), blob);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.done());
}

TEST(Codec, ReaderOverrunSetsError) {
  Writer w;
  w.u16(7);
  const Bytes bytes = w.buffer();
  Reader r(bytes);
  EXPECT_EQ(r.u16(), 7);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  // Error is sticky.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Codec, TruncatedStringFailsSafely) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  const Bytes bytes = w.buffer();
  Reader r(bytes);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Codec, EmptyBufferReads) {
  Reader r(std::span<const std::byte>{});
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Codec, ExtremeValues) {
  Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.i32(std::numeric_limits<std::int32_t>::min());
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  const Bytes bytes = w.buffer();
  Reader r(bytes);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), -0.0);
}

TEST(Codec, ListCountBeyondTheRemainingBytesFailsBeforeReserving) {
  // Three u32 elements need 12 bytes; 8 follow the count.
  Writer w;
  w.u32(3);
  w.u64(0);
  const Bytes bytes = w.buffer();
  Reader r(bytes);
  std::vector<std::uint32_t> v;
  r(v);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(v.capacity(), 0u);

  // Two fit, and read back.
  Writer two;
  two(std::vector<std::uint32_t>{7, 9});
  Reader ok(two.buffer());
  ok(v);
  EXPECT_TRUE(ok.done());
  EXPECT_EQ(v, (std::vector<std::uint32_t>{7, 9}));
}

TEST(Codec, BoolFieldIsZeroOrOne) {
  for (const std::uint8_t byte : {0, 1, 2, 255}) {
    const Bytes bytes{std::byte{byte}};
    Reader r(bytes);
    bool b = false;
    r(b);
    EXPECT_EQ(r.done(), byte <= 1) << int{byte};
    EXPECT_EQ(b, byte == 1);
  }
}

class CodecFuzz : public ::testing::TestWithParam<unsigned> {};

// Random byte strings must never crash the reader and must preserve the
// invariant: consumed bytes + remaining == total.
TEST_P(CodecFuzz, RandomBytesNeverCrash) {
  std::mt19937 gen(GetParam());
  std::uniform_int_distribution<int> len(0, 64);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes data;
    const int n = len(gen);
    data.reserve(n);
    for (int i = 0; i < n; ++i) {
      data.push_back(static_cast<std::byte>(byte(gen)));
    }
    Reader r(data);
    // A pseudo-random decode schedule.
    for (int op = 0; op < 16; ++op) {
      switch (byte(gen) % 6) {
        case 0: (void)r.u8(); break;
        case 1: (void)r.u16(); break;
        case 2: (void)r.u32(); break;
        case 3: (void)r.u64(); break;
        case 4: (void)r.str(); break;
        case 5: (void)r.blob(); break;
      }
    }
    EXPECT_LE(r.remaining(), data.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(0u, 8u));

// Round-trip property over random structured payloads.
class CodecProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CodecProperty, StructuredRoundTrip) {
  std::mt19937 gen(GetParam() * 7919 + 13);
  std::uniform_int_distribution<std::uint64_t> u64d;
  std::uniform_int_distribution<int> strlen_d(0, 300);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t a = u64d(gen);
    const std::uint32_t b = static_cast<std::uint32_t>(u64d(gen));
    std::string s(static_cast<std::size_t>(strlen_d(gen)), ' ');
    for (char& c : s) c = static_cast<char>('a' + (u64d(gen) % 26));

    Writer w;
    w.u64(a);
    w.str(s);
    w.u32(b);
    const Bytes bytes = w.buffer();
    Reader r(bytes);
    EXPECT_EQ(r.u64(), a);
    EXPECT_EQ(r.str(), s);
    EXPECT_EQ(r.u32(), b);
    EXPECT_TRUE(r.done());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range(0u, 6u));

}  // namespace
}  // namespace ftvod::util
