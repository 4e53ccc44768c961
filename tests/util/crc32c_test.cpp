// CRC32C known answers: the RFC 3720 (iSCSI) test patterns, the standard
// "123456789" check value, seed chaining, and unaligned starts against a
// bit-at-a-time reference. Every implementation runs them: the dispatching
// crc32c(), the table loop and, where the CPU has SSE4.2, the instruction.
#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string_view>
#include <vector>

namespace ftvod::util {
namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::array<std::byte, 32> pattern(int first, int step) {
  std::array<std::byte, 32> a{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::byte>(first + step * static_cast<int>(i));
  }
  return a;
}

/// Bit-at-a-time CRC32C over the reflected polynomial.
std::uint32_t bitwise_crc32c(std::span<const std::byte> data) {
  std::uint32_t c = ~0u;
  for (const std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
  }
  return ~c;
}

using Crc32cFn = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

struct Impl {
  const char* name;
  Crc32cFn crc32c;
};

/// The implementations this machine can run.
std::vector<Impl> impls() {
  std::vector<Impl> v{{"dispatch", &crc32c}, {"software", &crc32c_software}};
  if (crc32c_hardware_available()) v.push_back({"hardware", &crc32c_hardware});
  return v;
}

TEST(Crc32c, Rfc3720Patterns) {
  for (const auto& [name, crc32c] : impls()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc32c(pattern(0x00, 0), 0), 0x8A9136AAu);  // 32 x 0x00
    EXPECT_EQ(crc32c(pattern(0xFF, 0), 0), 0x62A8AB43u);  // 32 x 0xFF
    EXPECT_EQ(crc32c(pattern(0, 1), 0), 0x46DD794Eu);     // 0x00 .. 0x1F
    EXPECT_EQ(crc32c(pattern(31, -1), 0), 0x113FDB5Cu);   // 0x1F .. 0x00
  }
}

TEST(Crc32c, CheckValue) {
  for (const auto& [name, crc32c] : impls()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc32c(bytes_of("123456789"), 0), 0xE3069283u);
    EXPECT_EQ(crc32c({}, 0), 0u);
  }
}

TEST(Crc32c, SeedChainsIncrementalComputation) {
  const auto whole = bytes_of("The quick brown fox jumps over the lazy dog");
  for (const auto& [name, crc32c] : impls()) {
    SCOPED_TRACE(name);
    for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
      const auto a = whole.first(cut);
      const auto b = whole.subspan(cut);
      EXPECT_EQ(crc32c(b, crc32c(a, 0)), crc32c(whole, 0)) << "cut at " << cut;
    }
  }
}

TEST(Crc32c, UnalignedStartsMatchBitwiseReference) {
  std::vector<std::byte> buf(300);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((i * 167 + 13) & 0xFF);
  }
  for (const auto& [name, crc32c] : impls()) {
    SCOPED_TRACE(name);
    for (std::size_t offset = 1; offset <= 3; ++offset) {
      for (std::size_t len = 0; len + offset <= buf.size(); len += 7) {
        const auto s = std::span<const std::byte>(buf).subspan(offset, len);
        EXPECT_EQ(crc32c(s, 0), bitwise_crc32c(s))
            << "offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32c, LongBuffersMatchBitwiseReference) {
  // Frame-sized lengths on both sides of the 8-byte word loop's edges,
  // from every start offset within a word.
  std::vector<std::byte> buf(6'000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((i * 89 + 41) & 0xFF);
  }
  for (const auto& [name, crc32c] : impls()) {
    SCOPED_TRACE(name);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (const std::size_t len : {8u, 15u, 16u, 17u, 1'500u, 5'843u}) {
        const auto s = std::span<const std::byte>(buf).subspan(offset, len);
        EXPECT_EQ(crc32c(s, 0), bitwise_crc32c(s))
            << "offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32c, HardwareMatchesSoftwareWhereAvailable) {
  if (!crc32c_hardware_available()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  std::vector<std::byte> buf(1'024);
  std::uint32_t x = 12345;
  for (std::byte& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::byte>(x >> 24);
  }
  for (std::size_t len = 0; len <= buf.size(); len += 13) {
    const auto s = std::span<const std::byte>(buf).first(len);
    EXPECT_EQ(crc32c_hardware(s, 0x9E3779B9u), crc32c_software(s, 0x9E3779B9u))
        << "length " << len;
  }
}

}  // namespace
}  // namespace ftvod::util
