#include "util/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define FTVOD_CRC32C_SSE42 1
#endif

namespace ftvod::util {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    // t[k][i] advances the CRC of byte i through k additional zero bytes,
    // which is what lets slice-by-4 process all four bytes of a word from
    // independent table lookups.
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

constexpr Tables kTables{};

inline std::uint8_t byte_at(const std::byte* p) {
  return std::to_integer<std::uint8_t>(*p);
}

}  // namespace

std::uint32_t crc32c_software(std::span<const std::byte> data,
                              std::uint32_t seed) {
  const auto& t = kTables.t;
  std::uint32_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();

  // Byte-at-a-time until the cursor is 4-byte aligned (unaligned 32-bit
  // loads are UB on some targets, and the sanitized fuzz tier runs with
  // UBSan's alignment checks on).
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 3u) != 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ byte_at(p)) & 0xFFu];
    ++p;
    --n;
  }

  // The word-folding trick interprets the CRC as the low bytes of the next
  // word, which only lines up on little-endian targets; elsewhere the byte
  // loop below handles everything.
  while (std::endian::native == std::endian::little && n >= 4) {
    std::uint32_t word;
    __builtin_memcpy(&word, p, 4);  // p is aligned; memcpy keeps it portable
    crc ^= word;                    // little-endian layout assumed repo-wide
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][(crc >> 24) & 0xFFu];
    p += 4;
    n -= 4;
  }

  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ byte_at(p)) & 0xFFu];
    ++p;
    --n;
  }
  return ~crc;
}

#ifdef FTVOD_CRC32C_SSE42

bool crc32c_hardware_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// The instruction folds the reflected Castagnoli polynomial without the
// pre/post inversion, so the table loop's ~seed / ~crc framing carries over.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hardware(
    std::span<const std::byte> data, std::uint32_t seed) {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // unaligned-safe; compiles to one load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, std::to_integer<std::uint8_t>(*p));
  }
  return ~crc32;
}

#else

bool crc32c_hardware_available() { return false; }

std::uint32_t crc32c_hardware(std::span<const std::byte> data,
                              std::uint32_t seed) {
  return crc32c_software(data, seed);
}

#endif

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  static const auto impl =
      crc32c_hardware_available() ? &crc32c_hardware : &crc32c_software;
  return impl(data, seed);
}

}  // namespace ftvod::util
