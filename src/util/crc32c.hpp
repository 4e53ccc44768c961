// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78). Two
// implementations compute the same function: a portable slice-by-4 table
// loop, and the SSE4.2 `crc32` instruction on x86-64 CPUs that have it.
// crc32c() picks one once, at first use. Chaotic runs are reproduced
// bit-for-bit from their seeds, so both must agree on every input; the unit
// tests hold each to the same known answers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ftvod::util {

/// CRC32C of `data`. `seed` chains incremental computations: pass the
/// previous return value to continue a running checksum.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t seed = 0);

/// The table implementation, available everywhere.
[[nodiscard]] std::uint32_t crc32c_software(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);

/// True when this CPU can run crc32c_hardware().
[[nodiscard]] bool crc32c_hardware_available();

/// The SSE4.2 implementation. Call only when crc32c_hardware_available().
[[nodiscard]] std::uint32_t crc32c_hardware(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);

}  // namespace ftvod::util
