// Datagram integrity framing. Every protocol message in the library is
// wrapped in an 8-byte header written at encode time:
//
//     u32 body_length | u32 crc32c(body) | body...
//
// The header turns "arbitrary bytes on the wire" into "either the exact
// bytes that were sent, or a drop": receivers verify length and checksum
// before any decoder touches the payload, so a corrupted, truncated or
// spliced datagram is indistinguishable from a lost one — and loss is the
// failure the retransmission and emergency machinery already recovers from.
// DESIGN.md §"Hostile-network model" documents the covered fields.
#pragma once

#include <concepts>
#include <optional>

#include "util/codec.hpp"

namespace ftvod::util {

/// Wire overhead of the integrity header, in bytes.
inline constexpr std::size_t kIntegrityHeaderBytes = 8;

/// Clears `w` and reserves the header; pair with frame_seal() after the
/// body is encoded. Every wire encode_into() starts with this.
void frame_begin(Writer& w);

/// Patches the length and CRC32C over everything written since
/// frame_begin(). Must be the last step of an encode_into().
void frame_seal(Writer& w);

/// The body of a datagram that passed frame_open().
struct Opened {
  std::span<const std::byte> body;
};

/// Structural check only (size and length field, no checksum): returns the
/// body span, or nullopt. Cheap enough for per-datagram type demux.
[[nodiscard]] std::optional<std::span<const std::byte>> frame_peek(
    std::span<const std::byte> datagram);

/// Full verification (length + CRC32C): returns the body, or nullopt for
/// anything damaged. Decoders call this before reading a single field.
[[nodiscard]] std::optional<Opened> frame_open(
    std::span<const std::byte> datagram);

/// What a decoder reads: a raw datagram, which the decoder verifies, or one
/// that frame_open() already verified, which it does not verify again. A
/// receiver that opens first (to count damage apart from malformation)
/// thus pays for one CRC pass per datagram, not two.
class Datagram {
 public:
  template <typename Raw>
    requires std::convertible_to<const Raw&, std::span<const std::byte>>
  Datagram(const Raw& raw) : bytes_(raw) {}  // implicit: decode_x(bytes)
  Datagram(Opened verified) : bytes_(verified.body), verified_(true) {}

  /// The verified body, or nullopt for anything damaged.
  [[nodiscard]] std::optional<Opened> open() const {
    if (verified_) return Opened{bytes_};
    return frame_open(bytes_);
  }

 private:
  std::span<const std::byte> bytes_;
  bool verified_ = false;
};

}  // namespace ftvod::util
