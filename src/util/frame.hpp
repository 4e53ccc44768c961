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
#include <vector>

#include "util/codec.hpp"

namespace ftvod::util {

/// Wire overhead of the integrity header, in bytes.
inline constexpr std::size_t kIntegrityHeaderBytes = 8;

/// Clears `w` and reserves the header; pair with frame_seal() after the
/// body is encoded. Every datagram encode starts with this.
void frame_begin(Writer& w);

/// Patches the length and CRC32C over everything written since
/// frame_begin(). Must be the last step of a datagram encode.
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
  Datagram(const Raw& raw) : bytes_(raw) {}  // implicit: decode<M>(bytes)
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

// ------------------------------------------------------ tagged datagrams --
//
// A wire protocol's datagram is the integrity header, a one-byte type tag
// (a protocol's MsgType), then a body written by field lists.

/// A type that travels alone in a datagram, tagged M::kType.
template <class M>
concept Message = requires { M::kType; };

/// Clears `w` and starts a datagram: the integrity header, then `tag`.
template <class Tag>
void begin_tagged(Writer& w, Tag tag) {
  frame_begin(w);
  w.u8(static_cast<std::uint8_t>(tag));
}

/// The tag of a structurally sound datagram, if within [first, last]. No
/// checksum: demux is on the hot path, and the checksum is verified once,
/// by the receiver or by the decoder.
template <class Tag>
std::optional<Tag> peek_tag(std::span<const std::byte> datagram, Tag first,
                            Tag last) {
  const auto body = frame_peek(datagram);
  if (!body || body->empty()) return std::nullopt;
  const auto t = std::to_integer<std::uint8_t>(body->front());
  if (t < static_cast<std::uint8_t>(first) ||
      t > static_cast<std::uint8_t>(last)) {
    return std::nullopt;
  }
  return static_cast<Tag>(t);
}

/// Verifies the frame and the tag, then reads a T that must fill the rest
/// of the body; nullopt for anything damaged or malformed. Every decoder
/// funnels through this, so no field is read before the checksum passed.
template <class T, class Tag>
std::optional<T> decode_tagged(Datagram data, Tag tag) {
  const auto opened = data.open();
  if (!opened) return std::nullopt;
  Reader r(opened->body);
  if (r.u8() != static_cast<std::uint8_t>(tag)) return std::nullopt;
  T m;
  r(m);
  if (!r.done()) return std::nullopt;
  return m;
}

/// A batch datagram: the tag, then a list of T. It is never sent empty, so
/// it is never accepted empty.
template <class T, class Tag>
std::optional<std::vector<T>> decode_batch(Datagram data, Tag tag) {
  auto batch = decode_tagged<std::vector<T>>(data, tag);
  if (batch && batch->empty()) return std::nullopt;
  return batch;
}

/// Clears `w` and encodes `m` into it, reusing the writer's capacity: the
/// allocation-free path for senders that keep a long-lived scratch Writer.
template <Message M>
void encode_into(const M& m, Writer& w) {
  begin_tagged(w, M::kType);
  w(m);
  frame_seal(w);
}

/// Encodes a message into a fresh buffer.
template <Message M>
Bytes encode(const M& m) {
  Writer w;
  encode_into(m, w);
  return w.take();
}

/// Decodes a datagram of type M; nullopt on any malformed input. Takes a
/// raw datagram or one frame_open() already verified.
template <Message M>
std::optional<M> decode(Datagram data) {
  return decode_tagged<M>(data, M::kType);
}

}  // namespace ftvod::util
