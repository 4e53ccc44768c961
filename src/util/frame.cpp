#include "util/frame.hpp"

#include "util/crc32c.hpp"

namespace ftvod::util {

namespace {

std::uint32_t read_u32_le(const std::byte* p) {
  return static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[0])) |
         static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[3])) << 24;
}

}  // namespace

void frame_begin(Writer& w) {
  w.clear();
  w.u32(0);  // body length, patched by frame_seal
  w.u32(0);  // crc32c(body), patched by frame_seal
}

void frame_seal(Writer& w) {
  const std::span<const std::byte> body{
      w.buffer().data() + kIntegrityHeaderBytes,
      w.size() - kIntegrityHeaderBytes};
  w.patch_u32(0, static_cast<std::uint32_t>(body.size()));
  w.patch_u32(4, crc32c(body));
}

std::optional<std::span<const std::byte>> frame_peek(
    std::span<const std::byte> datagram) {
  if (datagram.size() < kIntegrityHeaderBytes) return std::nullopt;
  const std::uint32_t len = read_u32_le(datagram.data());
  if (len != datagram.size() - kIntegrityHeaderBytes) return std::nullopt;
  return datagram.subspan(kIntegrityHeaderBytes);
}

std::optional<Opened> frame_open(std::span<const std::byte> datagram) {
  const auto body = frame_peek(datagram);
  if (!body) return std::nullopt;
  const std::uint32_t want = read_u32_le(datagram.data() + 4);
  if (crc32c(*body) != want) return std::nullopt;
  return Opened{*body};
}

}  // namespace ftvod::util
