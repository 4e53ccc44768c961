#include "gcs/wire.hpp"

namespace ftvod::gcs::wire {

namespace {

/// Byte offset of a batch's message count: integrity header, type tag.
constexpr std::size_t kCountOffset = util::kIntegrityHeaderBytes + 1;
/// Byte offset of `prev` within an Ordered body: view id (u64 + u32), gseq.
constexpr std::size_t kPrevOffset = 12 + 8;

void bump_count(util::Writer& w) {
  const util::Bytes& b = w.buffer();
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(
             b[kCountOffset + i]))
         << (8 * i);
  }
  w.patch_u32(kCountOffset, n + 1);
}

template <typename T>
util::Bytes encode_batch(MsgType type, std::span<const T> batch) {
  util::Writer w;
  begin_batch(w, type);
  for (const T& m : batch) append(w, m);
  seal_batch(w);
  return w.take();
}

}  // namespace

void begin_batch(util::Writer& w, MsgType type) {
  util::begin_tagged(w, type);
  w.u32(0);  // message count, bumped by every append
}

std::size_t append(util::Writer& w, const Submit& m) {
  const std::size_t at = w.size();
  w(m);
  bump_count(w);
  return at;
}

std::size_t append(util::Writer& w, const Ordered& m) {
  const std::size_t at = w.size();
  w(m);
  bump_count(w);
  return at;
}

void encode_body(const Ordered& m, util::Writer& body) {
  body.clear();
  body(m);
}

std::size_t append_body(util::Writer& w, std::span<const std::byte> body) {
  const std::size_t at = w.size();
  w.raw(body);
  bump_count(w);
  return at;
}

void patch_prev(util::Writer& w, std::size_t at, std::uint64_t prev) {
  w.patch_u32(at + kPrevOffset, static_cast<std::uint32_t>(prev));
  w.patch_u32(at + kPrevOffset + 4, static_cast<std::uint32_t>(prev >> 32));
}

void seal_batch(util::Writer& w) { util::frame_seal(w); }

util::Bytes encode(const Submit& m) {
  return encode_batch(MsgType::kSubmit, std::span(&m, 1));
}

util::Bytes encode(const std::vector<Submit>& batch) {
  return encode_batch(MsgType::kSubmit, std::span(batch));
}

util::Bytes encode(const Ordered& m) {
  return encode_batch(MsgType::kOrdered, std::span(&m, 1));
}

util::Bytes encode(const std::vector<Ordered>& batch) {
  return encode_batch(MsgType::kOrdered, std::span(batch));
}

}  // namespace ftvod::gcs::wire
