// Binary wire codec used by every protocol in the library.
//
// All multi-byte integers are little-endian. Strings and byte blobs are
// length-prefixed with a u32. The Reader is fail-safe: reading past the end
// sets a sticky error flag and yields zero values instead of invoking
// undefined behaviour, so corrupted packets can be rejected with ok().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ftvod::util {

using Bytes = std::vector<std::byte>;

/// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Adopts an existing buffer's capacity (cleared first). Pairs with
  /// take() to recycle one allocation across many encodes.
  explicit Writer(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed (u32) string.
  void str(std::string_view v);
  /// Length-prefixed (u32) blob.
  void blob(std::span<const std::byte> v);
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::byte> v);
  /// Overwrites 4 already-written bytes at `pos` (little-endian). Used to
  /// patch length/checksum headers once the body size is known.
  void patch_u32(std::size_t pos, std::uint32_t v);

  /// Empties the buffer but keeps its capacity — the reuse idiom for
  /// per-message encoding on hot paths: clear(), encode_into(), send.
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] const Bytes& buffer() const { return buf_; }

 private:
  Bytes buf_;
};

/// Consumes primitive values from a byte span. Never throws; check ok().
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  Bytes blob();

  /// True while no read has overrun the buffer.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Forces the sticky error flag; decoders use it to reject semantically
  /// invalid fields (absurd counts, non-finite rates) through the same
  /// fail-safe path as a structural overrun.
  void fail() { ok_ = false; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  /// Returns a pointer to n readable bytes or nullptr (setting the error flag).
  const std::byte* need(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Encodes a message into a fresh buffer through its encode_into(m, w)
/// overload, found by argument-dependent lookup in the message's namespace
/// (each wire namespace re-exports this with `using util::encode;`).
template <class M>
Bytes encode(const M& m) {
  Writer w;
  encode_into(m, w);
  return w.take();
}

}  // namespace ftvod::util
