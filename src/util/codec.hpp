// Binary wire codec used by every protocol in the library.
//
// All multi-byte integers are little-endian. Strings, byte blobs and lists
// are prefixed with a u32 count. The Reader is fail-safe: reading past the
// end sets a sticky error flag and yields zero values instead of invoking
// undefined behaviour, so corrupted packets can be rejected with ok().
//
// Every wire type writes its layout once, as a field list found by
// argument-dependent lookup beside the type:
//
//     template <class IO> void fields(IO& io, T& m) {
//       io(m.a, m.b, m.c);     // the fields, in wire order
//       io.check(m.a < m.b);   // a rule on the decoded values
//     }
//
// Writer, Reader and Sizer all run it, so encoding, decoding and sizes
// cannot drift apart. field() is the one dispatch over field kinds:
//
//     bool             one byte, 0 or 1
//     integer, enum    little-endian, as wide as its (underlying) type
//     double           its IEEE-754 bits as a u64
//     string, vector   u32 count, then the elements (chars, bytes in bulk)
//     pair             first, then second
//     anything else    its own field list
//
// The Reader enforces the rules no field list repeats: a bool byte is 0 or
// 1, and a list count the remaining bytes cannot hold, at the element's
// smallest encoding, fails before anything is reserved.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ftvod::util {

using Bytes = std::vector<std::byte>;

template <class IO, class T>
void field(IO& io, T& v);

/// Appends values to a growing byte buffer.
class Writer {
 public:
  static constexpr bool kReading = false;

  Writer() = default;
  /// Adopts an existing buffer's capacity (cleared first). Pairs with
  /// take() to recycle one allocation across many encodes.
  explicit Writer(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

  /// Appends values by their field lists.
  template <class... Ts>
  void operator()(const Ts&... vs) {
    (field(*this, const_cast<Ts&>(vs)), ...);  // the writer only reads
  }

  template <std::unsigned_integral U>
  void word(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
    }
  }
  template <class Elem>
  std::size_t count(std::size_t n) {
    word(static_cast<std::uint32_t>(n));
    return n;
  }
  void bytes(const std::byte* p, std::size_t n) { raw({p, n}); }
  void check(bool) {}

  void u8(std::uint8_t v) { word(v); }
  void u16(std::uint16_t v) { word(v); }
  void u32(std::uint32_t v) { word(v); }
  void u64(std::uint64_t v) { word(v); }
  void i32(std::int32_t v) { word(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
  void f64(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u32) string.
  void str(std::string_view v) { blob(std::as_bytes(std::span(v))); }
  /// Length-prefixed (u32) blob.
  void blob(std::span<const std::byte> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    raw(v);
  }
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::byte> v) {
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
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

/// Consumes values from a byte span. Never throws; check ok().
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  /// Reads values by their field lists, enforcing each list's rules.
  template <class... Ts>
  void operator()(Ts&... vs) {
    (field(*this, vs), ...);
  }

  template <std::unsigned_integral U>
  void word(U& v) {
    v = 0;
    const std::byte* p = need(sizeof(U));
    if (p == nullptr) return;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(std::to_integer<std::uint8_t>(p[i]))
                          << (8 * i));
    }
  }
  /// Reads a list count; a count the remaining bytes cannot hold, at the
  /// element's smallest encoding, fails (and reads as 0).
  template <class Elem>
  std::size_t count(std::size_t);
  void bytes(std::byte* p, std::size_t n) {
    const std::byte* src = need(n);
    if (src != nullptr && n > 0) std::memcpy(p, src, n);
  }
  /// Forces the sticky error flag unless `valid`: a field list rejects
  /// semantically invalid values through the same fail-safe path as a
  /// structural overrun.
  void check(bool valid) {
    if (!valid) ok_ = false;
  }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() { return get<std::string>(); }
  Bytes blob() { return get<Bytes>(); }

  /// True while no read has overrun the buffer or failed a check.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <class T>
  T get() {
    T v{};
    (*this)(v);
    return v;
  }
  /// Returns a pointer to n readable bytes or nullptr (setting the error flag).
  const std::byte* need(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Counts the bytes a value's field list encodes to.
class Sizer {
 public:
  static constexpr bool kReading = false;

  template <class... Ts>
  void operator()(const Ts&... vs) {
    (field(*this, const_cast<Ts&>(vs)), ...);  // the sizer only reads
  }

  template <std::unsigned_integral U>
  void word(U) {
    n_ += sizeof(U);
  }
  template <class Elem>
  std::size_t count(std::size_t n) {
    n_ += 4;
    return n;
  }
  void bytes(const std::byte*, std::size_t n) { n_ += n; }
  void check(bool) {}

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Encoded size of a value: what appending it to a Writer adds.
template <class T>
std::size_t encoded_size(const T& v) {
  Sizer s;
  s(v);
  return s.size();
}

/// Smallest encoded size of a T: that of a default T, whose strings and
/// lists are empty.
template <class T>
std::size_t min_encoded_size() {
  static const std::size_t n = encoded_size(T{});
  return n;
}

template <class Elem>
std::size_t Reader::count(std::size_t) {
  std::uint32_t n = 0;
  word(n);
  if (n > remaining() / min_encoded_size<Elem>()) ok_ = false;
  return ok_ ? n : 0;
}

template <class T>
using WordOf = std::make_unsigned_t<typename std::conditional_t<
    std::is_enum_v<T>, std::underlying_type<T>, std::type_identity<T>>::type>;

template <class IO, class T>
void field(IO& io, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    std::uint8_t b = v ? 1 : 0;
    io.word(b);
    io.check(b <= 1);
    if constexpr (IO::kReading) v = b == 1;
  } else if constexpr (std::is_same_v<T, double>) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    io.word(bits);
    if constexpr (IO::kReading) v = std::bit_cast<double>(bits);
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    auto w = static_cast<WordOf<T>>(v);
    io.word(w);
    if constexpr (IO::kReading) v = static_cast<T>(w);
  } else if constexpr (requires { v.data(); v.size(); }) {
    using Elem = typename T::value_type;
    const std::size_t n = io.template count<Elem>(v.size());
    if constexpr (IO::kReading) v.resize(n);
    if constexpr (std::is_same_v<Elem, char> ||
                  std::is_same_v<Elem, std::byte>) {
      io.bytes(reinterpret_cast<std::byte*>(v.data()), n);
    } else {
      for (auto& e : v) field(io, e);
    }
  } else if constexpr (requires { v.first; v.second; }) {
    io(v.first, v.second);
  } else {
    fields(io, v);
  }
}

}  // namespace ftvod::util
