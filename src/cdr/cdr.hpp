// CORBA Common Data Representation (CDR) marshaling.
//
// InteGrade exports all of its services as CORBA interfaces (paper §1); the
// LRM runs on a tiny ORB (UIC-CORBA) precisely so that resource-provider
// machines pay almost nothing for grid membership. This module implements
// the CDR encoding those ORBs speak: primitive types aligned to their
// natural boundary, strings as length-prefixed NUL-terminated octets,
// sequences as length-prefixed element runs, and a byte-order flag so a
// little-endian sender never forces a same-endian receiver to swap
// ("receiver makes it right").
//
// The encoding here is faithful enough that bench_orb's bytes-per-message
// numbers are meaningful proxies for the real protocol cost.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace integrade::cdr {

enum class ByteOrder : std::uint8_t { kBigEndian = 0, kLittleEndian = 1 };

/// Native byte order of this process.
ByteOrder native_byte_order();

class Writer {
 public:
  explicit Writer(ByteOrder order = native_byte_order());

  void write_bool(bool v);
  void write_u8(std::uint8_t v);
  void write_i16(std::int16_t v);
  void write_u16(std::uint16_t v);
  void write_i32(std::int32_t v);
  void write_u32(std::uint32_t v);
  void write_i64(std::int64_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_f64(double v);
  /// CORBA string: u32 length including terminating NUL, then bytes, then NUL.
  void write_string(const std::string& v);
  /// Raw octet sequence: u32 length then bytes (no NUL).
  void write_octets(const std::vector<std::uint8_t>& v);

  template <class Tag>
  void write_id(Id<Tag> id) {
    write_u64(id.value);
  }

  /// Pad so the next value of size `alignment` lands on its natural boundary.
  void align(std::size_t alignment);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take_buffer() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] ByteOrder byte_order() const { return order_; }

 private:
  template <class T>
  void write_scalar(T v);

  std::vector<std::uint8_t> buf_;
  ByteOrder order_;
};

/// Reader mirrors Writer. Errors (truncated buffer) latch a failure flag;
/// after a failure every read returns a zero value. Callers check ok() once
/// after decoding a whole message, which keeps decode functions linear.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size,
         ByteOrder order = native_byte_order());
  explicit Reader(const std::vector<std::uint8_t>& data,
                  ByteOrder order = native_byte_order());

  bool read_bool();
  std::uint8_t read_u8();
  std::int16_t read_i16();
  std::uint16_t read_u16();
  std::int32_t read_i32();
  std::uint32_t read_u32();
  std::int64_t read_i64();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<std::uint8_t> read_octets();

  template <class Tag>
  Id<Tag> read_id() {
    return Id<Tag>(read_u64());
  }

  void align(std::size_t alignment);

  /// Latch a failure found above the byte level, such as an unknown tag.
  void fail() { ok_ = false; }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  template <class T>
  T read_scalar();
  bool ensure(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  ByteOrder order_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Codec<T>: how a type travels on the wire.
//
// A plain wire struct does not write a codec. It lists its fields once, in
// wire order, as a static member template
//
//   template <class S>
//   static auto fields(S& s) { return std::tie(s.node, s.lrm, ...); }
//
// where S is T or const T, and the generic Codec<Described T> below folds
// Writer/Reader calls over that one list left to right, so encode and decode
// cannot drift apart. Per field, by type:
//   bool, u8-backed enum, u8, i32, u32, i64, u64, f64, Id<Tag>
//                            -> the matching write_*/read_*
//   std::string              -> CDR string
//   std::vector<uint8_t>     -> octets (u32 length + raw bytes)
//   other std::vector<E>     -> encode_sequence/decode_sequence (u32 count)
//   std::array<E, N>         -> N elements, no count
//   anything else            -> Codec<that type>
//
// A struct may also declare `extension(S&)`: trailing fields written only
// when one of them differs from a default-constructed T's, and read only
// when bytes remain after the base fields. Without them the frame is
// byte-identical to what a sender predating the extension writes.
//
// Types that are not a fixed field list (Empty, Value, PropertySet)
// specialize Codec<T> by hand: static void encode(Writer&, const T&) and
// static T decode(Reader&).
// ---------------------------------------------------------------------------
template <class T>
struct Codec;

template <class T>
concept Described = requires(T& v, const T& c) {
  T::fields(v);
  T::fields(c);
};

template <class T>
concept Extended = Described<T> && requires(T& v, const T& c) {
  T::extension(v);
  T::extension(c);
};

template <class T>
void write_field(Writer& w, const T& v);
template <class T>
void read_field(Reader& r, T& v);

/// Encode a sequence as u32 count + elements.
template <class T>
void encode_sequence(Writer& w, const std::vector<T>& items) {
  w.write_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) write_field(w, item);
}

template <class T>
std::vector<T> decode_sequence(Reader& r) {
  const std::uint32_t n = r.read_u32();
  std::vector<T> items;
  // A hostile count must not amplify allocation: reserve no more element
  // storage than there are bytes left in the frame. Larger honest sequences
  // grow as they decode; a lying count runs into the underrun first.
  items.reserve(std::min<std::size_t>(n, r.remaining() / sizeof(T)));
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    read_field(r, items.emplace_back());
  }
  return items;
}

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class E>
inline constexpr bool kIsVector<std::vector<E>> = true;
template <class T>
inline constexpr bool kIsArray = false;
template <class E, std::size_t N>
inline constexpr bool kIsArray<std::array<E, N>> = true;
template <class T>
inline constexpr bool kIsId = false;
template <class Tag>
inline constexpr bool kIsId<Id<Tag>> = true;
template <class T>
concept ByteEnum =
    std::is_enum_v<T> && std::is_same_v<std::underlying_type_t<T>, std::uint8_t>;
}  // namespace detail

template <class T>
void write_field(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) w.write_bool(v);
  else if constexpr (detail::ByteEnum<T>) w.write_u8(static_cast<std::uint8_t>(v));
  else if constexpr (std::is_same_v<T, std::uint8_t>) w.write_u8(v);
  else if constexpr (std::is_same_v<T, std::int32_t>) w.write_i32(v);
  else if constexpr (std::is_same_v<T, std::uint32_t>) w.write_u32(v);
  else if constexpr (std::is_same_v<T, std::int64_t>) w.write_i64(v);
  else if constexpr (std::is_same_v<T, std::uint64_t>) w.write_u64(v);
  else if constexpr (std::is_same_v<T, double>) w.write_f64(v);
  else if constexpr (detail::kIsId<T>) w.write_id(v);
  else if constexpr (std::is_same_v<T, std::string>) w.write_string(v);
  else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) w.write_octets(v);
  else if constexpr (detail::kIsVector<T>) encode_sequence(w, v);
  else if constexpr (detail::kIsArray<T>) {
    for (const auto& e : v) write_field(w, e);
  } else {
    Codec<T>::encode(w, v);
  }
}

template <class T>
void read_field(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) v = r.read_bool();
  else if constexpr (detail::ByteEnum<T>) v = static_cast<T>(r.read_u8());
  else if constexpr (std::is_same_v<T, std::uint8_t>) v = r.read_u8();
  else if constexpr (std::is_same_v<T, std::int32_t>) v = r.read_i32();
  else if constexpr (std::is_same_v<T, std::uint32_t>) v = r.read_u32();
  else if constexpr (std::is_same_v<T, std::int64_t>) v = r.read_i64();
  else if constexpr (std::is_same_v<T, std::uint64_t>) v = r.read_u64();
  else if constexpr (std::is_same_v<T, double>) v = r.read_f64();
  else if constexpr (detail::kIsId<T>) v = T(r.read_u64());
  else if constexpr (std::is_same_v<T, std::string>) v = r.read_string();
  else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) v = r.read_octets();
  else if constexpr (detail::kIsVector<T>) {
    v = decode_sequence<typename T::value_type>(r);
  } else if constexpr (detail::kIsArray<T>) {
    for (auto& e : v) read_field(r, e);
  } else {
    v = Codec<T>::decode(r);
  }
}

/// Write a tuple of field references (a `fields(v)` list) in order.
template <class Tuple>
void write_fields(Writer& w, const Tuple& fields) {
  std::apply([&w](const auto&... f) { (write_field(w, f), ...); }, fields);
}

/// Read into a tuple of field references (a `fields(v)` list) in order.
template <class Tuple>
void read_fields(Reader& r, Tuple fields) {
  std::apply([&r](auto&... f) { (read_field(r, f), ...); }, fields);
}

template <Described T>
struct Codec<T> {
  static void encode(Writer& w, const T& v) {
    write_fields(w, T::fields(v));
    if constexpr (Extended<T>) {
      static const T kDefault{};
      if (T::extension(v) != T::extension(kDefault)) {
        write_fields(w, T::extension(v));
      }
    }
  }
  static T decode(Reader& r) {
    T v;
    read_fields(r, T::fields(v));
    if constexpr (Extended<T>) {
      if (r.ok() && r.remaining() > 0) read_fields(r, T::extension(v));
    }
    return v;
  }
};

/// Empty request/ack payload for operations that need no arguments.
struct Empty {
  bool operator==(const Empty&) const = default;
};
template <>
struct Codec<Empty> {
  static void encode(Writer&, const Empty&) {}
  static Empty decode(Reader&) { return {}; }
};

template <class T>
std::vector<std::uint8_t> encode_message(const T& value,
                                         ByteOrder order = native_byte_order()) {
  Writer w(order);
  Codec<T>::encode(w, value);
  return w.take_buffer();
}

template <class T>
Result<T> decode_message(const std::vector<std::uint8_t>& bytes,
                         ByteOrder order = native_byte_order()) {
  Reader r(bytes, order);
  T value = Codec<T>::decode(r);
  if (!r.ok()) return Status(ErrorCode::kInternal, "truncated CDR message");
  return value;
}

}  // namespace integrade::cdr
