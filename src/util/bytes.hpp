// Byte-buffer utilities and bounds-checked binary serialization.
//
// Every wire format in this repository is written with ByteWriter and
// read with ByteReader. The Prime, SCADA and Spines messages do so
// through util/codec.hpp, which derives each message's writer, reader
// and size from one field list; the Modbus, DNP3 and emulated-network
// frames, and the state snapshots, call these classes directly.
// Integers are big-endian ("network order"), matching what the real
// Spire/Spines/Modbus stacks put on the wire. Decoding is fully
// bounds-checked: malformed input raises SerializationError instead of
// reading out of bounds, which is what allows the attack framework to
// throw arbitrary garbage at every parser in the system.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spire::util {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a ByteReader runs out of input or a length prefix is
/// inconsistent with the remaining buffer.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what)
      : std::runtime_error("serialization error: " + what) {}
};

/// Appends big-endian primitive values and length-prefixed blobs to a
/// growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Pre-sizes the buffer from an encoded-size hint.
  explicit ByteWriter(std::size_t size_hint) { buf_.reserve(size_hint); }

  /// Grows capacity to at least `n` bytes (hot paths pass the exact
  /// encoded size so a message serializes with one allocation).
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Drops the contents but keeps the capacity, so a scratch writer can
  /// be reused across messages without reallocating.
  void clear() { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { put_be(v); }
  void u32(std::uint32_t v) { put_be(v); }
  void u64(std::uint64_t v) { put_be(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// u32 length prefix followed by the bytes.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Appends `n` zero bytes and returns a view of them, so a caller can
  /// fill a field in place (the Spines daemon seals into it). The view
  /// is invalidated by the next append.
  std::span<std::uint8_t> extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return std::span<std::uint8_t>(buf_).subspan(at);
  }

  /// u32 length prefix followed by UTF-8 bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  /// Appends `v` most significant byte first: one capacity check, one
  /// byte-swapped store. `flatten` inlines the vector's insert, and the
  /// free space is computed as that insert computes it, so the compiler
  /// drops the insert's own check and reallocation path.
  template <class T>
  [[gnu::flatten]] void put_be(T v) {
    std::uint8_t be[sizeof(T)];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      be[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
    }
    const std::uint8_t* end = buf_.data() + buf_.size();
    if (static_cast<std::size_t>(buf_.data() + buf_.capacity() - end) < sizeof(T)) {
      grow_and_append(be, sizeof(T));
    } else {
      buf_.insert(buf_.end(), be, be + sizeof(T));
    }
  }

  /// Doubles the capacity, as one-byte appends would, until `n` bytes
  /// fit, then appends them. (An insert would grow to twice the size,
  /// and other capacities change the heap's peak.)
  [[gnu::noinline]] void grow_and_append(const std::uint8_t* bytes,
                                         std::size_t n) {
    std::size_t capacity = std::max<std::size_t>(buf_.capacity(), 1);
    while (capacity - buf_.size() < n) capacity *= 2;
    buf_.reserve(capacity);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }

  Bytes buf_;
};

/// Bounds-checked big-endian decoder over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() { return u8() != 0; }

  Bytes raw(std::size_t n) {
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Borrowed variant of raw(); same aliasing caveat as blob_span().
  std::span<const std::uint8_t> raw_span(std::size_t n) {
    need(n);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  Bytes blob() {
    std::uint32_t n = u32();
    if (n > remaining()) throw SerializationError("blob length exceeds input");
    return raw(n);
  }

  /// Borrowed u32-length-prefixed read for hot-path decoders: the view
  /// aliases the input buffer and must not outlive it.
  std::span<const std::uint8_t> blob_span() {
    std::uint32_t n = u32();
    if (n > remaining()) throw SerializationError("blob length exceeds input");
    return raw_span(n);
  }

  std::string str() {
    std::uint32_t n = u32();
    if (n > remaining()) throw SerializationError("string length exceeds input");
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Borrowed variant of str(); same aliasing caveat as blob_span().
  std::string_view str_view() {
    std::uint32_t n = u32();
    if (n > remaining()) throw SerializationError("string length exceeds input");
    std::string_view out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Remaining bytes without consuming them.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

  /// Current read position; pair with since() to capture the exact wire
  /// bytes a nested structure was decoded from (encode-once caching).
  [[nodiscard]] std::size_t offset() const { return pos_; }

  /// The input bytes consumed since `mark` (a prior offset()). Borrowed
  /// view; same aliasing caveat as blob_span().
  [[nodiscard]] std::span<const std::uint8_t> since(std::size_t mark) const {
    return data_.subspan(mark, pos_ - mark);
  }

  void expect_done() const {
    if (!done()) throw SerializationError("trailing bytes after message");
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw SerializationError("input truncated");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Convenience: byte vector from a string literal / view.
[[nodiscard]] inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

[[nodiscard]] inline std::string to_string(std::span<const std::uint8_t> b) {
  return std::string(b.begin(), b.end());
}

}  // namespace spire::util
