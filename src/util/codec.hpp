// Declarative wire codec: each message lists its fields once.
//
// A wire struct names its fields in wire order, as a static member over
// references, and declares its codec members with SPIRE_WIRE_CODEC:
//
//   struct NewLeader {
//     ReplicaId replica = 0;
//     std::uint64_t proposed_view = 0;
//
//     static auto fields(auto& s) {
//       return util::codec::fields(s.replica, s.proposed_view);
//     }
//     SPIRE_WIRE_CODEC(NewLeader)
//   };
//
// and its source file defines them with SPIRE_WIRE_CODEC_DEFINE(NewLeader).
//
// The writer, the bounds-checked reader, the exact encoded size and the
// signed prefix all derive from that one list. Field types map to bytes
// as follows, integers big-endian:
//
//   bool                      u8, exactly 0 or 1
//   std::uint8/16/32/64_t     the integer
//   enum E                    its underlying integer; decode also
//                             requires wire_valid(E), found by ADL
//   std::string, string_view  u32 length, then the bytes
//   Bytes, span<const u8>     u32 length, then the bytes
//   std::array<u8, N>         the N bytes
//   shared_ptr<const T>       u8 tag: 0 null, 1 then T
//   a struct with fields()    its fields, inline
//   list<Cap>(v)              u32 count (decode rejects > Cap), elements
//   list<Cap, std::uint8_t>   the same with a u8 count
//   blob_list<Cap>(v)         list<Cap> with each element in a blob
//   in_blob(x)                u32 length, then x, which must fill it
//
// Decoding is canonical: whatever decodes encodes back to the same
// bytes. No field has two encodings (a bool is 0 or 1, an enum one of
// its valid tags), and every length is checked against the input.
//
// A view struct (string_view and span members, same member names)
// borrows its owner's list, `static auto fields(auto& s) { return
// Owner::fields(s); }`, and decodes without allocating; its spans alias
// the input. A struct whose wire form needs more than its fields (a
// cached encoding, a cross-field check) defines `void put(ByteWriter&)
// const` and/or `void get(ByteReader&)`, which the codec calls instead
// of walking the list; they call put_fields()/get_fields() themselves.
// A descriptor such as List or InBlob is a field-list entry that holds
// references and supplies size(), put() and get() itself.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace spire::util::codec {

template <typename T>
void put(ByteWriter& w, const T& v);
template <typename T>
void get(ByteReader& r, T& v);
template <typename T>
std::size_t size(const T& v);

/// Builds a field list: lvalue fields are held by reference, the
/// descriptors below by value.
template <typename... F>
auto fields(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

/// One value carried in a u32-length blob, which it must fill exactly.
template <typename T>
struct InBlob {
  T& x;

  [[nodiscard]] std::size_t size() const { return 4 + codec::size(x); }
  void put(ByteWriter& w) const {
    w.u32(static_cast<std::uint32_t>(codec::size(x)));
    codec::put(w, x);
  }
  void get(ByteReader& r) {
    ByteReader inner(r.blob_span());
    codec::get(inner, x);
    inner.expect_done();
  }
};

template <typename T>
InBlob<T> in_blob(T& x) {
  return {x};
}

/// A length-prefixed sequence; see list() and blob_list().
template <typename V, std::size_t Cap, typename Count, bool ItemsInBlobs>
struct List {
  V& v;

  [[nodiscard]] std::size_t size() const {
    std::size_t n = sizeof(Count);
    for (const auto& e : v) n += codec::size(item(e));
    return n;
  }
  void put(ByteWriter& w) const {
    codec::put(w, static_cast<Count>(v.size()));
    for (const auto& e : v) codec::put(w, item(e));
  }
  void get(ByteReader& r) {
    Count n = 0;
    codec::get(r, n);
    if (n > Cap) throw SerializationError("list longer than its cap");
    v.clear();
    // Every element takes at least one byte, so a count the input cannot
    // hold reserves no more than the input's length.
    v.reserve(std::min<std::size_t>(n, r.remaining()));
    for (Count i = 0; i < n; ++i) {
      typename V::value_type e{};
      auto&& wire = item(e);
      codec::get(r, wire);
      v.push_back(std::move(e));
    }
  }

 private:
  template <typename E>
  static decltype(auto) item(E& e) {
    if constexpr (ItemsInBlobs) {
      return InBlob<E>{e};
    } else {
      return (e);
    }
  }
};

template <std::size_t Cap, typename Count = std::uint32_t, typename V>
List<V, Cap, Count, false> list(V& v) {
  return {v};
}

template <std::size_t Cap, typename V>
List<V, Cap, std::uint32_t, true> blob_list(V& v) {
  return {v};
}

namespace detail {

template <typename T>
inline constexpr bool is_byte_array = false;
template <std::size_t N>
inline constexpr bool is_byte_array<std::array<std::uint8_t, N>> = true;

template <typename T>
inline constexpr bool is_shared = false;
template <typename T>
inline constexpr bool is_shared<std::shared_ptr<T>> = true;

template <typename T>
inline constexpr bool is_text =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view>;

template <typename T>
inline constexpr bool is_blob =
    std::is_same_v<T, Bytes> ||
    std::is_same_v<T, std::span<const std::uint8_t>>;

template <typename T>
concept HasFields = requires(T& t) { T::fields(t); };
template <typename T>
concept PutHook = requires(const T& t, ByteWriter& w) { t.put(w); };
template <typename T>
concept GetHook = requires(T& t, ByteReader& r) { t.get(r); };

template <typename T>
inline constexpr std::size_t field_count =
    std::tuple_size_v<decltype(T::fields(std::declval<T&>()))>;

}  // namespace detail

/// Writes the first N fields of x (all of them by default), bypassing
/// x's own put() hook; hooks call this. Always inlined, so the writer
/// stays in its owner's frame: behind an out-of-line call every byte
/// store may alias the vector's own pointers, which then reload per
/// byte (DataBody::encode took ~47 ns instead of ~30 ns).
template <typename T, std::size_t N = detail::field_count<T>>
[[gnu::always_inline]] inline void put_fields(ByteWriter& w, const T& x) {
  const auto f = T::fields(x);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (codec::put(w, std::get<I>(f)), ...);
  }(std::make_index_sequence<N>{});
}

/// Reads every field of x, bypassing x's own get() hook.
template <typename T>
void get_fields(ByteReader& r, T& x) {
  std::apply([&](auto&&... f) { (codec::get(r, f), ...); }, T::fields(x));
}

template <typename T, std::size_t N = detail::field_count<T>>
std::size_t size_fields(const T& x) {
  const auto f = T::fields(x);
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return (std::size_t{0} + ... + codec::size(std::get<I>(f)));
  }(std::make_index_sequence<N>{});
}

template <typename T>
void put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w.u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (detail::is_text<T>) {
    w.str(v);
  } else if constexpr (detail::is_blob<T>) {
    w.blob(v);
  } else if constexpr (detail::is_byte_array<T>) {
    w.raw(v);
  } else if constexpr (detail::is_shared<T>) {
    w.u8(v ? 1 : 0);
    if (v) put(w, *v);
  } else if constexpr (detail::PutHook<T>) {
    v.put(w);
  } else {
    static_assert(detail::HasFields<T>, "not a wire type");
    put_fields(w, v);
  }
}

template <typename T>
void get(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t b = r.u8();
    if (b > 1) throw SerializationError("bool byte not 0 or 1");
    v = b == 1;
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw = 0;
    get(r, raw);
    v = static_cast<T>(raw);
    if (!wire_valid(v)) throw SerializationError("bad enum tag");
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    v = r.u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, std::string_view>) {
    v = r.str_view();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.blob();
  } else if constexpr (std::is_same_v<T, std::span<const std::uint8_t>>) {
    v = r.blob_span();
  } else if constexpr (detail::is_byte_array<T>) {
    const auto raw = r.raw_span(v.size());
    std::copy(raw.begin(), raw.end(), v.begin());
  } else if constexpr (detail::is_shared<T>) {
    const std::uint8_t tag = r.u8();
    if (tag > 1) throw SerializationError("bad presence tag");
    if (tag == 0) {
      v = nullptr;
    } else {
      using Element = std::remove_const_t<typename T::element_type>;
      auto p = std::make_shared<Element>();
      get(r, *p);
      v = std::move(p);
    }
  } else if constexpr (detail::GetHook<T>) {
    v.get(r);
  } else {
    static_assert(detail::HasFields<T>, "not a wire type");
    get_fields(r, v);
  }
}

template <typename T>
std::size_t size(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (detail::is_text<T> || detail::is_blob<T>) {
    return 4 + v.size();
  } else if constexpr (detail::is_byte_array<T>) {
    return v.size();
  } else if constexpr (detail::is_shared<T>) {
    return 1 + (v ? size(*v) : 0);
  } else if constexpr (detail::HasFields<T>) {
    return size_fields(v);
  } else {
    return v.size();  // a descriptor
  }
}

/// The wire bytes of x, written into one exactly-sized allocation.
template <typename T>
Bytes encode(const T& x) {
  ByteWriter w(size(x));
  put(w, x);
  return w.take();
}

/// x decoded from exactly `data`; nullopt on any malformed input.
template <typename T>
std::optional<T> decode(std::span<const std::uint8_t> data) {
  try {
    ByteReader r(data);
    T x{};
    get(r, x);
    r.expect_done();
    return x;
  } catch (const SerializationError&) {
    return std::nullopt;
  }
}

/// The encoding of the first N fields of x.
template <std::size_t N, typename T>
Bytes prefix(const T& x) {
  ByteWriter w(size_fields<T, N>(x));
  put_fields<T, N>(w, x);
  return w.take();
}

/// What an embedded signature covers: every field but the last, which
/// is the signature itself.
template <typename T>
Bytes signed_prefix(const T& x) {
  return prefix<detail::field_count<T> - 1>(x);
}

}  // namespace spire::util::codec

/// Declares a wire struct's codec members, derived from its fields():
/// `Bytes encode() const` and `static std::optional<T> decode(span)`.
/// SPIRE_WIRE_CODEC_DEFINE(T), in the message's source file, defines
/// them there, so each message's codec is compiled once and not into
/// every caller.
#define SPIRE_WIRE_CODEC(T)                                            \
  [[nodiscard]] ::spire::util::Bytes encode() const;                   \
  static std::optional<T> decode(std::span<const std::uint8_t> data);

#define SPIRE_WIRE_CODEC_DEFINE(T)                                     \
  ::spire::util::Bytes T::encode() const {                             \
    return ::spire::util::codec::encode(*this);                        \
  }                                                                    \
  std::optional<T> T::decode(std::span<const std::uint8_t> data) {     \
    return ::spire::util::codec::decode<T>(data);                      \
  }
