// String interning: maps strings to dense, stable uint32 handles so hot
// paths can replace string-keyed maps with flat vectors indexed by
// handle. Handles are assigned in insertion order starting at 0 and are
// never recycled; the interner is append-only.
//
// Storage is flat: the names sit back to back in one character arena,
// a handle-indexed vector holds where each one ends, and an
// open-addressing table of handles (linear probing, at most 3/4 full)
// finds a name's handle. Each name is stored once and no entry owns an
// allocation, so a directory of n names costs its characters plus
// about 4 + 4/load bytes per name.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spire::util {

class StringInterner {
 public:
  static constexpr std::uint32_t kInvalid = 0xFFFF'FFFF;

  /// Returns the handle for `s`, assigning the next dense handle (the
  /// current size()) if the string has not been seen before. Any
  /// intern() may move the arena and invalidates earlier name() views.
  std::uint32_t intern(std::string_view s) {
    if ((ends_.size() + 1) * 4 > table_.size() * 3) {
      rehash(table_.empty() ? 8 : table_.size() * 2);
    }
    std::uint32_t& slot = table_[find(s)];
    if (slot != kInvalid) return slot;
    if (chars_.size() + s.size() > kInvalid) {
      throw std::length_error("StringInterner arena full");
    }
    const auto handle = static_cast<std::uint32_t>(ends_.size());
    chars_.append(s);
    ends_.push_back(static_cast<std::uint32_t>(chars_.size()));
    return slot = handle;
  }

  /// Returns the handle for `s`, or kInvalid if it was never interned.
  [[nodiscard]] std::uint32_t lookup(std::string_view s) const {
    return table_.empty() ? kInvalid : table_[find(s)];
  }

  /// The name behind `handle`; throws std::out_of_range for a handle
  /// never assigned. Valid until the next intern().
  [[nodiscard]] std::string_view name(std::uint32_t handle) const {
    if (handle >= ends_.size()) {
      throw std::out_of_range("StringInterner::name");
    }
    return view(handle);
  }

  [[nodiscard]] std::size_t size() const { return ends_.size(); }

  /// Sizes the arena for `chars` characters and the index for `names`
  /// names, so interning up to that much allocates nothing more.
  void reserve(std::size_t names, std::size_t chars) {
    chars_.reserve(chars);
    ends_.reserve(names);
    if (names * 4 <= table_.size() * 3) return;
    std::size_t slots = table_.empty() ? 8 : table_.size();
    while (names * 4 > slots * 3) slots *= 2;
    rehash(slots);
  }

  /// Bytes held: arena, end offsets and table, by capacity.
  [[nodiscard]] std::size_t memory_bytes() const {
    return chars_.capacity() + ends_.capacity() * sizeof(std::uint32_t) +
           table_.capacity() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] std::string_view view(std::uint32_t handle) const {
    const std::uint32_t begin = handle == 0 ? 0 : ends_[handle - 1];
    return {chars_.data() + begin, ends_[handle] - begin};
  }

  /// Index of `s`'s table slot, or of the empty slot where it belongs.
  [[nodiscard]] std::size_t find(std::string_view s) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(s) & mask;
    while (table_[i] != kInvalid && view(table_[i]) != s) i = (i + 1) & mask;
    return i;
  }

  /// Rebuilds the table with `slots` (a power of two) slots.
  void rehash(std::size_t slots) {
    table_.assign(slots, kInvalid);
    for (std::uint32_t h = 0; h < ends_.size(); ++h) table_[find(view(h))] = h;
  }

  std::string chars_;                // every name, back to back
  std::vector<std::uint32_t> ends_;  // handle -> end offset in chars_
  std::vector<std::uint32_t> table_;  // open addressing; kInvalid = empty
};

}  // namespace spire::util
