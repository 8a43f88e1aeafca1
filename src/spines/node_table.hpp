// NodeTable: the overlay daemon's interner from NodeId strings to dense
// uint32 handles. Interning happens once at admission time (neighbor
// declaration, verified LSU acceptance, first dedup sighting); every
// per-packet structure — neighbor slots, routes, LSDB, per-priority
// queues, the dedup ring — is then a flat vector indexed by handle, so
// the forwarding path does zero string compares.
#pragma once

#include <cstdint>
#include <string_view>

#include "spines/message.hpp"
#include "util/interner.hpp"

namespace spire::spines {

using NodeHandle = std::uint32_t;
constexpr NodeHandle kNoHandle = util::StringInterner::kInvalid;

/// Upper bound on distinct node names a daemon will ever
/// intern. Wire input from a compromised member could otherwise mint
/// unbounded fresh NodeIds (as LSU neighbors, summary members, or data
/// sources) and grow the table — and every handle-indexed vector —
/// without limit. Sized for wide-area deployments (500+ daemons × area
/// summaries) with a wide margin.
constexpr std::size_t kMaxOverlayNodes = 16384;

class NodeTable {
 public:
  NodeTable() = default;
  explicit NodeTable(std::size_t max_nodes) : max_nodes_(max_nodes) {}

  /// Interns `id`, or returns kNoHandle once the table is full (the
  /// caller drops the packet — legitimate memberships are far
  /// smaller). Hitting the bound is an explicit, counted overflow, not
  /// a silent cap: check overflows() to detect an undersized table.
  NodeHandle intern(std::string_view id) {
    const NodeHandle existing = interner_.lookup(id);
    if (existing != kNoHandle) return existing;  // steady state: one probe
    if (interner_.size() >= max_nodes_) {
      ++overflows_;
      return kNoHandle;
    }
    return interner_.intern(id);
  }

  [[nodiscard]] NodeHandle lookup(std::string_view id) const {
    return interner_.lookup(id);
  }

  /// Valid until the next intern().
  [[nodiscard]] std::string_view name(NodeHandle handle) const {
    return interner_.name(handle);
  }

  [[nodiscard]] std::size_t size() const { return interner_.size(); }
  [[nodiscard]] std::size_t capacity() const { return max_nodes_; }
  /// Intern attempts rejected because the table was full.
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }

 private:
  util::StringInterner interner_;
  std::size_t max_nodes_ = kMaxOverlayNodes;
  std::uint64_t overflows_ = 0;
};

}  // namespace spire::spines
