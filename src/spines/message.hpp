// Spines overlay wire protocol.
//
// Five packet types flow between overlay daemons: link Hellos (liveness
// where no other traffic shows it), signed link-state updates (topology
// flooding), Data messages (session traffic), link-level Acks (the
// per-link ARQ), and signed Area Summaries (reachability across routing
// area borders). In intrusion-tolerant mode every daemon-to-daemon
// packet is sealed with the per-link key (AES-128-GCM) — the
// mechanism that made the red team's modified/patched Spines daemons
// harmless in the excursion (paper §IV-B).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/keyring.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"

namespace spire::spines {

/// Overlay node identifier, e.g. "int3" or "ext1".
using NodeId = std::string;

/// Session port within a daemon (application multiplexing).
using SessionPort = std::uint16_t;

/// Overlay multicast: a DataBody with this destination is delivered at
/// every node that has the session port open (except the origin) and is
/// flooded regardless of forwarding mode — Spines' multicast groups,
/// which Prime uses for its all-replica broadcasts.
inline const NodeId kBroadcastDst = "*";

/// Message priority: Spires' priority flooding serves higher classes
/// first; SCADA control traffic rides kHigh.
enum class Priority : std::uint8_t { kLow = 0, kMedium = 1, kHigh = 2 };

enum class PacketType : std::uint8_t {
  kHello = 1,
  kLinkState = 2,
  kData = 3,
  // 4 is the legacy debug opcode (deliberately not a valid InnerPacket).
  kAck = 5,  ///< link-level acknowledgment of an ARQ-tracked link_seq
  kAreaSummary = 6,  ///< border-daemon inter-area reachability summary
};

/// Types an InnerPacket may carry; 4, the legacy debug opcode, is not.
constexpr bool wire_valid(PacketType t) {
  return t >= PacketType::kHello && t <= PacketType::kAreaSummary &&
         static_cast<std::uint8_t>(t) != 4;
}

constexpr bool wire_valid(Priority p) { return p <= Priority::kHigh; }

struct HelloBody {
  std::uint64_t seq = 0;

  static auto fields(auto& s) { return util::codec::fields(s.seq); }
  SPIRE_WIRE_CODEC(HelloBody)
};

/// Acknowledges one ARQ-tracked link packet by its link_seq.
struct AckBody {
  std::uint64_t acked_seq = 0;

  static auto fields(auto& s) { return util::codec::fields(s.acked_seq); }
  SPIRE_WIRE_CODEC(AckBody)
};

/// Flooded, origin-signed adjacency advertisement.
struct LinkStateBody {
  NodeId origin;
  std::uint64_t seq = 0;
  std::vector<NodeId> neighbors;
  crypto::Signature signature;

  static auto fields(auto& s) {
    return util::codec::fields(s.origin, s.seq,
                               util::codec::list<4096>(s.neighbors),
                               s.signature);
  }
  SPIRE_WIRE_CODEC(LinkStateBody)

  /// Bytes covered by the signature (everything but the signature).
  [[nodiscard]] util::Bytes signed_bytes() const;
};

/// Border-daemon reachability summary (hierarchical area routing).
///
/// A border daemon periodically advertises which members of a subject
/// `area` are reachable, signed under its own identity — summaries are
/// always re-originated at each border ("next-hop-self"), never
/// relayed verbatim. `members` is a bounded, rotated subset of the
/// full set (BATMAN-style originator capping): `total_members` tells
/// receivers the full cardinality while each advertisement stays
/// O(cap). `area_path` lists the areas the information has traversed;
/// a border drops summaries whose path already contains its own area,
/// which bounds inter-area propagation to simple area paths.
struct AreaSummaryBody {
  NodeId origin;
  std::uint32_t area = 0;  ///< subject area the members belong to
  std::uint64_t seq = 0;   ///< per-origin, across all its summary streams
  std::vector<std::uint32_t> area_path;
  std::uint32_t total_members = 0;
  std::vector<NodeId> members;
  crypto::Signature signature;

  static auto fields(auto& s) {
    return util::codec::fields(s.origin, s.area, s.seq,
                               util::codec::list<256>(s.area_path),
                               s.total_members,
                               util::codec::list<4096>(s.members),
                               s.signature);
  }
  SPIRE_WIRE_CODEC(AreaSummaryBody)

  /// Bytes covered by the signature (everything but the signature).
  [[nodiscard]] util::Bytes signed_bytes() const;
};

/// End-to-end session message, forwarded hop by hop.
struct DataBody {
  NodeId src;
  NodeId dst;
  SessionPort src_port = 0;
  SessionPort dst_port = 0;
  Priority priority = Priority::kMedium;
  std::uint64_t msg_seq = 0;  ///< per-origin, for flood dedup
  std::uint8_t ttl = 32;
  util::Bytes payload;

  static auto fields(auto& s) {
    return util::codec::fields(s.src, s.dst, s.src_port, s.dst_port,
                               s.priority, s.msg_seq, s.ttl, s.payload);
  }
  SPIRE_WIRE_CODEC(DataBody)

  /// The flood-dedup key of an encoded body, borrowed from the input.
  struct Key {
    std::string_view src;
    std::uint64_t msg_seq = 0;
  };
  /// Reads the key without decoding: nullopt exactly when decode()
  /// fails, so a daemon can drop a duplicate before decode() allocates.
  static std::optional<Key> peek_key(std::span<const std::uint8_t> data);
};

/// Link-layer envelope: identifies the sending daemon (so the receiver
/// can pick the link key) and carries either a sealed or a plaintext
/// inner packet depending on the overlay's security mode.
struct LinkEnvelope {
  NodeId sender;
  bool sealed = false;
  util::Bytes body;  ///< sealed bytes, or plaintext [type u8 | body]

  static auto fields(auto& s) {
    return util::codec::fields(s.sender, s.sealed, s.body);
  }
  SPIRE_WIRE_CODEC(LinkEnvelope)

  /// The same layout over borrowed spans: the daemon's receive path.
  struct View {
    std::string_view sender;
    bool sealed = false;
    std::span<const std::uint8_t> body;

    static auto fields(auto& s) { return LinkEnvelope::fields(s); }
  };
  /// Accepts exactly what decode() accepts, without allocating.
  static std::optional<View> parse(std::span<const std::uint8_t> data);
};

/// The key that seals one direction of a link: HMAC-SHA256 of the
/// link's shared key over "dir:" + the sending daemon's id. Binding each
/// direction to its sender keeps the two directions' nonce spaces apart.
[[nodiscard]] inline crypto::SymmetricKey link_direction_key(
    const crypto::SymmetricKey& link_key, std::string_view sender) {
  const crypto::Digest d = crypto::hmac_sha256(
      link_key, util::to_bytes("dir:" + std::string(sender)));
  crypto::SymmetricKey key{};
  std::copy(d.begin(), d.end(), key.begin());
  return key;
}

/// Inner packet: [type u8][link_seq u64][body...].
struct InnerPacket {
  PacketType type = PacketType::kHello;
  std::uint64_t link_seq = 0;  ///< per-link replay counter
  util::Bytes body;

  static auto fields(auto& s) {
    return util::codec::fields(s.type, s.link_seq, s.body);
  }
  SPIRE_WIRE_CODEC(InnerPacket)

  /// The same layout over borrowed spans: the daemon's receive path.
  struct View {
    PacketType type = PacketType::kHello;
    std::uint64_t link_seq = 0;
    std::span<const std::uint8_t> body;

    static auto fields(auto& s) { return InnerPacket::fields(s); }
  };
  /// Accepts exactly what decode() accepts, without allocating.
  static std::optional<View> parse(std::span<const std::uint8_t> data);
};

}  // namespace spire::spines
