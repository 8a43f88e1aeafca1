// Ethernet frames, ARP packets, and UDP-style datagrams.
//
// Transport note (DESIGN.md §3): Modbus/TCP and the Spines link
// protocol ride on this datagram layer rather than a full TCP stack;
// both protocols carry their own transaction/sequence identifiers, so
// request/response matching and reliability are handled one layer up,
// exactly where the real systems implement them too (Spines builds its
// own reliability; Modbus proxies re-issue polls).
#pragma once

#include <cstdint>
#include <optional>

#include "net/address.hpp"
#include "util/bytes.hpp"

namespace spire::net {

enum class EtherType : std::uint16_t {
  kArp = 0x0806,
  kIpv4 = 0x0800,
};

enum class ArpOp : std::uint16_t {
  kRequest = 1,
  kReply = 2,
};

/// ARP request/reply body.
struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  IpAddress sender_ip;
  MacAddress target_mac;
  IpAddress target_ip;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<ArpPacket> decode(std::span<const std::uint8_t> data);
};

/// UDP-style datagram (IP header fields flattened in).
struct Datagram {
  IpAddress src_ip;
  IpAddress dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t ttl = 64;
  util::Bytes payload;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<Datagram> decode(std::span<const std::uint8_t> data);
  /// decode() for a buffer the caller gives up: the payload keeps
  /// `data`'s storage, with the header shifted out in place, instead of
  /// being copied into a new buffer.
  static std::optional<Datagram> decode_owned(util::Bytes data);
};

/// L2 frame as carried by switches and cables.
struct EthernetFrame {
  MacAddress src;
  MacAddress dst;
  EtherType ethertype = EtherType::kIpv4;
  util::Bytes payload;

  /// Wire size used for serialization-delay and queue accounting:
  /// 14-byte header + payload + 4-byte FCS, min 64.
  [[nodiscard]] std::size_t wire_size() const {
    return std::max<std::size_t>(64, 18 + payload.size());
  }
};

}  // namespace spire::net
