#include "net/frame.hpp"

namespace spire::net {

namespace {

void put_mac(util::ByteWriter& w, const MacAddress& mac) {
  w.raw(std::span<const std::uint8_t>(mac.bytes.data(), mac.bytes.size()));
}

MacAddress get_mac(util::ByteReader& r) {
  MacAddress mac;
  const auto raw = r.raw(6);
  std::copy(raw.begin(), raw.end(), mac.bytes.begin());
  return mac;
}

}  // namespace

util::Bytes ArpPacket::encode() const {
  util::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(op));
  put_mac(w, sender_mac);
  w.u32(sender_ip.value);
  put_mac(w, target_mac);
  w.u32(target_ip.value);
  return w.take();
}

std::optional<ArpPacket> ArpPacket::decode(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    ArpPacket p;
    p.op = static_cast<ArpOp>(r.u16());
    p.sender_mac = get_mac(r);
    p.sender_ip = IpAddress{r.u32()};
    p.target_mac = get_mac(r);
    p.target_ip = IpAddress{r.u32()};
    r.expect_done();
    if (p.op != ArpOp::kRequest && p.op != ArpOp::kReply) return std::nullopt;
    return p;
  } catch (const util::SerializationError&) {
    return std::nullopt;
  }
}

util::Bytes Datagram::encode() const {
  util::ByteWriter w(4 + 4 + 2 + 2 + 1 + 4 + payload.size());
  w.u32(src_ip.value);
  w.u32(dst_ip.value);
  w.u16(src_port);
  w.u16(dst_port);
  w.u8(ttl);
  w.blob(payload);
  return w.take();
}

namespace {

/// Reads the fields before the payload into `d` and returns the
/// payload's offset in `data`, or nullopt if the header is malformed or
/// the length prefix does not cover exactly the rest of `data`.
std::optional<std::size_t> decode_header(std::span<const std::uint8_t> data,
                                         Datagram& d) {
  try {
    util::ByteReader r(data);
    d.src_ip = IpAddress{r.u32()};
    d.dst_ip = IpAddress{r.u32()};
    d.src_port = r.u16();
    d.dst_port = r.u16();
    d.ttl = r.u8();
    const std::uint32_t payload_size = r.u32();
    if (payload_size != r.remaining()) return std::nullopt;
    return r.offset();
  } catch (const util::SerializationError&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<Datagram> Datagram::decode(std::span<const std::uint8_t> data) {
  Datagram d;
  const auto offset = decode_header(data, d);
  if (!offset) return std::nullopt;
  d.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(*offset), data.end());
  return d;
}

std::optional<Datagram> Datagram::decode_owned(util::Bytes data) {
  Datagram d;
  const auto offset = decode_header(data, d);
  if (!offset) return std::nullopt;
  data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(*offset));
  d.payload = std::move(data);
  return d;
}

}  // namespace spire::net
