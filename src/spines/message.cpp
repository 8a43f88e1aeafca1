#include "spines/message.hpp"

namespace spire::spines {

namespace {

template <typename T>
std::optional<T> guarded_decode(std::span<const std::uint8_t> data,
                                T (*parse)(util::ByteReader&)) {
  try {
    util::ByteReader r(data);
    T value = parse(r);
    r.expect_done();
    return value;
  } catch (const util::SerializationError&) {
    return std::nullopt;
  }
}

}  // namespace

util::Bytes HelloBody::encode() const {
  util::ByteWriter w;
  w.u64(seq);
  return w.take();
}

std::optional<HelloBody> HelloBody::decode(std::span<const std::uint8_t> data) {
  return guarded_decode<HelloBody>(data, [](util::ByteReader& r) {
    HelloBody h;
    h.seq = r.u64();
    return h;
  });
}

util::Bytes LinkStateBody::signed_bytes() const {
  util::ByteWriter w;
  w.str(origin);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(neighbors.size()));
  for (const auto& n : neighbors) w.str(n);
  return w.take();
}

util::Bytes LinkStateBody::encode() const {
  util::ByteWriter w;
  w.raw(signed_bytes());
  signature.encode(w);
  return w.take();
}

std::optional<LinkStateBody> LinkStateBody::decode(
    std::span<const std::uint8_t> data) {
  return guarded_decode<LinkStateBody>(data, [](util::ByteReader& r) {
    LinkStateBody b;
    b.origin = r.str();
    b.seq = r.u64();
    const std::uint32_t n = r.u32();
    if (n > 4096) throw util::SerializationError("absurd neighbor count");
    b.neighbors.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) b.neighbors.push_back(r.str());
    b.signature = crypto::Signature::decode(r);
    return b;
  });
}

util::Bytes AreaSummaryBody::signed_bytes() const {
  util::ByteWriter w;
  w.str(origin);
  w.u32(area);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(area_path.size()));
  for (const std::uint32_t a : area_path) w.u32(a);
  w.u32(total_members);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const auto& m : members) w.str(m);
  return w.take();
}

util::Bytes AreaSummaryBody::encode() const {
  util::ByteWriter w;
  w.raw(signed_bytes());
  signature.encode(w);
  return w.take();
}

std::optional<AreaSummaryBody> AreaSummaryBody::decode(
    std::span<const std::uint8_t> data) {
  return guarded_decode<AreaSummaryBody>(data, [](util::ByteReader& r) {
    AreaSummaryBody b;
    b.origin = r.str();
    b.area = r.u32();
    b.seq = r.u64();
    const std::uint32_t paths = r.u32();
    if (paths > 256) throw util::SerializationError("absurd area path");
    b.area_path.reserve(paths);
    for (std::uint32_t i = 0; i < paths; ++i) b.area_path.push_back(r.u32());
    b.total_members = r.u32();
    const std::uint32_t n = r.u32();
    if (n > 4096) throw util::SerializationError("absurd member count");
    b.members.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) b.members.push_back(r.str());
    b.signature = crypto::Signature::decode(r);
    return b;
  });
}

util::Bytes DataBody::encode() const {
  util::ByteWriter w(4 + src.size() + 4 + dst.size() + 2 + 2 + 1 + 8 + 1 + 4 +
                     payload.size());
  w.str(src);
  w.str(dst);
  w.u16(src_port);
  w.u16(dst_port);
  w.u8(static_cast<std::uint8_t>(priority));
  w.u64(msg_seq);
  w.u8(ttl);
  w.blob(payload);
  return w.take();
}

namespace {

/// A DataBody's fields borrowed from its encoding; decode() and
/// peek_key() share this one parser so they accept the same inputs.
struct DataFields {
  std::string_view src;
  std::string_view dst;
  SessionPort src_port = 0;
  SessionPort dst_port = 0;
  Priority priority = Priority::kMedium;
  std::uint64_t msg_seq = 0;
  std::uint8_t ttl = 0;
  std::span<const std::uint8_t> payload;
};

std::optional<DataFields> parse_data(std::span<const std::uint8_t> data) {
  return guarded_decode<DataFields>(data, [](util::ByteReader& r) {
    DataFields f;
    f.src = r.str_view();
    f.dst = r.str_view();
    f.src_port = r.u16();
    f.dst_port = r.u16();
    const std::uint8_t prio = r.u8();
    if (prio > 2) throw util::SerializationError("bad priority");
    f.priority = static_cast<Priority>(prio);
    f.msg_seq = r.u64();
    f.ttl = r.u8();
    f.payload = r.blob_span();
    return f;
  });
}

}  // namespace

std::optional<DataBody> DataBody::decode(std::span<const std::uint8_t> data) {
  const auto f = parse_data(data);
  if (!f) return std::nullopt;
  DataBody d;
  d.src.assign(f->src);
  d.dst.assign(f->dst);
  d.src_port = f->src_port;
  d.dst_port = f->dst_port;
  d.priority = f->priority;
  d.msg_seq = f->msg_seq;
  d.ttl = f->ttl;
  d.payload.assign(f->payload.begin(), f->payload.end());
  return d;
}

std::optional<DataBody::Key> DataBody::peek_key(
    std::span<const std::uint8_t> data) {
  const auto f = parse_data(data);
  if (!f) return std::nullopt;
  return Key{f->src, f->msg_seq};
}

util::Bytes LinkEnvelope::encode() const {
  util::ByteWriter w;
  w.str(sender);
  w.boolean(sealed);
  w.blob(body);
  return w.take();
}

std::optional<LinkEnvelope> LinkEnvelope::decode(
    std::span<const std::uint8_t> data) {
  return guarded_decode<LinkEnvelope>(data, [](util::ByteReader& r) {
    LinkEnvelope e;
    e.sender = r.str();
    e.sealed = r.boolean();
    e.body = r.blob();
    return e;
  });
}

util::Bytes InnerPacket::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(link_seq);
  w.blob(body);
  return w.take();
}

std::optional<InnerPacket> InnerPacket::decode(
    std::span<const std::uint8_t> data) {
  return guarded_decode<InnerPacket>(data, [](util::ByteReader& r) {
    InnerPacket p;
    const std::uint8_t t = r.u8();
    // 4 is the legacy debug opcode: intentionally NOT a valid packet.
    if (t < 1 || t > 6 || t == 4) {
      throw util::SerializationError("bad packet type");
    }
    p.type = static_cast<PacketType>(t);
    p.link_seq = r.u64();
    p.body = r.blob();
    return p;
  });
}

}  // namespace spire::spines
