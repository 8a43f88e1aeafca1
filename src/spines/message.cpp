#include "spines/message.hpp"

namespace spire::spines {

namespace {

/// A DataBody's fields borrowed from its encoding: peek_key() parses
/// with DataBody's own field list, so it accepts what decode() accepts.
struct DataView {
  std::string_view src;
  std::string_view dst;
  SessionPort src_port = 0;
  SessionPort dst_port = 0;
  Priority priority = Priority::kMedium;
  std::uint64_t msg_seq = 0;
  std::uint8_t ttl = 0;
  std::span<const std::uint8_t> payload;

  static auto fields(auto& s) { return DataBody::fields(s); }
};

}  // namespace

SPIRE_WIRE_CODEC_DEFINE(HelloBody)
SPIRE_WIRE_CODEC_DEFINE(AckBody)
SPIRE_WIRE_CODEC_DEFINE(LinkStateBody)
SPIRE_WIRE_CODEC_DEFINE(AreaSummaryBody)
SPIRE_WIRE_CODEC_DEFINE(DataBody)
SPIRE_WIRE_CODEC_DEFINE(LinkEnvelope)
SPIRE_WIRE_CODEC_DEFINE(InnerPacket)

util::Bytes LinkStateBody::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

util::Bytes AreaSummaryBody::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

std::optional<LinkEnvelope::View> LinkEnvelope::parse(
    std::span<const std::uint8_t> data) {
  return util::codec::decode<View>(data);
}

std::optional<InnerPacket::View> InnerPacket::parse(
    std::span<const std::uint8_t> data) {
  return util::codec::decode<View>(data);
}

std::optional<DataBody::Key> DataBody::peek_key(
    std::span<const std::uint8_t> data) {
  const auto f = util::codec::decode<DataView>(data);
  if (!f) return std::nullopt;
  return Key{f->src, f->msg_seq};
}

}  // namespace spire::spines
