#include "scada/wire.hpp"

#include <algorithm>
#include <array>

namespace spire::scada {

namespace {

template <typename T>
std::optional<T> guarded(std::span<const std::uint8_t> data,
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

void put_bools(util::ByteWriter& w, const std::vector<bool>& bits) {
  w.u32(static_cast<std::uint32_t>(bits.size()));
  for (const bool b : bits) w.boolean(b);
}

std::vector<bool> get_bools(util::ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (n > 65536) throw util::SerializationError("absurd bit count");
  std::vector<bool> bits(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Only 0 and 1: a decoded report re-encodes to the bytes it came in.
    const std::uint8_t b = r.u8();
    if (b > 1) throw util::SerializationError("bad bit");
    bits[i] = b != 0;
  }
  return bits;
}

/// ScadaMsgType tags in use; 1 (the retired one-report update) is not.
ScadaMsgType read_type(util::ByteReader& r) {
  const std::uint8_t t = r.u8();
  if (t < 2 || t > 6) throw util::SerializationError("bad scada type");
  return static_cast<ScadaMsgType>(t);
}

/// The one MasterOutput parser; the body aliases the input.
struct OutputFrame {
  ScadaMsgType type = ScadaMsgType::kStateUpdate;
  std::span<const std::uint8_t> body;
};

OutputFrame read_output_frame(util::ByteReader& r) {
  OutputFrame m;
  m.type = read_type(r);
  m.body = r.blob_span();
  return m;
}

/// The one StateUpdate parser; decode() copies out of its view.
std::optional<StateUpdateView> parse_state_update(
    std::span<const std::uint8_t> data) {
  return guarded<StateUpdateView>(data, [](util::ByteReader& r) {
    StateUpdateView s;
    s.replica = r.u32();
    s.version = r.u64();
    s.kind = r.u8();
    if (s.kind > StateUpdate::kDelta) {
      throw util::SerializationError("bad state-update kind");
    }
    s.base_version = r.u64();
    s.state = r.blob_span();
    s.sig = crypto::Signature::decode(r);
    return s;
  });
}

/// What a replica's StateUpdate HMAC covers: replica, version, kind and
/// base_version, big-endian as on the wire, then the state's SHA-256.
using StateSignedBytes = std::array<std::uint8_t, 4 + 8 + 1 + 8 + 32>;

StateSignedBytes state_update_signed_bytes(std::uint32_t replica,
                                           std::uint64_t version,
                                           std::uint8_t kind,
                                           std::uint64_t base_version,
                                           const crypto::Digest& state_digest) {
  StateSignedBytes out{};
  std::size_t at = 0;
  const auto put = [&](std::uint64_t v, int bytes) {
    for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
      out[at++] = static_cast<std::uint8_t>(v >> shift);
    }
  };
  put(replica, 4);
  put(version, 8);
  put(kind, 1);
  put(base_version, 8);
  std::copy(state_digest.begin(), state_digest.end(), out.begin() + at);
  return out;
}

}  // namespace

util::Bytes StatusReport::encode() const {
  util::ByteWriter w;
  w.str(device);
  w.u64(report_seq);
  put_bools(w, breakers);
  w.u32(static_cast<std::uint32_t>(readings.size()));
  for (const auto v : readings) w.u16(v);
  return w.take();
}

std::optional<StatusReport> StatusReport::decode(
    std::span<const std::uint8_t> data) {
  return guarded<StatusReport>(data, [](util::ByteReader& r) {
    StatusReport s;
    s.device = r.str();
    s.report_seq = r.u64();
    s.breakers = get_bools(r);
    const std::uint32_t n = r.u32();
    if (n > 65536) throw util::SerializationError("absurd reading count");
    s.readings.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) s.readings.push_back(r.u16());
    return s;
  });
}

util::Bytes SupervisoryCommand::encode() const {
  util::ByteWriter w;
  w.str(device);
  w.u16(breaker);
  w.boolean(close);
  w.u64(command_id);
  return w.take();
}

std::optional<SupervisoryCommand> SupervisoryCommand::decode(
    std::span<const std::uint8_t> data) {
  return guarded<SupervisoryCommand>(data, [](util::ByteReader& r) {
    SupervisoryCommand c;
    c.device = r.str();
    c.breaker = r.u16();
    c.close = r.boolean();
    c.command_id = r.u64();
    return c;
  });
}

util::Bytes BatchReport::encode() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(reports.size()));
  for (const auto& report : reports) w.blob(report.encode());
  return w.take();
}

std::optional<BatchReport> BatchReport::decode(
    std::span<const std::uint8_t> data) {
  return guarded<BatchReport>(data, [](util::ByteReader& r) {
    BatchReport b;
    const std::uint32_t n = r.u32();
    if (n > 65536) throw util::SerializationError("absurd batch count");
    b.reports.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto report = StatusReport::decode(r.blob_span());
      if (!report) throw util::SerializationError("bad batched report");
      b.reports.push_back(*report);
    }
    return b;
  });
}

util::Bytes ResyncRequest::encode() const {
  util::ByteWriter w;
  w.u64(displayed_version);
  return w.take();
}

std::optional<ResyncRequest> ResyncRequest::decode(
    std::span<const std::uint8_t> data) {
  return guarded<ResyncRequest>(data, [](util::ByteReader& r) {
    ResyncRequest q;
    q.displayed_version = r.u64();
    return q;
  });
}

util::Bytes ClientPayload::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.blob(body);
  return w.take();
}

std::optional<ClientPayload> ClientPayload::decode(
    std::span<const std::uint8_t> data) {
  return guarded<ClientPayload>(data, [](util::ByteReader& r) {
    ClientPayload p;
    p.type = read_type(r);
    p.body = r.blob();
    return p;
  });
}

util::Bytes CommandOrder::signed_bytes() const {
  util::ByteWriter w;
  w.u32(replica);
  w.str(issuer);
  w.blob(command.encode());
  return w.take();
}

void CommandOrder::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
}

bool CommandOrder::verify(const crypto::Verifier& verifier,
                          const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

util::Bytes CommandOrder::encode() const {
  util::ByteWriter w;
  w.raw(signed_bytes());
  sig.encode(w);
  return w.take();
}

std::optional<CommandOrder> CommandOrder::decode(
    std::span<const std::uint8_t> data) {
  return guarded<CommandOrder>(data, [](util::ByteReader& r) {
    CommandOrder o;
    o.replica = r.u32();
    o.issuer = r.str();
    const auto body = r.blob();
    const auto cmd = SupervisoryCommand::decode(body);
    if (!cmd) throw util::SerializationError("bad inner command");
    o.command = *cmd;
    o.sig = crypto::Signature::decode(r);
    return o;
  });
}

void StateUpdate::sign(const crypto::Signer& signer) {
  sig = signer.sign(state_update_signed_bytes(replica, version, kind,
                                              base_version,
                                              crypto::sha256(state)));
}

util::Bytes StateUpdate::encode() const {
  util::ByteWriter w(4 + 8 + 1 + 8 + 4 + state.size() + sig.mac.size());
  w.u32(replica);
  w.u64(version);
  w.u8(kind);
  w.u64(base_version);
  w.blob(state);
  sig.encode(w);
  return w.take();
}

std::optional<StateUpdate> StateUpdate::decode(
    std::span<const std::uint8_t> data) {
  const auto view = parse_state_update(data);
  if (!view) return std::nullopt;
  StateUpdate s;
  s.replica = view->replica;
  s.version = view->version;
  s.kind = view->kind;
  s.base_version = view->base_version;
  s.state.assign(view->state.begin(), view->state.end());
  s.sig = view->sig;
  return s;
}

bool StateUpdateView::verify(const crypto::Verifier& verifier,
                             std::string_view identity,
                             const crypto::Digest& state_digest) const {
  return verifier.verify(identity,
                         state_update_signed_bytes(replica, version, kind,
                                                   base_version, state_digest),
                         sig);
}

std::optional<StateUpdateView> StateUpdateView::parse_output(
    std::span<const std::uint8_t> data) {
  const auto frame = guarded<OutputFrame>(data, read_output_frame);
  if (!frame || frame->type != ScadaMsgType::kStateUpdate) return std::nullopt;
  return parse_state_update(frame->body);
}

util::Bytes MasterOutput::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.blob(body);
  return w.take();
}

std::optional<MasterOutput> MasterOutput::decode(
    std::span<const std::uint8_t> data) {
  const auto frame = guarded<OutputFrame>(data, read_output_frame);
  if (!frame) return std::nullopt;
  MasterOutput m;
  m.type = frame->type;
  m.body.assign(frame->body.begin(), frame->body.end());
  return m;
}

}  // namespace spire::scada
