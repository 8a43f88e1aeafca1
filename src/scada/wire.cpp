#include "scada/wire.hpp"

#include <algorithm>
#include <array>

namespace spire::scada {

namespace {

/// A MasterOutput frame whose body aliases the input.
struct OutputFrame {
  ScadaMsgType type = ScadaMsgType::kStateUpdate;
  std::span<const std::uint8_t> body;

  static auto fields(auto& s) { return MasterOutput::fields(s); }
};

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

SPIRE_WIRE_CODEC_DEFINE(StatusReport)
SPIRE_WIRE_CODEC_DEFINE(SupervisoryCommand)
SPIRE_WIRE_CODEC_DEFINE(BatchReport)
SPIRE_WIRE_CODEC_DEFINE(ResyncRequest)
SPIRE_WIRE_CODEC_DEFINE(ClientPayload)
SPIRE_WIRE_CODEC_DEFINE(CommandOrder)
SPIRE_WIRE_CODEC_DEFINE(StateUpdate)
SPIRE_WIRE_CODEC_DEFINE(MasterOutput)

util::Bytes CommandOrder::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

void CommandOrder::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
}

bool CommandOrder::verify(const crypto::Verifier& verifier,
                          const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

void StateUpdate::sign(const crypto::Signer& signer) {
  sig = signer.sign(state_update_signed_bytes(replica, version, kind,
                                              base_version,
                                              crypto::sha256(state)));
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
  const auto frame = util::codec::decode<OutputFrame>(data);
  if (!frame || frame->type != ScadaMsgType::kStateUpdate) return std::nullopt;
  return util::codec::decode<StateUpdateView>(frame->body);
}

}  // namespace spire::scada
