// SCADA application wire messages.
//
// These ride as opaque payloads inside Prime ClientUpdates (client ->
// replicas) and as replica-signed messages over the external Spines
// network (replicas -> proxies/HMI). Proxies and HMIs accept a
// replica-originated action only once f+1 replicas have sent identical
// content — the output-voting rule that makes a single compromised
// SCADA master harmless.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/keyring.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"

namespace spire::scada {

/// Tag 1, once a lone StatusReport update, is retired: field state
/// reaches the masters only as a kBatchReport, and decoders reject 1.
enum class ScadaMsgType : std::uint8_t {
  kSupervisoryCommand = 2, ///< HMI/cycler -> masters: operator action
  kCommandOrder = 3,       ///< masters -> proxy: forward command to PLC
  kStateUpdate = 4,        ///< masters -> HMI: topology state
  kBatchReport = 5,        ///< proxy -> masters: field reports, one or more
  kResyncRequest = 6,      ///< HMI -> masters: delta base missing, full please
};

/// Tags a decoder accepts; 1, the retired one-report update, is not.
constexpr bool wire_valid(ScadaMsgType t) {
  return t >= ScadaMsgType::kSupervisoryCommand &&
         t <= ScadaMsgType::kResyncRequest;
}

/// Field-state report for one device: the full breaker and reading
/// image, sent by its proxy when the breakers change or a heartbeat
/// is due. It travels only as a member of a BatchReport.
struct StatusReport {
  std::string device;
  std::uint64_t report_seq = 0;
  std::vector<bool> breakers;
  std::vector<std::uint16_t> readings;

  static auto fields(auto& s) {
    return util::codec::fields(s.device, s.report_seq,
                               util::codec::list<65536>(s.breakers),
                               util::codec::list<65536>(s.readings));
  }
  SPIRE_WIRE_CODEC(StatusReport)
};

/// Operator/automation command: set one breaker.
struct SupervisoryCommand {
  std::string device;
  std::uint16_t breaker = 0;
  bool close = false;
  std::uint64_t command_id = 0;  ///< issuer-unique

  static auto fields(auto& s) {
    return util::codec::fields(s.device, s.breaker, s.close, s.command_id);
  }
  SPIRE_WIRE_CODEC(SupervisoryCommand)
};

/// The one format a proxy submits: the StatusReports its delta batcher
/// coalesced into one Prime client update, so one ordering round and
/// one signature are amortized across every device change that arrived
/// inside the batch window. A flush of one report is a one-member batch.
struct BatchReport {
  std::vector<StatusReport> reports;

  static auto fields(auto& s) {
    return util::codec::fields(util::codec::blob_list<65536>(s.reports));
  }
  SPIRE_WIRE_CODEC(BatchReport)
};

/// HMI -> masters: the HMI's displayed version is too old to apply a
/// delta StateUpdate (it missed the base); masters answer the sender
/// with a full snapshot. Ordered through Prime so every replica serves
/// the same version and the f+1 vote still works.
struct ResyncRequest {
  std::uint64_t displayed_version = 0;

  static auto fields(auto& s) {
    return util::codec::fields(s.displayed_version);
  }
  SPIRE_WIRE_CODEC(ResyncRequest)
};

/// Client-update payload wrapper: [type u8][body].
struct ClientPayload {
  ScadaMsgType type = ScadaMsgType::kBatchReport;
  util::Bytes body;

  static auto fields(auto& s) { return util::codec::fields(s.type, s.body); }
  SPIRE_WIRE_CODEC(ClientPayload)
};

/// Replica -> proxy: execute a supervisory command on the field device.
/// Signed per replica; the proxy acts on f+1 matching orders.
struct CommandOrder {
  std::uint32_t replica = 0;
  std::string issuer;  ///< commanding client identity
  SupervisoryCommand command;
  crypto::Signature sig;

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.issuer,
                               util::codec::in_blob(s.command), s.sig);
  }
  SPIRE_WIRE_CODEC(CommandOrder)

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify(const crypto::Verifier& verifier,
                            const std::string& identity) const;
};

/// Replica -> HMI: versioned topology state. The HMI renders a version
/// once f+1 replicas sent byte-identical state at that version.
///
/// `kind` selects the payload: kFull carries the whole serialized
/// TopologyState; kDelta carries TopologyState::serialize_changes()
/// bytes covering every device that changed since `base_version` (the
/// previous publication). Delta records are absolute device states, so
/// any HMI whose displayed version is >= base_version can apply them.
///
/// Hash-then-sign: the replica's HMAC covers replica || version ||
/// kind || base_version || SHA-256(state), not the state itself, so an
/// HMI holding f+1 copies of one state hashes it once and checks f+1
/// small HMACs. The wire layout still carries the whole state.
struct StateUpdate {
  enum Kind : std::uint8_t { kFull = 0, kDelta = 1 };
  friend constexpr bool wire_valid(Kind k) { return k <= kDelta; }

  std::uint32_t replica = 0;
  std::uint64_t version = 0;
  Kind kind = kFull;
  std::uint64_t base_version = 0;  ///< meaningful for kDelta only
  util::Bytes state;  ///< serialized TopologyState or changes payload
  crypto::Signature sig;

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.version, s.kind, s.base_version,
                               s.state, s.sig);
  }
  SPIRE_WIRE_CODEC(StateUpdate)

  void sign(const crypto::Signer& signer);
};

/// Borrowed view of a StateUpdate: the HMI's receive path. Every span
/// aliases the parsed buffer and must not outlive it.
struct StateUpdateView {
  std::uint32_t replica = 0;
  std::uint64_t version = 0;
  StateUpdate::Kind kind = StateUpdate::kFull;
  std::uint64_t base_version = 0;
  std::span<const std::uint8_t> state;
  crypto::Signature sig;

  static auto fields(auto& s) { return StateUpdate::fields(s); }

  /// Checks the replica's HMAC; `state_digest` must be SHA-256(state).
  /// The caller supplies it so that copies of one state share one hash.
  [[nodiscard]] bool verify(const crypto::Verifier& verifier,
                            std::string_view identity,
                            const crypto::Digest& state_digest) const;

  /// Parses a MasterOutput frame; nullopt unless it is well-formed and
  /// carries a well-formed StateUpdate.
  static std::optional<StateUpdateView> parse_output(
      std::span<const std::uint8_t> data);
};

/// Outer framing for replica->client traffic: [type u8][body].
struct MasterOutput {
  ScadaMsgType type = ScadaMsgType::kStateUpdate;
  util::Bytes body;

  static auto fields(auto& s) { return util::codec::fields(s.type, s.body); }
  SPIRE_WIRE_CODEC(MasterOutput)
};

}  // namespace spire::scada
