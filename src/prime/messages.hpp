// Prime BFT protocol messages.
//
// The reproduction implements Prime's structure (Amir et al., "Prime:
// Byzantine Replication Under Attack"), as deployed in Spire:
//
//   ClientUpdate -> PO-Request (origin broadcasts batched updates)
//                -> PO-ARU    (cumulative per-origin acknowledgment;
//                              PO-Acks are folded into the cumulative
//                              vector, see DESIGN.md)
//                -> Pre-Prepare (leader's full matrix of signed PO-ARUs,
//                                every row inline)
//                -> Prepare / Commit (PBFT-style agreement on the matrix)
//                -> deterministic execution from matrix eligibility.
//
// Plus the machinery the deployments exercised: suspect-leader /
// view-change messages for the bounded-delay guarantee, reconciliation
// and commit-certificate fetches, and the replication-level
// state-transfer signal of §III-A.
//
// Every message travels in a signed Envelope; PO-ARUs and ViewStates
// additionally carry embedded signatures so they can be re-shipped
// inside Pre-Prepares and New-Views and verified independently. A
// Pre-Prepare envelope is self-contained: prepared proofs and commit
// certificates re-serve it verbatim, and the receiver checks the rows
// it decodes from it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/keyring.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace spire::prime {

using ReplicaId = std::uint32_t;

enum class MsgType : std::uint8_t {
  kClientUpdate = 1,
  kPoRequest = 2,
  kPoAru = 3,
  kPrePrepare = 4,
  kPrepare = 5,
  kCommit = 6,
  kNewLeader = 7,
  kViewState = 8,
  kNewView = 9,
  kPoReqFetch = 10,
  kPoReqResp = 11,
  kStateReq = 12,
  kStateResp = 13,
  kSnapshotReq = 14,
  kSnapshotResp = 15,
  kCommitCertReq = 16,
  kCommitCertResp = 17,
  kCheckpoint = 18,
};

inline constexpr std::uint8_t kMaxMsgType = 18;
/// High bit of the wire type byte: the envelope carries a Merkle
/// inclusion proof and its signature covers the batch root.
inline constexpr std::uint8_t kBatchedFlag = 0x80;
inline constexpr std::size_t kMaxBatchDepth = 16;

/// Merkle inclusion proof for a batch-signed envelope: the signature
/// covers merkle_root_message(fold(leaf, index, path)) where leaf is
/// the hash of this envelope's signed prefix.
struct BatchProof {
  std::uint32_t index = 0;
  std::vector<crypto::Digest> path;
};

/// Outer, signed envelope for every Prime message.
struct Envelope {
  MsgType type = MsgType::kClientUpdate;
  std::string sender;  ///< identity, e.g. "prime/3" or "client/hmi"
  util::Bytes body;
  std::optional<BatchProof> batch;  ///< present iff batch-signed
  crypto::Signature signature;

  /// Exact wire size of encode(); used as a reserve() hint.
  [[nodiscard]] std::size_t encoded_size() const {
    return 1 + 4 + sender.size() + 4 + body.size() +
           (batch ? 4 + 1 + 32 * batch->path.size() : 0) +
           sizeof(signature.mac);
  }
  /// The signed prefix for a solo envelope, and the Merkle-leaf
  /// preimage for a batched one (the flagged type byte is included, so
  /// a batched prefix can never double as a solo signed message).
  [[nodiscard]] util::Bytes signed_bytes() const;
  [[nodiscard]] util::Bytes encode() const;
  static std::optional<Envelope> decode(std::span<const std::uint8_t> data);

  /// Builds and signs an envelope in one step.
  static Envelope make(MsgType type, const crypto::Signer& signer,
                       util::Bytes body);
  /// Signs and encodes in a single serialization pass: the wire form is
  /// signed_bytes() || signature, so the prefix is written once, signed
  /// in place, and the signature appended — one allocation total.
  static util::Bytes seal(MsgType type, const crypto::Signer& signer,
                          std::span<const std::uint8_t> body);

  /// One unit of a Merkle-signed send batch.
  struct BatchItem {
    MsgType type = MsgType::kClientUpdate;
    std::span<const std::uint8_t> body;
  };
  /// Seals every item with ONE signature: builds a Merkle tree over the
  /// per-item signed prefixes, signs the root, and emits each wire as
  /// prefix || inclusion proof || root signature.
  static std::vector<util::Bytes> seal_batch(
      const crypto::Signer& signer, std::span<const BatchItem> items);

  /// Verifies a solo signature, or folds the inclusion path and
  /// verifies the root signature for a batched envelope.
  [[nodiscard]] bool verify(const crypto::Verifier& verifier) const;
};

// ---- bodies ---------------------------------------------------------------

/// An end-client operation (HMI command, PLC status report).
struct ClientUpdate {
  std::string client;
  std::uint64_t client_seq = 0;
  util::Bytes payload;
  crypto::Signature client_sig;

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify(const crypto::Verifier& verifier) const;

  void encode(util::ByteWriter& w) const;
  static ClientUpdate decode(util::ByteReader& r);
};

/// The client side of Prime: signs update `client_seq` carrying
/// `payload` as `client` and seals it into a client-signed
/// kClientUpdate envelope. Returns the wire bytes every replica
/// accepts from that client.
[[nodiscard]] util::Bytes seal_client_update(const crypto::Signer& client,
                                             std::uint64_t client_seq,
                                             util::Bytes payload);

struct PoRequest {
  ReplicaId origin = 0;
  std::uint64_t po_seq = 0;
  std::vector<ClientUpdate> updates;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<PoRequest> decode(std::span<const std::uint8_t> data);
};

/// Cumulative acknowledgment: aru[i] = highest contiguous PO-Request
/// sequence received from origin i. Carries an embedded signature so
/// leaders can embed it in Pre-Prepare matrices.
///
/// Encode-once: `raw` caches the standalone wire encoding (fields plus
/// embedded signature). sign() and decode() fill it, so a row is
/// serialized exactly once in its lifetime — PrePrepare::encode()
/// splices the cached bytes, matrix digests hash them directly, and
/// verify_row short-circuits on raw-byte equality with an
/// already-accepted copy. Rows are shared immutably via
/// PrePrepare::Row (shared_ptr<const PoAru>).
struct PoAru {
  ReplicaId replica = 0;
  std::uint64_t aru_seq = 0;  ///< freshness counter
  std::vector<std::uint64_t> aru;
  crypto::Signature sig;
  util::Bytes raw;  ///< cached standalone encoding; not a wire field

  [[nodiscard]] util::Bytes signed_bytes() const;
  /// Signs and refreshes the cached encoding.
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify_embedded(const crypto::Verifier& verifier,
                                     const std::string& identity) const;

  /// Splices `raw` when cached, else re-serializes field by field.
  void encode(util::ByteWriter& w) const;
  /// Decodes and captures the consumed wire bytes into `raw`.
  static PoAru decode(util::ByteReader& r);
  void refresh_raw();
  [[nodiscard]] util::Bytes encode_standalone() const;
  static std::optional<PoAru> decode_standalone(
      std::span<const std::uint8_t> data);
};

/// The leader's ordered proposal: a matrix of the freshest signed
/// PO-ARUs it holds (one shared row per replica, null = absent).
///
/// Wire format: the header carries the leader-signed digest of the row
/// matrix, then one tag per row — 0 absent, 1 row bytes inline. Every
/// proposal carries its full matrix, so any single Pre-Prepare envelope
/// is self-contained. The agreement digest() covers header + matrix
/// digest only; receivers check the claimed matrix digest against the
/// rows they decoded.
struct PrePrepare {
  using Row = std::shared_ptr<const PoAru>;

  ReplicaId leader = 0;
  std::uint64_t view = 0;
  std::uint64_t order_seq = 0;
  std::vector<Row> rows;
  /// Digest of the row matrix: claimed (decode) or computed lazily from
  /// rows (encode/digest); zero means "not yet computed".
  mutable crypto::Digest matrix_digest{};

  /// matrix_digest, computing it from rows if unset.
  [[nodiscard]] const crypto::Digest& matrix() const;
  /// Canonical digest over per-row presence + raw row bytes.
  [[nodiscard]] static crypto::Digest matrix_digest_of(
      const std::vector<Row>& rows);

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<PrePrepare> decode(std::span<const std::uint8_t> data);
  /// Digest that Prepare/Commit messages agree on; covers the header
  /// and the matrix digest.
  [[nodiscard]] crypto::Digest digest() const;
};

struct PrepareOrCommit {
  ReplicaId replica = 0;
  std::uint64_t view = 0;
  std::uint64_t order_seq = 0;
  crypto::Digest preprepare_digest{};

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<PrepareOrCommit> decode(
      std::span<const std::uint8_t> data);
};

struct NewLeader {
  ReplicaId replica = 0;
  std::uint64_t proposed_view = 0;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<NewLeader> decode(std::span<const std::uint8_t> data);
};

/// A self-certifying prepared certificate: the old-view Pre-Prepare
/// envelope plus a quorum of matching Prepare envelopes. Slots that
/// might have committed anywhere are exactly the slots some member of
/// any view-change quorum holds prepared (quorum intersection), so
/// carrying these lets the new leader re-propose them instead of
/// abandoning possibly-executed work — the PBFT-style safety rule.
struct PreparedProof {
  std::uint64_t order_seq = 0;
  util::Bytes preprepare_envelope;
  std::vector<util::Bytes> prepare_envelopes;

  void encode(util::ByteWriter& w) const;
  static PreparedProof decode(util::ByteReader& r);
};

/// Per-replica ordering state reported to the new leader during a view
/// change; embedded-signed so the NewView can prove its start_seq.
struct ViewState {
  ReplicaId replica = 0;
  std::uint64_t view = 0;
  std::uint64_t max_prepared = 0;
  std::uint64_t max_committed = 0;  ///< the reporter's applied_seq
  std::vector<PreparedProof> prepared;  ///< prepared-uncommitted slots
  crypto::Signature sig;

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify_embedded(const crypto::Verifier& verifier,
                                     const std::string& identity) const;

  void encode(util::ByteWriter& w) const;
  static ViewState decode(util::ByteReader& r);
};

struct NewView {
  ReplicaId leader = 0;
  std::uint64_t view = 0;
  std::uint64_t start_seq = 0;
  std::vector<ViewState> justification;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<NewView> decode(std::span<const std::uint8_t> data);
};

struct PoReqFetch {
  ReplicaId origin = 0;
  std::uint64_t po_seq = 0;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<PoReqFetch> decode(std::span<const std::uint8_t> data);
};

/// Re-serves the origin-signed PO-Request envelope verbatim.
struct PoReqResp {
  ReplicaId origin = 0;
  std::uint64_t po_seq = 0;
  util::Bytes envelope;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<PoReqResp> decode(std::span<const std::uint8_t> data);
};

struct StateReq {
  std::uint64_t nonce = 0;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<StateReq> decode(std::span<const std::uint8_t> data);
};

/// Execution-state summary; a recovering replica adopts the state
/// vouched for by f+1 matching responses, then pulls the snapshot blob.
struct StateResp {
  std::uint64_t nonce = 0;
  std::uint64_t view = 0;
  std::uint64_t applied_seq = 0;
  crypto::Digest snapshot_digest{};

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<StateResp> decode(std::span<const std::uint8_t> data);
};

struct SnapshotReq {
  std::uint64_t nonce = 0;
  std::uint64_t applied_seq = 0;  ///< checkpoint boundary being requested

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<SnapshotReq> decode(std::span<const std::uint8_t> data);
};

struct SnapshotResp {
  std::uint64_t nonce = 0;
  std::uint64_t applied_seq = 0;
  util::Bytes blob;  ///< exec cursors + application snapshot (see replica.cpp)

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<SnapshotResp> decode(std::span<const std::uint8_t> data);
};

struct CommitCertReq {
  std::uint64_t order_seq = 0;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<CommitCertReq> decode(std::span<const std::uint8_t> data);
};

/// A committed Pre-Prepare plus a commit quorum, served verbatim.
struct CommitCertResp {
  std::uint64_t order_seq = 0;
  util::Bytes preprepare_envelope;
  std::vector<util::Bytes> commit_envelopes;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<CommitCertResp> decode(
      std::span<const std::uint8_t> data);
};

/// Periodic execution checkpoint; f+1 matching votes make a checkpoint
/// stable, and stable checkpoints anchor recovery state transfer.
struct Checkpoint {
  ReplicaId replica = 0;
  std::uint64_t applied_seq = 0;
  crypto::Digest snapshot_digest{};
  crypto::Signature sig;

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify_embedded(const crypto::Verifier& verifier,
                                     const std::string& identity) const;

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<Checkpoint> decode(std::span<const std::uint8_t> data);
};

/// Identity helpers.
[[nodiscard]] std::string replica_identity(ReplicaId id);

}  // namespace spire::prime
