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
#include "util/codec.hpp"

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

  static auto fields(auto& s) {
    return util::codec::fields(
        s.index, util::codec::list<kMaxBatchDepth, std::uint8_t>(s.path));
  }
  /// Also rejects an index outside the tree the path describes.
  void get(util::ByteReader& r);
};

/// The envelope's first byte: the MsgType, with kBatchedFlag set iff a
/// BatchProof follows the body. Decoding the flag engages `batch`.
template <typename Type, typename Batch>
struct EnvelopeTypeByte {
  Type& type;
  Batch& batch;

  [[nodiscard]] std::size_t size() const { return 1; }
  void put(util::ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>(type) | (batch ? kBatchedFlag : 0));
  }
  void get(util::ByteReader& r) {
    const std::uint8_t raw = r.u8();
    const std::uint8_t t = raw & static_cast<std::uint8_t>(~kBatchedFlag);
    if (t < 1 || t > kMaxMsgType) {
      throw util::SerializationError("bad msg type");
    }
    type = static_cast<MsgType>(t);
    if (raw & kBatchedFlag) batch.emplace();
  }
};

/// The BatchProof after the body, present iff the type byte flagged it.
template <typename Batch>
struct EnvelopeProof {
  Batch& batch;

  [[nodiscard]] std::size_t size() const {
    return batch ? util::codec::size(*batch) : 0;
  }
  void put(util::ByteWriter& w) const {
    if (batch) util::codec::put(w, *batch);
  }
  void get(util::ByteReader& r) {
    if (batch) util::codec::get(r, *batch);
  }
};

/// Outer, signed envelope for every Prime message.
struct Envelope {
  MsgType type = MsgType::kClientUpdate;
  std::string sender;  ///< identity, e.g. "prime/3" or "client/hmi"
  util::Bytes body;
  std::optional<BatchProof> batch;  ///< present iff batch-signed
  crypto::Signature signature;

  static auto fields(auto& s) {
    return util::codec::fields(EnvelopeTypeByte{s.type, s.batch}, s.sender,
                               s.body, EnvelopeProof{s.batch}, s.signature);
  }
  SPIRE_WIRE_CODEC(Envelope)

  /// The signed prefix for a solo envelope, and the Merkle-leaf
  /// preimage for a batched one (the flagged type byte is included, so
  /// a batched prefix can never double as a solo signed message).
  [[nodiscard]] util::Bytes signed_bytes() const;

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
//
// Vector caps bound what a decoder allocates for one message: 4096 for
// per-replica and per-quorum lists, 65536 updates per PO-Request, 256
// prepares per proof and 64 proofs per view-change report.

/// An end-client operation (HMI command, PLC status report).
struct ClientUpdate {
  std::string client;
  std::uint64_t client_seq = 0;
  util::Bytes payload;
  crypto::Signature client_sig;

  static auto fields(auto& s) {
    return util::codec::fields(s.client, s.client_seq, s.payload,
                               s.client_sig);
  }
  SPIRE_WIRE_CODEC(ClientUpdate)

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify(const crypto::Verifier& verifier) const;
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

  static auto fields(auto& s) {
    return util::codec::fields(s.origin, s.po_seq,
                               util::codec::list<65536>(s.updates));
  }
  SPIRE_WIRE_CODEC(PoRequest)
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

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.aru_seq,
                               util::codec::list<4096>(s.aru), s.sig);
  }
  SPIRE_WIRE_CODEC(PoAru)

  [[nodiscard]] util::Bytes signed_bytes() const;
  /// Signs and refreshes the cached encoding.
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify_embedded(const crypto::Verifier& verifier,
                                     const std::string& identity) const;

  /// Splices `raw` when cached, else writes the fields.
  void put(util::ByteWriter& w) const;
  /// Reads the fields and caches the bytes they came from in `raw`.
  void get(util::ByteReader& r);
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

  static auto fields(auto& s) {
    return util::codec::fields(s.leader, s.view, s.order_seq, s.matrix_digest,
                               util::codec::list<4096>(s.rows));
  }
  SPIRE_WIRE_CODEC(PrePrepare)

  /// Writes matrix() as the digest, computing it first if unset.
  void put(util::ByteWriter& w) const;
  /// Also rejects an all-zero claimed digest: zero is the "not yet
  /// computed" sentinel, which encoding would replace.
  void get(util::ByteReader& r);

  /// matrix_digest, computing it from rows if unset.
  [[nodiscard]] const crypto::Digest& matrix() const;
  /// Canonical digest over per-row presence + raw row bytes.
  [[nodiscard]] static crypto::Digest matrix_digest_of(
      const std::vector<Row>& rows);

  /// Digest that Prepare/Commit messages agree on; covers the header
  /// and the matrix digest.
  [[nodiscard]] crypto::Digest digest() const;
};

struct PrepareOrCommit {
  ReplicaId replica = 0;
  std::uint64_t view = 0;
  std::uint64_t order_seq = 0;
  crypto::Digest preprepare_digest{};

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.view, s.order_seq,
                               s.preprepare_digest);
  }
  SPIRE_WIRE_CODEC(PrepareOrCommit)
};

struct NewLeader {
  ReplicaId replica = 0;
  std::uint64_t proposed_view = 0;

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.proposed_view);
  }
  SPIRE_WIRE_CODEC(NewLeader)
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

  static auto fields(auto& s) {
    return util::codec::fields(s.order_seq, s.preprepare_envelope,
                               util::codec::list<256>(s.prepare_envelopes));
  }
  SPIRE_WIRE_CODEC(PreparedProof)
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

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.view, s.max_prepared,
                               s.max_committed,
                               util::codec::list<64>(s.prepared), s.sig);
  }
  SPIRE_WIRE_CODEC(ViewState)

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify_embedded(const crypto::Verifier& verifier,
                                     const std::string& identity) const;
};

struct NewView {
  ReplicaId leader = 0;
  std::uint64_t view = 0;
  std::uint64_t start_seq = 0;
  std::vector<ViewState> justification;

  static auto fields(auto& s) {
    return util::codec::fields(s.leader, s.view, s.start_seq,
                               util::codec::list<4096>(s.justification));
  }
  SPIRE_WIRE_CODEC(NewView)
};

struct PoReqFetch {
  ReplicaId origin = 0;
  std::uint64_t po_seq = 0;

  static auto fields(auto& s) {
    return util::codec::fields(s.origin, s.po_seq);
  }
  SPIRE_WIRE_CODEC(PoReqFetch)
};

/// Re-serves the origin-signed PO-Request envelope verbatim.
struct PoReqResp {
  ReplicaId origin = 0;
  std::uint64_t po_seq = 0;
  util::Bytes envelope;

  static auto fields(auto& s) {
    return util::codec::fields(s.origin, s.po_seq, s.envelope);
  }
  SPIRE_WIRE_CODEC(PoReqResp)
};

struct StateReq {
  std::uint64_t nonce = 0;

  static auto fields(auto& s) { return util::codec::fields(s.nonce); }
  SPIRE_WIRE_CODEC(StateReq)
};

/// Execution-state summary; a recovering replica adopts the state
/// vouched for by f+1 matching responses, then pulls the snapshot blob.
struct StateResp {
  std::uint64_t nonce = 0;
  std::uint64_t view = 0;
  std::uint64_t applied_seq = 0;
  crypto::Digest snapshot_digest{};

  static auto fields(auto& s) {
    return util::codec::fields(s.nonce, s.view, s.applied_seq,
                               s.snapshot_digest);
  }
  SPIRE_WIRE_CODEC(StateResp)
};

struct SnapshotReq {
  std::uint64_t nonce = 0;
  std::uint64_t applied_seq = 0;  ///< checkpoint boundary being requested

  static auto fields(auto& s) {
    return util::codec::fields(s.nonce, s.applied_seq);
  }
  SPIRE_WIRE_CODEC(SnapshotReq)
};

struct SnapshotResp {
  std::uint64_t nonce = 0;
  std::uint64_t applied_seq = 0;
  util::Bytes blob;  ///< exec cursors + application snapshot (see replica.cpp)

  static auto fields(auto& s) {
    return util::codec::fields(s.nonce, s.applied_seq, s.blob);
  }
  SPIRE_WIRE_CODEC(SnapshotResp)
};

struct CommitCertReq {
  std::uint64_t order_seq = 0;

  static auto fields(auto& s) { return util::codec::fields(s.order_seq); }
  SPIRE_WIRE_CODEC(CommitCertReq)
};

/// A committed Pre-Prepare plus a commit quorum, served verbatim.
struct CommitCertResp {
  std::uint64_t order_seq = 0;
  util::Bytes preprepare_envelope;
  std::vector<util::Bytes> commit_envelopes;

  static auto fields(auto& s) {
    return util::codec::fields(s.order_seq, s.preprepare_envelope,
                               util::codec::list<4096>(s.commit_envelopes));
  }
  SPIRE_WIRE_CODEC(CommitCertResp)
};

/// Periodic execution checkpoint; f+1 matching votes make a checkpoint
/// stable, and stable checkpoints anchor recovery state transfer.
struct Checkpoint {
  ReplicaId replica = 0;
  std::uint64_t applied_seq = 0;
  crypto::Digest snapshot_digest{};
  crypto::Signature sig;

  static auto fields(auto& s) {
    return util::codec::fields(s.replica, s.applied_seq, s.snapshot_digest,
                               s.sig);
  }
  SPIRE_WIRE_CODEC(Checkpoint)

  [[nodiscard]] util::Bytes signed_bytes() const;
  void sign(const crypto::Signer& signer);
  [[nodiscard]] bool verify_embedded(const crypto::Verifier& verifier,
                                     const std::string& identity) const;
};

/// Identity helpers.
[[nodiscard]] std::string replica_identity(ReplicaId id);

}  // namespace spire::prime
