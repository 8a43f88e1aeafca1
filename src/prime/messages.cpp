#include "prime/messages.hpp"

#include "crypto/merkle.hpp"

namespace spire::prime {

std::string replica_identity(ReplicaId id) {
  return "prime/" + std::to_string(id);
}

SPIRE_WIRE_CODEC_DEFINE(Envelope)
SPIRE_WIRE_CODEC_DEFINE(ClientUpdate)
SPIRE_WIRE_CODEC_DEFINE(PoRequest)
SPIRE_WIRE_CODEC_DEFINE(PoAru)
SPIRE_WIRE_CODEC_DEFINE(PrePrepare)
SPIRE_WIRE_CODEC_DEFINE(PrepareOrCommit)
SPIRE_WIRE_CODEC_DEFINE(NewLeader)
SPIRE_WIRE_CODEC_DEFINE(PreparedProof)
SPIRE_WIRE_CODEC_DEFINE(ViewState)
SPIRE_WIRE_CODEC_DEFINE(NewView)
SPIRE_WIRE_CODEC_DEFINE(PoReqFetch)
SPIRE_WIRE_CODEC_DEFINE(PoReqResp)
SPIRE_WIRE_CODEC_DEFINE(StateReq)
SPIRE_WIRE_CODEC_DEFINE(StateResp)
SPIRE_WIRE_CODEC_DEFINE(SnapshotReq)
SPIRE_WIRE_CODEC_DEFINE(SnapshotResp)
SPIRE_WIRE_CODEC_DEFINE(CommitCertReq)
SPIRE_WIRE_CODEC_DEFINE(CommitCertResp)
SPIRE_WIRE_CODEC_DEFINE(Checkpoint)

// ---- Envelope --------------------------------------------------------------

void BatchProof::get(util::ByteReader& r) {
  util::codec::get_fields(r, *this);
  if (index >= (1u << path.size())) {
    throw util::SerializationError("batch index outside tree");
  }
}

util::Bytes Envelope::signed_bytes() const {
  return util::codec::prefix<3>(*this);
}

Envelope Envelope::make(MsgType type, const crypto::Signer& signer,
                        util::Bytes body) {
  Envelope e;
  e.type = type;
  e.sender = signer.identity();
  e.body = std::move(body);
  e.signature = signer.sign(e.signed_bytes());
  return e;
}

util::Bytes Envelope::seal(MsgType type, const crypto::Signer& signer,
                           std::span<const std::uint8_t> body) {
  util::ByteWriter w(1 + 4 + signer.identity().size() + 4 + body.size() +
                     sizeof(crypto::Signature::mac));
  w.u8(static_cast<std::uint8_t>(type));
  w.str(signer.identity());
  w.blob(body);
  const crypto::Signature sig = signer.sign(w.bytes());
  w.raw(sig.mac);
  return w.take();
}

std::vector<util::Bytes> Envelope::seal_batch(const crypto::Signer& signer,
                                              std::span<const BatchItem> items) {
  if (items.empty()) return {};
  if (items.size() > (1u << kMaxBatchDepth)) {
    throw std::invalid_argument("batch too large");
  }
  const std::string& identity = signer.identity();
  std::vector<util::ByteWriter> prefixes(items.size());
  std::vector<crypto::Digest> leaves;
  leaves.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    util::ByteWriter& w = prefixes[i];
    // Proof suffix is depth*32 + 5; over-reserving by a level is fine.
    w.reserve(1 + 4 + identity.size() + 4 + items[i].body.size() + 5 +
              32 * (kMaxBatchDepth / 2) + sizeof(crypto::Signature::mac));
    w.u8(static_cast<std::uint8_t>(items[i].type) | kBatchedFlag);
    w.str(identity);
    w.blob(items[i].body);
    leaves.push_back(crypto::merkle_leaf(w.bytes()));
  }
  const crypto::MerkleTree tree(std::move(leaves));
  const crypto::Signature sig =
      signer.sign(crypto::merkle_root_message(tree.root()));
  std::vector<util::Bytes> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    util::ByteWriter& w = prefixes[i];
    const auto path = tree.path(i);
    w.u32(static_cast<std::uint32_t>(i));
    w.u8(static_cast<std::uint8_t>(path.size()));
    for (const auto& d : path) w.raw(d);
    w.raw(sig.mac);
    out.push_back(w.take());
  }
  return out;
}

bool Envelope::verify(const crypto::Verifier& verifier) const {
  if (!batch) return verifier.verify(sender, signed_bytes(), signature);
  const crypto::Digest leaf = crypto::merkle_leaf(signed_bytes());
  const crypto::Digest root =
      crypto::MerkleTree::fold(leaf, batch->index, batch->path);
  return verifier.verify(sender, crypto::merkle_root_message(root), signature);
}

// ---- ClientUpdate ----------------------------------------------------------

util::Bytes ClientUpdate::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

void ClientUpdate::sign(const crypto::Signer& signer) {
  client_sig = signer.sign(signed_bytes());
}

bool ClientUpdate::verify(const crypto::Verifier& verifier) const {
  return verifier.verify(client, signed_bytes(), client_sig);
}

util::Bytes seal_client_update(const crypto::Signer& client,
                               std::uint64_t client_seq, util::Bytes payload) {
  ClientUpdate update;
  update.client = client.identity();
  update.client_seq = client_seq;
  update.payload = std::move(payload);
  update.sign(client);
  return Envelope::seal(MsgType::kClientUpdate, client, update.encode());
}

// ---- PoAru -----------------------------------------------------------------

util::Bytes PoAru::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

void PoAru::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
  raw.clear();  // else encode() would splice the stale bytes
  raw = encode();
}

bool PoAru::verify_embedded(const crypto::Verifier& verifier,
                            const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

void PoAru::put(util::ByteWriter& w) const {
  if (raw.empty()) {
    util::codec::put_fields(w, *this);
  } else {
    w.raw(raw);
  }
}

void PoAru::get(util::ByteReader& r) {
  const std::size_t mark = r.offset();
  util::codec::get_fields(r, *this);
  const auto consumed = r.since(mark);
  raw.assign(consumed.begin(), consumed.end());
}

// ---- PrePrepare ------------------------------------------------------------

namespace {

// Domain prefixes keep the matrix digest and the agreement digest from
// colliding with each other or with any signed unit.
constexpr std::string_view kMatrixDomain = "spire.pmx";
constexpr std::string_view kPrePrepareDomain = "spire.ppd";

void hash_str(crypto::Sha256& h, std::string_view s) {
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

}  // namespace

void PrePrepare::put(util::ByteWriter& w) const {
  static_cast<void>(matrix());  // fills matrix_digest if unset
  util::codec::put_fields(w, *this);
}

void PrePrepare::get(util::ByteReader& r) {
  util::codec::get_fields(r, *this);
  if (matrix_digest == crypto::Digest{}) {
    throw util::SerializationError("zero matrix digest");
  }
}

const crypto::Digest& PrePrepare::matrix() const {
  if (matrix_digest == crypto::Digest{}) {
    matrix_digest = matrix_digest_of(rows);
  }
  return matrix_digest;
}

crypto::Digest PrePrepare::matrix_digest_of(const std::vector<Row>& rows) {
  crypto::Sha256 h;
  hash_str(h, kMatrixDomain);
  for (const auto& row : rows) {
    const std::uint8_t present = row ? 1 : 0;
    h.update(std::span<const std::uint8_t>(&present, 1));
    if (!row) continue;
    if (!row->raw.empty()) {
      h.update(row->raw);
    } else {
      h.update(row->encode());
    }
  }
  return h.finish();
}

crypto::Digest PrePrepare::digest() const {
  crypto::Sha256 h;
  hash_str(h, kPrePrepareDomain);
  util::ByteWriter w(4 + 8 + 8 + 4);
  w.u32(leader);
  w.u64(view);
  w.u64(order_seq);
  w.u32(static_cast<std::uint32_t>(rows.size()));
  h.update(w.bytes());
  h.update(matrix());
  return h.finish();
}

// ---- embedded signatures ---------------------------------------------------

util::Bytes ViewState::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

void ViewState::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
}

bool ViewState::verify_embedded(const crypto::Verifier& verifier,
                                const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

util::Bytes Checkpoint::signed_bytes() const {
  return util::codec::signed_prefix(*this);
}

void Checkpoint::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
}

bool Checkpoint::verify_embedded(const crypto::Verifier& verifier,
                                 const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

}  // namespace spire::prime
