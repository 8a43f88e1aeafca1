#include "prime/messages.hpp"

#include "crypto/merkle.hpp"

namespace spire::prime {

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

void put_digest(util::ByteWriter& w, const crypto::Digest& d) {
  w.raw(std::span<const std::uint8_t>(d.data(), d.size()));
}

crypto::Digest get_digest(util::ByteReader& r) {
  crypto::Digest d{};
  const auto raw = r.raw(d.size());
  std::copy(raw.begin(), raw.end(), d.begin());
  return d;
}

}  // namespace

std::string replica_identity(ReplicaId id) {
  return "prime/" + std::to_string(id);
}

// ---- Envelope --------------------------------------------------------------

util::Bytes Envelope::signed_bytes() const {
  util::ByteWriter w(1 + 4 + sender.size() + 4 + body.size());
  w.u8(static_cast<std::uint8_t>(type) | (batch ? kBatchedFlag : 0));
  w.str(sender);
  w.blob(body);
  return w.take();
}

util::Bytes Envelope::encode() const {
  util::ByteWriter w(encoded_size());
  w.u8(static_cast<std::uint8_t>(type) | (batch ? kBatchedFlag : 0));
  w.str(sender);
  w.blob(body);
  if (batch) {
    w.u32(batch->index);
    w.u8(static_cast<std::uint8_t>(batch->path.size()));
    for (const auto& d : batch->path) put_digest(w, d);
  }
  signature.encode(w);
  return w.take();
}

std::optional<Envelope> Envelope::decode(std::span<const std::uint8_t> data) {
  return guarded<Envelope>(data, [](util::ByteReader& r) {
    Envelope e;
    const std::uint8_t raw_type = r.u8();
    const std::uint8_t t = raw_type & static_cast<std::uint8_t>(~kBatchedFlag);
    if (t < 1 || t > kMaxMsgType) throw util::SerializationError("bad msg type");
    e.type = static_cast<MsgType>(t);
    e.sender = r.str();
    e.body = r.blob();
    if (raw_type & kBatchedFlag) {
      BatchProof proof;
      proof.index = r.u32();
      const std::uint8_t depth = r.u8();
      if (depth > kMaxBatchDepth) {
        throw util::SerializationError("absurd batch depth");
      }
      if (proof.index >= (1u << depth)) {
        throw util::SerializationError("batch index outside tree");
      }
      proof.path.reserve(depth);
      for (std::uint8_t i = 0; i < depth; ++i) proof.path.push_back(get_digest(r));
      e.batch = std::move(proof);
    }
    e.signature = crypto::Signature::decode(r);
    return e;
  });
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
  sig.encode(w);
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
    for (const auto& d : path) put_digest(w, d);
    sig.encode(w);
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
  util::ByteWriter w(4 + client.size() + 8 + 4 + payload.size());
  w.str(client);
  w.u64(client_seq);
  w.blob(payload);
  return w.take();
}

void ClientUpdate::sign(const crypto::Signer& signer) {
  client_sig = signer.sign(signed_bytes());
}

bool ClientUpdate::verify(const crypto::Verifier& verifier) const {
  return verifier.verify(client, signed_bytes(), client_sig);
}

void ClientUpdate::encode(util::ByteWriter& w) const {
  w.str(client);
  w.u64(client_seq);
  w.blob(payload);
  client_sig.encode(w);
}

ClientUpdate ClientUpdate::decode(util::ByteReader& r) {
  ClientUpdate u;
  u.client = r.str();
  u.client_seq = r.u64();
  u.payload = r.blob();
  u.client_sig = crypto::Signature::decode(r);
  return u;
}

util::Bytes seal_client_update(const crypto::Signer& client,
                               std::uint64_t client_seq, util::Bytes payload) {
  ClientUpdate update;
  update.client = client.identity();
  update.client_seq = client_seq;
  update.payload = std::move(payload);
  update.sign(client);
  util::ByteWriter w;
  update.encode(w);
  return Envelope::seal(MsgType::kClientUpdate, client, w.bytes());
}

// ---- PoRequest -------------------------------------------------------------

util::Bytes PoRequest::encode() const {
  util::ByteWriter w;
  w.u32(origin);
  w.u64(po_seq);
  w.u32(static_cast<std::uint32_t>(updates.size()));
  for (const auto& u : updates) u.encode(w);
  return w.take();
}

std::optional<PoRequest> PoRequest::decode(std::span<const std::uint8_t> data) {
  return guarded<PoRequest>(data, [](util::ByteReader& r) {
    PoRequest p;
    p.origin = r.u32();
    p.po_seq = r.u64();
    const std::uint32_t n = r.u32();
    if (n > 65536) throw util::SerializationError("absurd batch size");
    p.updates.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) p.updates.push_back(ClientUpdate::decode(r));
    return p;
  });
}

// ---- PoAru -----------------------------------------------------------------

util::Bytes PoAru::signed_bytes() const {
  util::ByteWriter w(4 + 8 + 4 + 8 * aru.size());
  w.u32(replica);
  w.u64(aru_seq);
  w.u32(static_cast<std::uint32_t>(aru.size()));
  for (auto v : aru) w.u64(v);
  return w.take();
}

void PoAru::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
  refresh_raw();
}

bool PoAru::verify_embedded(const crypto::Verifier& verifier,
                            const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

void PoAru::refresh_raw() {
  util::ByteWriter w(4 + 8 + 4 + 8 * aru.size() + sizeof(sig.mac));
  w.u32(replica);
  w.u64(aru_seq);
  w.u32(static_cast<std::uint32_t>(aru.size()));
  for (auto v : aru) w.u64(v);
  sig.encode(w);
  raw = w.take();
}

void PoAru::encode(util::ByteWriter& w) const {
  if (!raw.empty()) {
    w.raw(raw);
    return;
  }
  w.u32(replica);
  w.u64(aru_seq);
  w.u32(static_cast<std::uint32_t>(aru.size()));
  for (auto v : aru) w.u64(v);
  sig.encode(w);
}

PoAru PoAru::decode(util::ByteReader& r) {
  const std::size_t mark = r.offset();
  PoAru p;
  p.replica = r.u32();
  p.aru_seq = r.u64();
  const std::uint32_t n = r.u32();
  if (n > 4096) throw util::SerializationError("absurd aru width");
  p.aru.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) p.aru.push_back(r.u64());
  p.sig = crypto::Signature::decode(r);
  const auto consumed = r.since(mark);
  p.raw.assign(consumed.begin(), consumed.end());
  return p;
}

util::Bytes PoAru::encode_standalone() const {
  if (!raw.empty()) return raw;
  util::ByteWriter w(4 + 8 + 4 + 8 * aru.size() + sizeof(sig.mac));
  encode(w);
  return w.take();
}

std::optional<PoAru> PoAru::decode_standalone(
    std::span<const std::uint8_t> data) {
  return guarded<PoAru>(data, [](util::ByteReader& r) { return PoAru::decode(r); });
}

// ---- PrePrepare ------------------------------------------------------------

namespace {

// Row tags on the Pre-Prepare wire.
constexpr std::uint8_t kRowAbsent = 0;
constexpr std::uint8_t kRowInline = 1;

// Domain prefixes keep the matrix digest and the agreement digest from
// colliding with each other or with any signed unit.
constexpr std::string_view kMatrixDomain = "spire.pmx";
constexpr std::string_view kPrePrepareDomain = "spire.ppd";

void hash_str(crypto::Sha256& h, std::string_view s) {
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

}  // namespace

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
      const util::Bytes tmp = row->encode_standalone();
      h.update(tmp);
    }
  }
  return h.finish();
}

namespace {

void encode_rows(util::ByteWriter& w,
                 const std::vector<PrePrepare::Row>& rows) {
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const auto& row : rows) {
    if (row) {
      w.u8(kRowInline);
      row->encode(w);
    } else {
      w.u8(kRowAbsent);
    }
  }
}

std::vector<PrePrepare::Row> decode_rows(util::ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (n > 4096) throw util::SerializationError("absurd matrix size");
  std::vector<PrePrepare::Row> rows;
  rows.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t tag = r.u8();
    if (tag == kRowInline) {
      rows.push_back(std::make_shared<const PoAru>(PoAru::decode(r)));
    } else if (tag == kRowAbsent) {
      rows.push_back(nullptr);
    } else {
      throw util::SerializationError("bad row tag");
    }
  }
  return rows;
}

}  // namespace

util::Bytes PrePrepare::encode() const {
  std::size_t hint = 4 + 8 + 8 + 32 + 4 + rows.size();
  for (const auto& row : rows) {
    if (row) hint += 4 + 8 + 4 + 8 * row->aru.size() + sizeof(row->sig.mac);
  }
  util::ByteWriter w(hint);
  w.u32(leader);
  w.u64(view);
  w.u64(order_seq);
  put_digest(w, matrix());
  encode_rows(w, rows);
  return w.take();
}

std::optional<PrePrepare> PrePrepare::decode(
    std::span<const std::uint8_t> data) {
  return guarded<PrePrepare>(data, [](util::ByteReader& r) {
    PrePrepare p;
    p.leader = r.u32();
    p.view = r.u64();
    p.order_seq = r.u64();
    p.matrix_digest = get_digest(r);
    p.rows = decode_rows(r);
    return p;
  });
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

// ---- PrepareOrCommit -------------------------------------------------------

util::Bytes PrepareOrCommit::encode() const {
  util::ByteWriter w(4 + 8 + 8 + sizeof(preprepare_digest));
  w.u32(replica);
  w.u64(view);
  w.u64(order_seq);
  put_digest(w, preprepare_digest);
  return w.take();
}

std::optional<PrepareOrCommit> PrepareOrCommit::decode(
    std::span<const std::uint8_t> data) {
  return guarded<PrepareOrCommit>(data, [](util::ByteReader& r) {
    PrepareOrCommit p;
    p.replica = r.u32();
    p.view = r.u64();
    p.order_seq = r.u64();
    p.preprepare_digest = get_digest(r);
    return p;
  });
}

// ---- view change -----------------------------------------------------------

util::Bytes NewLeader::encode() const {
  util::ByteWriter w;
  w.u32(replica);
  w.u64(proposed_view);
  return w.take();
}

std::optional<NewLeader> NewLeader::decode(std::span<const std::uint8_t> data) {
  return guarded<NewLeader>(data, [](util::ByteReader& r) {
    NewLeader n;
    n.replica = r.u32();
    n.proposed_view = r.u64();
    return n;
  });
}

void PreparedProof::encode(util::ByteWriter& w) const {
  w.u64(order_seq);
  w.blob(preprepare_envelope);
  w.u32(static_cast<std::uint32_t>(prepare_envelopes.size()));
  for (const auto& p : prepare_envelopes) w.blob(p);
}

PreparedProof PreparedProof::decode(util::ByteReader& r) {
  PreparedProof proof;
  proof.order_seq = r.u64();
  proof.preprepare_envelope = r.blob();
  const std::uint32_t n = r.u32();
  if (n > 256) throw util::SerializationError("absurd prepare count");
  proof.prepare_envelopes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) proof.prepare_envelopes.push_back(r.blob());
  return proof;
}

util::Bytes ViewState::signed_bytes() const {
  util::ByteWriter w;
  w.u32(replica);
  w.u64(view);
  w.u64(max_prepared);
  w.u64(max_committed);
  w.u32(static_cast<std::uint32_t>(prepared.size()));
  for (const auto& proof : prepared) proof.encode(w);
  return w.take();
}

void ViewState::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
}

bool ViewState::verify_embedded(const crypto::Verifier& verifier,
                                const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

void ViewState::encode(util::ByteWriter& w) const {
  w.u32(replica);
  w.u64(view);
  w.u64(max_prepared);
  w.u64(max_committed);
  w.u32(static_cast<std::uint32_t>(prepared.size()));
  for (const auto& proof : prepared) proof.encode(w);
  sig.encode(w);
}

ViewState ViewState::decode(util::ByteReader& r) {
  ViewState v;
  v.replica = r.u32();
  v.view = r.u64();
  v.max_prepared = r.u64();
  v.max_committed = r.u64();
  const std::uint32_t n = r.u32();
  if (n > 64) throw util::SerializationError("absurd proof count");
  v.prepared.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v.prepared.push_back(PreparedProof::decode(r));
  }
  v.sig = crypto::Signature::decode(r);
  return v;
}

util::Bytes NewView::encode() const {
  util::ByteWriter w;
  w.u32(leader);
  w.u64(view);
  w.u64(start_seq);
  w.u32(static_cast<std::uint32_t>(justification.size()));
  for (const auto& vs : justification) vs.encode(w);
  return w.take();
}

std::optional<NewView> NewView::decode(std::span<const std::uint8_t> data) {
  return guarded<NewView>(data, [](util::ByteReader& r) {
    NewView n;
    n.leader = r.u32();
    n.view = r.u64();
    n.start_seq = r.u64();
    const std::uint32_t count = r.u32();
    if (count > 4096) throw util::SerializationError("absurd justification");
    n.justification.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      n.justification.push_back(ViewState::decode(r));
    }
    return n;
  });
}

// ---- reconciliation / state transfer ---------------------------------------

util::Bytes PoReqFetch::encode() const {
  util::ByteWriter w;
  w.u32(origin);
  w.u64(po_seq);
  return w.take();
}

std::optional<PoReqFetch> PoReqFetch::decode(
    std::span<const std::uint8_t> data) {
  return guarded<PoReqFetch>(data, [](util::ByteReader& r) {
    PoReqFetch f;
    f.origin = r.u32();
    f.po_seq = r.u64();
    return f;
  });
}

util::Bytes PoReqResp::encode() const {
  util::ByteWriter w;
  w.u32(origin);
  w.u64(po_seq);
  w.blob(envelope);
  return w.take();
}

std::optional<PoReqResp> PoReqResp::decode(std::span<const std::uint8_t> data) {
  return guarded<PoReqResp>(data, [](util::ByteReader& r) {
    PoReqResp p;
    p.origin = r.u32();
    p.po_seq = r.u64();
    p.envelope = r.blob();
    return p;
  });
}

util::Bytes StateReq::encode() const {
  util::ByteWriter w;
  w.u64(nonce);
  return w.take();
}

std::optional<StateReq> StateReq::decode(std::span<const std::uint8_t> data) {
  return guarded<StateReq>(data, [](util::ByteReader& r) {
    StateReq s;
    s.nonce = r.u64();
    return s;
  });
}

util::Bytes StateResp::encode() const {
  util::ByteWriter w;
  w.u64(nonce);
  w.u64(view);
  w.u64(applied_seq);
  put_digest(w, snapshot_digest);
  return w.take();
}

std::optional<StateResp> StateResp::decode(std::span<const std::uint8_t> data) {
  return guarded<StateResp>(data, [](util::ByteReader& r) {
    StateResp s;
    s.nonce = r.u64();
    s.view = r.u64();
    s.applied_seq = r.u64();
    s.snapshot_digest = get_digest(r);
    return s;
  });
}

util::Bytes SnapshotReq::encode() const {
  util::ByteWriter w;
  w.u64(nonce);
  w.u64(applied_seq);
  return w.take();
}

std::optional<SnapshotReq> SnapshotReq::decode(
    std::span<const std::uint8_t> data) {
  return guarded<SnapshotReq>(data, [](util::ByteReader& r) {
    SnapshotReq s;
    s.nonce = r.u64();
    s.applied_seq = r.u64();
    return s;
  });
}

util::Bytes SnapshotResp::encode() const {
  util::ByteWriter w;
  w.u64(nonce);
  w.u64(applied_seq);
  w.blob(blob);
  return w.take();
}

std::optional<SnapshotResp> SnapshotResp::decode(
    std::span<const std::uint8_t> data) {
  return guarded<SnapshotResp>(data, [](util::ByteReader& r) {
    SnapshotResp s;
    s.nonce = r.u64();
    s.applied_seq = r.u64();
    s.blob = r.blob();
    return s;
  });
}

util::Bytes CommitCertReq::encode() const {
  util::ByteWriter w;
  w.u64(order_seq);
  return w.take();
}

std::optional<CommitCertReq> CommitCertReq::decode(
    std::span<const std::uint8_t> data) {
  return guarded<CommitCertReq>(data, [](util::ByteReader& r) {
    CommitCertReq c;
    c.order_seq = r.u64();
    return c;
  });
}

util::Bytes CommitCertResp::encode() const {
  util::ByteWriter w;
  w.u64(order_seq);
  w.blob(preprepare_envelope);
  w.u32(static_cast<std::uint32_t>(commit_envelopes.size()));
  for (const auto& c : commit_envelopes) w.blob(c);
  return w.take();
}

std::optional<CommitCertResp> CommitCertResp::decode(
    std::span<const std::uint8_t> data) {
  return guarded<CommitCertResp>(data, [](util::ByteReader& r) {
    CommitCertResp c;
    c.order_seq = r.u64();
    c.preprepare_envelope = r.blob();
    const std::uint32_t n = r.u32();
    if (n > 4096) throw util::SerializationError("absurd commit count");
    c.commit_envelopes.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) c.commit_envelopes.push_back(r.blob());
    return c;
  });
}

// ---- Checkpoint ------------------------------------------------------------

util::Bytes Checkpoint::signed_bytes() const {
  util::ByteWriter w;
  w.u32(replica);
  w.u64(applied_seq);
  put_digest(w, snapshot_digest);
  return w.take();
}

void Checkpoint::sign(const crypto::Signer& signer) {
  sig = signer.sign(signed_bytes());
}

bool Checkpoint::verify_embedded(const crypto::Verifier& verifier,
                                 const std::string& identity) const {
  return verifier.verify(identity, signed_bytes(), sig);
}

util::Bytes Checkpoint::encode() const {
  util::ByteWriter w;
  w.u32(replica);
  w.u64(applied_seq);
  put_digest(w, snapshot_digest);
  sig.encode(w);
  return w.take();
}

std::optional<Checkpoint> Checkpoint::decode(
    std::span<const std::uint8_t> data) {
  return guarded<Checkpoint>(data, [](util::ByteReader& r) {
    Checkpoint c;
    c.replica = r.u32();
    c.applied_seq = r.u64();
    c.snapshot_digest = get_digest(r);
    c.sig = crypto::Signature::decode(r);
    return c;
  });
}

}  // namespace spire::prime
