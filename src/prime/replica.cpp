#include "prime/replica.hpp"

#include <algorithm>

#include "crypto/merkle.hpp"
#include "obs/trace.hpp"

namespace spire::prime {

namespace {
/// Certificate retries before a gap that no known stable checkpoint
/// covers falls back to state transfer.
constexpr int kStateTransferFallbackAttempts = 100;  // ~5 s of retries
/// A non-leader suspects a leader silent this long (polled at a quarter
/// of it).
constexpr sim::Time kSuspectTimeout = 1 * sim::kSecond;
constexpr sim::Time kReconInterval = 50 * sim::kMillisecond;
}  // namespace

Replica::Replica(sim::Simulator& sim, ReplicaId id, PrimeConfig config,
                 const crypto::Keyring& keyring, Application& app,
                 std::unique_ptr<ReplicaTransport> transport, sim::Rng rng)
    : sim_(sim),
      id_(id),
      config_(std::move(config)),
      keyring_(keyring),
      signer_(replica_identity(id), keyring.identity_key(replica_identity(id))),
      app_(app),
      transport_(std::move(transport)),
      rng_(rng),
      log_("prime." + std::to_string(id)),
      metrics_("prime.replica" + std::to_string(id)) {
  metrics_.counter("updates_executed", &stats_.updates_executed);
  metrics_.counter("po_requests_sent", &stats_.po_requests_sent);
  metrics_.counter("po_arus_sent", &stats_.po_arus_sent);
  metrics_.counter("preprepares_sent", &stats_.preprepares_sent);
  metrics_.counter("matrices_applied", &stats_.matrices_applied);
  metrics_.counter("view_changes", &stats_.view_changes);
  metrics_.counter("state_transfers", &stats_.state_transfers);
  metrics_.counter("fetches_sent", &stats_.fetches_sent);
  metrics_.counter("dropped_bad_signature", &stats_.dropped_bad_signature);
  metrics_.counter("dropped_unknown_client", &stats_.dropped_unknown_client);
  metrics_.counter("checkpoints_stable", &stats_.checkpoints_stable);
  metrics_.counter("verify_cache_hits", &stats_.verify_cache_hits);
  metrics_.counter("stale_po_arus_dropped", &stats_.stale_po_arus_dropped);
  metrics_.counter("recon_fetches_queued", &stats_.recon_fetches_queued);
  metrics_.counter("recon_fetches_satisfied",
                   &stats_.recon_fetches_satisfied);
  metrics_.counter("row_verify_short_circuits",
                   &stats_.row_verify_short_circuits);
  metrics_.counter("batches_sealed", &stats_.batches_sealed);
  metrics_.counter("state_transfer_bytes", &stats_.state_transfer_bytes);
  metrics_.counter("state_reqs_sent", &stats_.state_reqs_sent);
  metrics_.counter("suspect_ticks", &stats_.suspect_ticks);
  metrics_.counter("turnaround_suspects", &stats_.turnaround_suspects);
  metrics_.counter("equivocation_suspects", &stats_.equivocation_suspects);
  metrics_.counter("withheld_aru_suspects", &stats_.withheld_aru_suspects);
  metrics_.counter("byz_preprepares_delayed", &stats_.byz_preprepares_delayed);
  metrics_.counter("byz_equivocations_sent", &stats_.byz_equivocations_sent);
  metrics_.counter("byz_rows_withheld", &stats_.byz_rows_withheld);
  metrics_.counter("byz_merkle_paths_forged", &stats_.byz_merkle_paths_forged);
  // PO-Requests still held decoded; an executed one keeps only its
  // signed envelope (apply_matrix), so this counts the unexecuted.
  metrics_.gauge_fn("po_requests_decoded", [this] {
    std::int64_t decoded = 0;
    for (const PoLog& log : po_log_) {
      for (const PoSlot& slot : log.slots) {
        if (slot.stored && !slot.stored->request.updates.empty()) ++decoded;
      }
    }
    return decoded;
  });
  // Retained state (DESIGN.md §5): what garbage collection at the stable
  // checkpoint leaves, now and at its most.
  metrics_.gauge_fn("retained_slots", [this] {
    return static_cast<std::int64_t>(slots_.size());
  });
  metrics_.gauge_fn("retained_po_envelopes", [this] {
    return static_cast<std::int64_t>(retained_po().first);
  });
  metrics_.gauge_fn("retained_po_bytes", [this] {
    return static_cast<std::int64_t>(retained_po().second);
  });
  metrics_.counter("retained_slots_high_water",
                   &stats_.retained_slots_high_water);
  metrics_.counter("retained_po_envelopes_high_water",
                   &stats_.retained_po_envelopes_high_water);
  metrics_.counter("retained_po_bytes_high_water",
                   &stats_.retained_po_bytes_high_water);
  identities_.reserve(config_.n());
  for (ReplicaId r = 0; r < config_.n(); ++r) {
    identities_.push_back(replica_identity(r));
    verifier_.add_identity(identities_.back(),
                           keyring.identity_key(identities_.back()));
  }
  for (const auto& client : config_.client_identities) {
    verifier_.add_identity(client, keyring.identity_key(client));
  }
  recv_aru_.assign(config_.n(), 0);
  exec_aru_.assign(config_.n(), 0);
  latest_aru_.assign(config_.n(), nullptr);
  latest_aru_view_.assign(config_.n(), 0);
  peer_turnaround_.resize(config_.n());
  po_log_ = std::vector<PoLog>(config_.n());
}

void Replica::start() {
  // A start() while timers are already chained (double start, or start
  // after a recover() whose state transfer re-armed them) must orphan
  // the old chain, or every periodic tick runs twice — which halves the
  // effective suspicion threshold (PR 9 bugfix).
  ++epoch_;
  running_ = true;
  recovering_ = false;
  variant_ = rng_.next();
  verify_cache_.clear();
  // start() is a *fresh-world* boot: every replica begins it together
  // (initial deployment, or the full-system restart of a ground-truth
  // rebuild), so the monotonic counters reset consistently with the
  // peers' wiped PO stores. recover() — a single replica rejoining a
  // live system — deliberately preserves them instead.
  next_po_seq_ = 1;
  my_aru_seq_ = 0;
  if (!started_once_) {
    started_once_ = true;
    initial_app_snapshot_ = app_.snapshot();
  } else {
    // Restart from a clean image: the application state is wiped too
    // (a SCADA master rebuilds it from field-device reports, §III-A).
    app_.restore(initial_app_snapshot_);
  }
  // Checkpoint 0 = the deterministic initial state; it anchors recovery
  // for replicas that rejoin before the first periodic checkpoint.
  take_checkpoint();
  arm_timers();
}

void Replica::shutdown() {
  running_ = false;
  recovering_ = false;
  ++epoch_;  // orphan all scheduled timers

  // Volatile state is lost on takedown, as with a real proactive
  // recovery that wipes the machine.
  pending_batch_.clear();
  last_batched_.clear();
  preorder_buffer_.clear();
  preorder_stall_.clear();
  po_log_ = std::vector<PoLog>(config_.n());
  recv_aru_.assign(config_.n(), 0);
  latest_aru_.assign(config_.n(), nullptr);
  latest_aru_view_.assign(config_.n(), 0);
  turnaround_.clear();
  for (auto& pending : peer_turnaround_) pending.clear();
  turnaround_baseline_ = 0;
  byz_holdback_.clear();
  send_queue_.clear();
  flush_scheduled_ = false;
  // next_po_seq_ and my_aru_seq_ deliberately survive the wipe: they
  // model secure-hardware-backed monotonic counters (as proactive
  // recovery systems keep for exactly this reason). Reusing PO sequence
  // numbers after rejuvenation would collide with the old requests
  // still stored at peers, silently losing the new ones.
  view_ = 0;
  next_order_seq_ = 1;
  view_start_.clear();
  slots_.clear();
  applied_seq_ = 0;
  highest_committed_ = 0;
  cert_attempts_.clear();
  exec_aru_.assign(config_.n(), 0);
  executed_clients_.clear();
  new_leader_votes_.clear();
  collected_view_states_.clear();
  new_view_sent_ = false;
  new_view_envelope_.clear();
  new_view_served_at_.clear();
  expected_rows_.clear();
  reproposal_top_ = 0;
  reproposal_view_ = 0;
  checkpoint_blobs_.clear();
  checkpoint_votes_.clear();
  stable_checkpoint_.reset();
  checkpoint_served_at_.clear();
  state_resps_.clear();
  chosen_state_.reset();
  catching_up_ = false;
  outstanding_cert_fetches_.clear();
  recon_applied_seq_.reset();
  last_prop_rows_.clear();
  last_suspected_view_ = 0;
  // Rejuvenation semantics: acceptances recorded before the takedown
  // are not trustworthy afterwards (see verify_cache.hpp).
  verify_cache_.clear();
}

void Replica::recover() {
  shutdown();
  ++epoch_;
  running_ = true;
  recovering_ = true;
  variant_ = rng_.next();  // fresh diversity variant (MultiCompiler stand-in)
  state_nonce_ = rng_.next();
  behavior_ = ReplicaBehavior::kCorrect;  // clean code image
  byz_ = ByzantineConfig{};               // scripted compromise wiped too
  log_.info("recovering with new variant ", variant_);
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(1, [this, epoch] { recovery_tick(epoch); });
}

bool Replica::acting_crashed() const {
  return behavior_ == ReplicaBehavior::kCrashed;
}

void Replica::arm_timers() {
  const std::uint64_t epoch = epoch_;
  last_po_aru_sent_.reset();
  last_leader_activity_ = sim_.now();
  sim_.schedule_after(config_.po_request_interval,
                      [this, epoch] { po_flush_tick(epoch); });
  sim_.schedule_after(config_.po_aru_interval,
                      [this, epoch] { po_aru_tick(epoch); });
  sim_.schedule_after(config_.preprepare_interval,
                      [this, epoch] { preprepare_tick(epoch); });
  sim_.schedule_after(kSuspectTimeout / 4,
                      [this, epoch] { suspect_tick(epoch); });
  sim_.schedule_after(kReconInterval,
                      [this, epoch] { recon_tick(epoch); });
}

const std::string& Replica::identity_of(ReplicaId r) const {
  static const std::string kUnknown;
  return r < identities_.size() ? identities_[r] : kUnknown;
}

bool Replica::sender_is(const Envelope& env, ReplicaId r) const {
  return r < identities_.size() && env.sender == identities_[r];
}

std::optional<ReplicaId> Replica::sender_id(const Envelope& env) const {
  for (ReplicaId r = 0; r < identities_.size(); ++r) {
    if (env.sender == identities_[r]) return r;
  }
  return std::nullopt;
}

bool Replica::verify_unit(const std::string& identity,
                          std::span<const std::uint8_t> unit_bytes,
                          const crypto::Signature& sig, bool cacheable) {
  if (cacheable) {
    const crypto::Digest d = crypto::sha256(unit_bytes);
    if (verify_cache_.contains(identity, d)) {
      ++stats_.verify_cache_hits;
      return true;
    }
    // The wire form is signed-prefix || MAC, so the signed portion is
    // the unit minus its trailing MAC — verified without re-serializing.
    const auto prefix = unit_bytes.first(unit_bytes.size() - sizeof(sig.mac));
    if (!verifier_.verify(identity, prefix, sig)) return false;
    verify_cache_.insert(identity, d);
    return true;
  }
  const auto prefix = unit_bytes.first(unit_bytes.size() - sizeof(sig.mac));
  return verifier_.verify(identity, prefix, sig);
}

bool Replica::verify_envelope(const Envelope& env,
                              std::span<const std::uint8_t> raw_bytes,
                              bool cacheable) {
  if (!env.batch) {
    return verify_unit(env.sender, raw_bytes, env.signature, cacheable);
  }
  // Batch-signed: the signature covers the Merkle root of the whole
  // send batch. Hash this unit's signed prefix into its leaf, fold the
  // inclusion path, and memoize the verified root — every other unit
  // of the batch then verifies with hashes alone. The root digest is a
  // sound cache key: it binds the full leaf preimage (sender included)
  // through SHA-256.
  const std::size_t suffix = 4 + 1 + 32 * env.batch->path.size() +
                             sizeof(env.signature.mac);
  if (raw_bytes.size() < suffix) return false;  // unreachable post-decode
  const crypto::Digest leaf =
      crypto::merkle_leaf(raw_bytes.first(raw_bytes.size() - suffix));
  const crypto::Digest root =
      crypto::MerkleTree::fold(leaf, env.batch->index, env.batch->path);
  if (verify_cache_.contains(env.sender, root)) {
    ++stats_.verify_cache_hits;
    return true;
  }
  if (!verifier_.verify(env.sender, crypto::merkle_root_message(root),
                        env.signature)) {
    return false;
  }
  verify_cache_.insert(env.sender, root);
  return true;
}

bool Replica::verify_row(const PoAru& row, ReplicaId r) {
  // Encode-once fast path: a row whose raw bytes equal the PO-ARU we
  // already accepted into latest_aru_ needs no crypto at all. Equality
  // of the FULL standalone encoding (signature included) is required —
  // (replica, aru_seq) alone would be unsound, since a Byzantine
  // replica can sign two different PO-ARUs with the same aru_seq. The
  // acceptance view must match too: a replayed stale row in a later
  // view goes through full (memoized) verification again.
  if (r < latest_aru_.size() && latest_aru_[r] && !row.raw.empty() &&
      latest_aru_view_[r] == view_ && latest_aru_[r]->raw == row.raw) {
    ++stats_.row_verify_short_circuits;
    return true;
  }
  if (!row.raw.empty()) return verify_unit(identity_of(r), row.raw, row.sig);
  return verify_unit(identity_of(r), row.encode(), row.sig);
}

bool Replica::verify_matrix(const PrePrepare& pp) {
  if (pp.rows.size() != config_.n()) return false;
  for (ReplicaId r = 0; r < config_.n(); ++r) {
    const auto& row = pp.rows[r];
    if (!row) continue;
    if (row->replica != r || row->aru.size() != config_.n() ||
        !verify_row(*row, r)) {
      return false;
    }
  }
  return PrePrepare::matrix_digest_of(pp.rows) == pp.matrix_digest;
}

bool Replica::verify_client_update(const ClientUpdate& update) {
  // Digest over signed_bytes || MAC: the same shape verify_unit caches,
  // computed incrementally to avoid concatenating a scratch buffer.
  const util::Bytes signed_bytes = update.signed_bytes();
  crypto::Sha256 h;
  h.update(signed_bytes);
  h.update(std::span<const std::uint8_t>(update.client_sig.mac.data(),
                                         update.client_sig.mac.size()));
  const crypto::Digest d = h.finish();
  if (verify_cache_.contains(update.client, d)) {
    ++stats_.verify_cache_hits;
    return true;
  }
  if (!verifier_.verify(update.client, signed_bytes, update.client_sig)) {
    return false;
  }
  verify_cache_.insert(update.client, d);
  return true;
}

void Replica::send_envelope(MsgType type, util::Bytes body,
                            std::optional<ReplicaId> to) {
  if (!running_ || acting_crashed()) return;
  if (to && *to == id_) {
    // Directed-to-self never touches the wire; seal and loop back now.
    const util::Bytes bytes = Envelope::seal(type, signer_, body);
    process_message(bytes, /*pre_verified=*/true);
    return;
  }
  // Merkle-batched signing: queue the unit and drain the queue at the
  // end of the current simulator step. Everything a timer tick emits is
  // then sealed under ONE root signature instead of one HMAC each.
  send_queue_.push_back(PendingSend{type, std::move(body), to});
  if (!flushing_ && !flush_scheduled_) {
    flush_scheduled_ = true;
    const std::uint64_t epoch = epoch_;
    sim_.schedule_after(0, [this, epoch] {
      flush_scheduled_ = false;
      if (epoch != epoch_ || !running_) return;
      flush_sends();
    });
  }
}

void Replica::flush_sends() {
  flushing_ = true;
  const std::uint64_t epoch = epoch_;
  while (!send_queue_.empty() && running_ && !acting_crashed() &&
         epoch == epoch_) {
    std::vector<PendingSend> batch;
    batch.swap(send_queue_);
    std::vector<util::Bytes> wires;
    if (batch.size() == 1) {
      // A lone unit keeps the classic unbatched wire form — identical
      // bytes to the pre-batching protocol, no proof overhead.
      wires.push_back(Envelope::seal(batch[0].type, signer_, batch[0].body));
    } else {
      std::vector<Envelope::BatchItem> items;
      items.reserve(batch.size());
      for (const auto& p : batch) {
        items.push_back(Envelope::BatchItem{p.type, p.body});
      }
      wires = Envelope::seal_batch(signer_, items);
      ++stats_.batches_sealed;
    }
    // Self-deliver broadcasts first: locally produced protocol state
    // (e.g. our own Pre-Prepare) must land before peer replies to it
    // can arrive, mirroring the old synchronous self-delivery. The
    // bytes were signed by this replica just above, so verification is
    // skipped, not cached.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].to) process_message(wires[i], /*pre_verified=*/true);
      if (epoch != epoch_ || !running_) { flushing_ = false; return; }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Byzantine forger (adversary v2): corrupt the Merkle inclusion
      // proof of a fraction of outgoing batch-signed wires. The proof
      // region sits between the signed body and the trailing 32-byte
      // MAC; flipping a bit there breaks root folding at every
      // receiver, which must drop the wire without suspecting anyone
      // (an unauthenticated byte is indistinguishable from line noise).
      if (byz_.forge_merkle_rate > 0.0 && batch.size() > 1 &&
          wires[i].size() > 40 && rng_.chance(byz_.forge_merkle_rate)) {
        wires[i][wires[i].size() - 40] ^= 0x01;
        ++stats_.byz_merkle_paths_forged;
      }
      if (batch[i].to) {
        transport_->send(*batch[i].to, std::move(wires[i]));
      } else {
        transport_->broadcast(std::move(wires[i]));
      }
    }
  }
  flushing_ = false;
  // Self-delivery above may have enqueued follow-up sends after an
  // epoch bump cut the loop short; make sure they still drain.
  if (!send_queue_.empty() && !flush_scheduled_ && running_) {
    flush_scheduled_ = true;
    const std::uint64_t now_epoch = epoch_;
    sim_.schedule_after(0, [this, now_epoch] {
      flush_scheduled_ = false;
      if (now_epoch != epoch_ || !running_) return;
      flush_sends();
    });
  }
}

void Replica::on_message(const util::Bytes& envelope_bytes) {
  process_message(envelope_bytes, /*pre_verified=*/false);
}

void Replica::process_message(const util::Bytes& envelope_bytes,
                              bool pre_verified) {
  if (!running_ || acting_crashed()) return;
  const auto env = Envelope::decode(envelope_bytes);
  if (!env) return;
  // Self-authenticating payloads skip the envelope HMAC: a ClientUpdate
  // carries the client's own signature over the same content and a
  // PO-ARU is a standalone signed unit, so the transport envelope's
  // second MAC proves nothing extra. The handlers verify the embedded
  // signature (and still bind the sender claim to it), so rewrapping a
  // genuine payload in a fresh envelope grants nothing beyond the
  // replay the network could always perform — which stale/dedup checks
  // absorb. Prepare and Commit keep the envelope check but skip the
  // verified-digest memo: each is consumed exactly once on the hot
  // path, so caching it costs a SHA-256 per message for hits that only
  // view-change proof re-verification could ever see.
  const bool self_authenticating = env->type == MsgType::kClientUpdate ||
                                   env->type == MsgType::kPoAru;
  if (!pre_verified && !self_authenticating) {
    const bool cacheable =
        env->type != MsgType::kPrepare && env->type != MsgType::kCommit;
    if (!verify_envelope(*env, envelope_bytes, cacheable)) {
      ++stats_.dropped_bad_signature;
      return;
    }
  }

  if (recovering_) {
    // A recovering replica has no state to contribute; it only listens
    // for the state-transfer replies it solicited.
    switch (env->type) {
      case MsgType::kStateResp: handle_state_resp(*env); return;
      case MsgType::kSnapshotResp: handle_snapshot_resp(*env); return;
      default: return;
    }
  }

  switch (env->type) {
    case MsgType::kClientUpdate: handle_client_update(*env); break;
    case MsgType::kPoRequest: handle_po_request(*env, envelope_bytes); break;
    case MsgType::kPoAru: handle_po_aru(*env); break;
    case MsgType::kPrePrepare: handle_preprepare(*env, envelope_bytes); break;
    case MsgType::kPrepare:
      handle_prepare_or_commit(*env, envelope_bytes, false);
      break;
    case MsgType::kCommit:
      handle_prepare_or_commit(*env, envelope_bytes, true);
      break;
    case MsgType::kNewLeader: handle_new_leader(*env); break;
    case MsgType::kViewState: handle_view_state(*env); break;
    case MsgType::kNewView: handle_new_view(*env, envelope_bytes); break;
    case MsgType::kPoReqFetch: handle_po_fetch(*env); break;
    case MsgType::kPoReqResp: handle_po_resp(*env); break;
    case MsgType::kStateReq: handle_state_req(*env); break;
    case MsgType::kStateResp: handle_state_resp(*env); break;
    case MsgType::kSnapshotReq: handle_snapshot_req(*env); break;
    case MsgType::kSnapshotResp: handle_snapshot_resp(*env); break;
    case MsgType::kCommitCertReq: handle_cert_req(*env); break;
    case MsgType::kCommitCertResp: handle_cert_resp(*env); break;
    case MsgType::kCheckpoint: handle_checkpoint(*env, envelope_bytes); break;
  }
  note_retention();
}

// ---- preordering ------------------------------------------------------------

void Replica::handle_client_update(const Envelope& env) {
  auto decoded = ClientUpdate::decode(env.body);
  if (!decoded) return;
  ClientUpdate& update = *decoded;
  if (update.client != env.sender) return;
  if (!verifier_.knows(update.client)) {
    ++stats_.dropped_unknown_client;
    return;
  }
  // The client's embedded signature is the unit of trust here (the
  // envelope MAC was skipped as redundant). Verify it before the
  // responsibility check: every replica re-verifies this update when it
  // arrives inside a PO-Request anyway, and the memo in
  // verify_client_update makes that later check a hash lookup — so
  // verifying at receipt moves a cost, it does not add one.
  if (!verify_client_update(update)) {
    ++stats_.dropped_bad_signature;
    return;
  }

  // Responsible-set preordering: clients broadcast to all replicas, but
  // only the f+k+1 replicas deterministically assigned to this client
  // preorder its updates — enough that at least one is correct and live
  // even with f intrusions and k concurrent recoveries, without n-fold
  // duplication. Execution-level dedup makes any overlap harmless.
  const ReplicaId primary = client_primary(update.client);
  const std::uint32_t offset = (config_.n() + id_ - primary) % config_.n();
  if (offset > config_.f + config_.k) return;

  if (auto* tracer = obs::Tracer::current()) {
    tracer->replica_recv(update.client, update.client_seq);
  }
  enqueue_for_preorder(std::move(update));
}

ReplicaId Replica::client_primary(const std::string& client) {
  // Responsibility is a pure function of the client identity; memoize
  // the sha256 so steady-state deliveries cost one map lookup. Only
  // reached for identities the verifier knows, so the memo is bounded
  // by the configured client set.
  const auto it = client_primary_.find(client);
  if (it != client_primary_.end()) return it->second;
  const std::uint64_t h = crypto::digest_prefix64(crypto::sha256(client));
  const auto primary = static_cast<ReplicaId>(h % config_.n());
  client_primary_.emplace(client, primary);
  return primary;
}

void Replica::enqueue_for_preorder(ClientUpdate update) {
  // Each origin must emit a client's updates with contiguous, increasing
  // client_seq (the execution layer's in-order dedup depends on it), so
  // out-of-order arrivals are parked until their predecessor is batched
  // here or executed via another origin.
  auto& last = last_batched_[update.client];
  const auto executed = executed_clients_.find(update.client);
  if (executed != executed_clients_.end()) {
    last = std::max(last, executed->second);
  }
  if (update.client_seq <= last) return;  // stale or already handled

  auto& parked = preorder_buffer_[update.client];
  if (update.client_seq > last + 1) {
    if (parked.size() < 1024) {
      parked.emplace(update.client_seq, std::move(update));
    }
    return;
  }

  pending_batch_.push_back(update);
  last = update.client_seq;
  // Drain any parked successors that are now contiguous.
  auto it = parked.begin();
  while (it != parked.end() && it->first == last + 1) {
    pending_batch_.push_back(std::move(it->second));
    last = it->first;
    it = parked.erase(it);
  }
  while (!parked.empty() && parked.begin()->first <= last) {
    parked.erase(parked.begin());
  }
}

void Replica::drain_preorder_buffer() {
  constexpr int kStallJumpTicks = 100;  // ~1s at the default flush rate
  for (auto client_it = preorder_buffer_.begin();
       client_it != preorder_buffer_.end();) {
    auto& parked = client_it->second;
    auto& last = last_batched_[client_it->first];
    const auto executed = executed_clients_.find(client_it->first);
    if (executed != executed_clients_.end()) {
      last = std::max(last, executed->second);
    }
    bool progressed = false;
    while (!parked.empty() && parked.begin()->first <= last) {
      parked.erase(parked.begin());
      progressed = true;
    }
    auto& stall = preorder_stall_[client_it->first];
    if (!parked.empty() && ++stall > kStallJumpTicks) {
      // Predecessors are never coming (e.g. the whole system restarted
      // while the client session kept counting): jump forward.
      last = parked.begin()->first - 1;
      log_.info("preorder jump for ", client_it->first, " to seq ",
                parked.begin()->first);
    }
    while (!parked.empty() && parked.begin()->first == last + 1) {
      pending_batch_.push_back(std::move(parked.begin()->second));
      last = parked.begin()->first;
      parked.erase(parked.begin());
      progressed = true;
    }
    if (progressed) stall = 0;
    if (parked.empty()) {
      preorder_stall_.erase(client_it->first);
      client_it = preorder_buffer_.erase(client_it);
    } else {
      ++client_it;
    }
  }
}

void Replica::po_flush_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  drain_preorder_buffer();
  if (!pending_batch_.empty()) {
    PoRequest req;
    req.origin = id_;
    req.po_seq = next_po_seq_++;
    req.updates = std::move(pending_batch_);
    pending_batch_.clear();
    ++stats_.po_requests_sent;
    if (auto* tracer = obs::Tracer::current()) {
      for (const auto& update : req.updates) {
        tracer->po_request(update.client, update.client_seq);
      }
    }
    send_envelope(MsgType::kPoRequest, req.encode());
  }
  sim_.schedule_after(config_.po_request_interval,
                      [this, epoch] { po_flush_tick(epoch); });
}

void Replica::handle_po_request(const Envelope& env, const util::Bytes& raw) {
  const auto req = PoRequest::decode(env.body);
  if (!req) return;
  if (!sender_is(env, req->origin)) return;
  store_po_request(*req, raw);
}

bool Replica::po_contains(ReplicaId origin, std::uint64_t seq) const {
  const PoLog& log = po_log_[origin];
  if (seq < log.base) return true;  // pruned: was stored and executed past
  const std::uint64_t idx = seq - log.base;
  return idx < log.slots.size() && log.slots[idx].stored != nullptr;
}

const Replica::StoredPoRequest* Replica::po_get(ReplicaId origin,
                                                std::uint64_t seq) const {
  const PoLog& log = po_log_[origin];
  if (seq < log.base) return nullptr;
  const std::uint64_t idx = seq - log.base;
  return idx < log.slots.size() ? log.slots[idx].stored.get() : nullptr;
}

void Replica::po_mark_wanted(ReplicaId origin, std::uint64_t seq) {
  PoLog& log = po_log_[origin];
  if (seq < log.base || seq >= log.base + kPoHorizon) return;
  if (log.wanted_count >= kMaxWantedPerOrigin) return;
  const std::uint64_t idx = seq - log.base;
  if (idx >= log.slots.size()) log.slots.resize(idx + 1);
  PoSlot& slot = log.slots[idx];
  if (slot.stored || slot.wanted) return;
  slot.wanted = true;
  ++log.wanted_count;
  ++stats_.recon_fetches_queued;
}

void Replica::store_po_request(const PoRequest& req, const util::Bytes& raw) {
  if (req.origin >= config_.n()) return;
  PoLog& log = po_log_[req.origin];
  if (req.po_seq < log.base) return;  // below the retention window
  if (req.po_seq >= log.base + kPoHorizon) return;  // absurdly far ahead
  const std::uint64_t idx = req.po_seq - log.base;
  if (idx < log.slots.size() && log.slots[idx].stored) return;  // duplicate
  // Client updates inside a PO-Request carry their own client
  // signatures; verify them here once so execution can trust the store.
  // verify_client_update memoizes, so an update this replica already
  // checked at receipt (or inside another origin's batch) costs one
  // digest, not an HMAC.
  for (const auto& update : req.updates) {
    if (!verifier_.knows(update.client) || !verify_client_update(update)) {
      ++stats_.dropped_bad_signature;
      return;
    }
  }
  if (idx >= log.slots.size()) log.slots.resize(idx + 1);
  PoSlot& slot = log.slots[idx];
  slot.stored = std::make_unique<StoredPoRequest>(StoredPoRequest{req, raw});
  ++log.stored_count;
  log.stored_bytes += raw.size();
  if (slot.wanted) {
    slot.wanted = false;
    --log.wanted_count;
    ++stats_.recon_fetches_satisfied;
  }

  auto& aru = recv_aru_[req.origin];
  while (po_contains(req.origin, aru + 1)) ++aru;

  try_apply();
}

void Replica::po_aru_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  sim_.schedule_after(config_.po_aru_interval,
                      [this, epoch] { po_aru_tick(epoch); });
  // Send on change (DESIGN.md §14): an unchanged row tells the leader
  // nothing new, and re-signing it every tick would keep every proposal
  // "fresh" and defeat the leader's idle skip. The heartbeat keeps an
  // own row pending inclusion at least that often, so the turnaround and
  // withheld-ARU checks still see an idle leader's matrices.
  const auto& last = latest_aru_[id_];
  const bool changed = !last || last->aru != recv_aru_;
  const bool heartbeat_due =
      !last_po_aru_sent_ ||
      sim_.now() - *last_po_aru_sent_ >= kLeaderHeartbeat;
  if (!changed && !heartbeat_due) return;
  last_po_aru_sent_ = sim_.now();
  ++stats_.po_arus_sent;
  auto aru = std::make_shared<PoAru>();
  aru->replica = id_;
  aru->aru_seq = ++my_aru_seq_;
  aru->aru = recv_aru_;
  aru->sign(signer_);  // also caches the standalone wire bytes in raw
  turnaround_.emplace_back(sim_.now(), aru->aru_seq);
  // Encode-once: our own row goes into latest_aru_ directly (no wire
  // round trip needed), and the cached raw bytes are the send body. The
  // leader then splices these exact bytes into Pre-Prepares, and
  // followers short-circuit verify_row against them.
  util::Bytes body = aru->raw;
  latest_aru_[id_] = std::move(aru);
  latest_aru_view_[id_] = view_;
  send_envelope(MsgType::kPoAru, std::move(body));
}

void Replica::handle_po_aru(const Envelope& env) {
  auto aru = PoAru::decode(env.body);
  if (!aru || aru->aru.size() != config_.n()) return;
  if (!sender_is(env, aru->replica)) return;
  if (aru->replica == id_) return;  // own broadcast, installed at send
  // Stale-before-verify: an old (or replayed) PO-ARU changes nothing,
  // so drop it without paying for an HMAC.
  auto& latest = latest_aru_[aru->replica];
  if (latest && aru->aru_seq <= latest->aru_seq) {
    ++stats_.stale_po_arus_dropped;
    return;
  }
  // env.body is exactly the standalone PO-ARU encoding, and this is the
  // ONLY signature check on the PO-ARU path (the envelope MAC was
  // skipped as redundant in process_message): the row's own signature
  // authenticates it, and sender_is above pins the envelope's sender
  // claim to the row owner. The memo key here — sha256 of the
  // standalone encoding — is the same one verify_row computes, so rows
  // re-shipped inside Pre-Prepares hit this entry.
  if (!verify_unit(env.sender, env.body, aru->sig)) {
    ++stats_.dropped_bad_signature;
    return;
  }

  // PO-ARU-driven reconciliation: a peer acknowledging PO-Requests we
  // never received (lost to a partition or drops) tells us exactly what
  // to fetch. Bounded lookahead keeps this cheap.
  for (ReplicaId i = 0; i < config_.n(); ++i) {
    const std::uint64_t theirs = aru->aru[i];
    const std::uint64_t mine = recv_aru_[i];
    if (theirs <= mine) continue;
    const std::uint64_t until = std::min(theirs, mine + 8);
    for (std::uint64_t s = mine + 1; s <= until; ++s) {
      if (!po_contains(i, s)) po_mark_wanted(i, s);
    }
  }

  latest = std::make_shared<const PoAru>(std::move(*aru));
  latest_aru_view_[latest->replica] = view_;
  // Withheld-ARU aging (adversary v2 defense): remember when we saw
  // this peer's broadcast row. handle_preprepare drains the samples the
  // leader's matrices cover; suspect_tick ages whatever the leader
  // keeps omitting. Bounded per origin — one aged sample is enough to
  // suspect, precision beyond that buys nothing.
  auto& pending = peer_turnaround_[latest->replica];
  if (pending.size() < kPeerTurnaroundCap) {
    pending.emplace_back(sim_.now(), latest->aru_seq);
  }
}

// ---- ordering ---------------------------------------------------------------

/// Max outstanding Pre-Prepares beyond the highest committed sequence.
constexpr std::uint64_t kOrderingWindow = 16;

void Replica::preprepare_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  sim_.schedule_after(config_.preprepare_interval,
                      [this, epoch] { preprepare_tick(epoch); });
  if (!is_leader()) return;
  if (behavior_ == ReplicaBehavior::kSilentLeader) return;
  if (view_start_.count(view_) && next_order_seq_ < view_start_[view_]) {
    next_order_seq_ = view_start_[view_];
  }
  if (next_order_seq_ > highest_committed_ + kOrderingWindow) return;

  PrePrepare pp;
  pp.leader = id_;
  pp.view = view_;
  pp.order_seq = next_order_seq_;
  if (behavior_ == ReplicaBehavior::kStaleLeader) {
    // Delay attack: structurally valid Pre-Prepares whose matrix never
    // reflects fresh PO-ARUs, so no new updates become eligible.
    pp.rows.assign(config_.n(), nullptr);
  } else {
    pp.rows = latest_aru_;
  }
  // Byzantine withholding (adversary v2): silently drop the victims'
  // rows. Each matrix is individually valid — only the aging of the
  // victims' broadcast PO-ARUs betrays the exclusion.
  for (const ReplicaId victim : byz_.withhold_victims) {
    if (victim < pp.rows.size() && pp.rows[victim]) {
      pp.rows[victim] = nullptr;
      ++stats_.byz_rows_withheld;
    }
  }

  // Skip redundant proposals when idle, but heartbeat often enough that
  // correct replicas never suspect a healthy leader. Rows are shared
  // immutable objects, so pointer equality decides freshness.
  const bool fresh = pp.rows != last_prop_rows_;
  const bool heartbeat_due =
      sim_.now() - last_preprepare_sent_ >= kLeaderHeartbeat;
  if (!fresh && !heartbeat_due) return;
  last_preprepare_sent_ = sim_.now();

  // Byzantine equivocation (adversary v2): sign two divergent full
  // matrices for the same (view, seq) — variant B drops the freshest
  // non-self row — and split the peer set between them. Neither variant
  // can gather a 2f+k+1 quorum of matching prepares, and any correct
  // replica that sees f+1 same-view prepares for a digest other than
  // its own installed one holds proof of equivocation (at most f of
  // them can be lying) and suspects immediately.
  if (byz_.equivocate) {
    PrePrepare alt = pp;
    bool diverged = false;
    for (ReplicaId r = config_.n(); r-- > 0;) {
      if (r != id_ && alt.rows[r]) {
        alt.rows[r] = nullptr;
        diverged = true;
        break;
      }
    }
    if (diverged) {
      util::Bytes wire_a = Envelope::seal(MsgType::kPrePrepare, signer_,
                                          pp.encode());
      const util::Bytes wire_b =
          Envelope::seal(MsgType::kPrePrepare, signer_, alt.encode());
      last_prop_rows_.clear();  // the next proposal goes out regardless
      ++next_order_seq_;
      ++stats_.preprepares_sent;
      ++stats_.byz_equivocations_sent;
      process_message(wire_a, /*pre_verified=*/true);
      if (epoch != epoch_ || !running_) return;
      for (ReplicaId r = 0; r < config_.n(); ++r) {
        if (r == id_) continue;
        transport_->send(r, r < (config_.n() + 1) / 2 ? wire_a : wire_b);
      }
      return;
    }
  }

  util::Bytes body = pp.encode();
  last_prop_rows_ = std::move(pp.rows);

  ++next_order_seq_;
  ++stats_.preprepares_sent;

  // Byzantine delay/reorder (adversary v2): Prime's signature
  // performance attack. Seal and install the proposal locally now (the
  // attacker looks current to itself and can serve certificates), but
  // hold the broadcast back; with reordering, release held proposals
  // pairwise swapped. Below kTurnaroundBound this is invisible — that
  // is the bounded-delay guarantee, the damage is capped, not zero.
  if (byz_.preprepare_delay > 0 || byz_.reorder_preprepares) {
    util::Bytes wire = Envelope::seal(MsgType::kPrePrepare, signer_, body);
    ++stats_.byz_preprepares_delayed;
    process_message(wire, /*pre_verified=*/true);
    if (epoch != epoch_ || !running_) return;
    byz_holdback_.push_back(std::move(wire));
    if (byz_.reorder_preprepares && byz_holdback_.size() < 2) return;
    std::vector<util::Bytes> held;
    held.swap(byz_holdback_);
    if (byz_.reorder_preprepares) std::swap(held.front(), held.back());
    sim_.schedule_after(
        byz_.preprepare_delay, [this, epoch, held = std::move(held)]() mutable {
          if (epoch != epoch_ || !running_ || acting_crashed()) return;
          for (auto& wire : held) transport_->broadcast(std::move(wire));
        });
    return;
  }

  send_envelope(MsgType::kPrePrepare, std::move(body));
}

void Replica::handle_preprepare(const Envelope& env, const util::Bytes& raw) {
  auto pp = PrePrepare::decode(env.body);
  if (!pp) return;
  if (!sender_is(env, pp->leader)) return;
  if (pp->view != view_ || pp->leader != leader_of(view_)) return;
  if (pp->order_seq <= applied_seq_) return;
  if (pp->order_seq > applied_seq_ + (1u << 20)) return;  // absurd horizon
  const auto start_it = view_start_.find(view_);
  if (start_it != view_start_.end() && pp->order_seq < start_it->second) return;

  // The agreement digest derives from the leader's CLAIMED matrix
  // digest, so equivocation / duplicate / committed checks run before
  // any row verification — a flood of duplicates costs hashing, not
  // HMACs.
  const crypto::Digest digest = pp->digest();
  const auto slot_it = slots_.find(pp->order_seq);
  if (slot_it != slots_.end()) {
    const OrderSlot& slot = slot_it->second;
    if (slot.committed) {
      // Final: a re-proposal in a later view changes nothing we did.
      last_leader_activity_ = sim_.now();
      return;
    }
    if (slot.preprepare && slot.view == pp->view) {
      if (slot.digest != digest) {
        // Equivocation: two conflicting proposals for the same slot.
        log_.warn("conflicting pre-prepares for seq ", pp->order_seq,
                  " in view ", view_, "; suspecting leader");
        suspect(view_ + 1);
      } else {
        last_leader_activity_ = sim_.now();
      }
      return;
    }
    if (slot.preprepare && slot.view > pp->view) return;
  }

  // The matrix arrives whole and leader-signed: a bad row, or a claimed
  // digest (covered by the agreement digest every replica prepares on)
  // that does not match the rows, is attributable leader misbehavior.
  if (!verify_matrix(*pp)) {
    log_.warn("pre-prepare matrix fails verification at seq ", pp->order_seq,
              "; suspecting leader");
    suspect(view_ + 1);
    return;
  }

  // Re-proposal constraint: in a view installed by a NewView, the
  // leading slots must carry exactly the proven matrices (or an empty
  // no-op matrix for holes) — a leader proposing anything else for
  // them is misbehaving.
  if (reproposal_view_ == view_ && pp->order_seq <= reproposal_top_) {
    const auto expected = expected_rows_.find(pp->order_seq);
    const crypto::Digest required = expected != expected_rows_.end()
                                        ? expected->second
                                        : empty_matrix_digest();
    if (pp->matrix_digest != required) {
      log_.warn("leader deviated from re-proposal constraints at seq ",
                pp->order_seq, "; suspecting");
      suspect(view_ + 1);
      return;
    }
  }

  OrderSlot& slot = slots_[pp->order_seq];
  // Newer view supersedes an abandoned proposal.
  if (slot.preprepare) slot = OrderSlot{};

  // Turnaround check bookkeeping: our row being reflected clears the
  // pending PO-ARUs it covers.
  if (const auto& my_row = pp->rows[id_]) {
    while (!turnaround_.empty() &&
           turnaround_.front().second <= my_row->aru_seq) {
      turnaround_.pop_front();
    }
  }
  // Likewise for every peer's pending samples (withheld-ARU aging): a
  // matrix row covering the sample proves the leader is not excluding
  // that origin.
  for (ReplicaId r = 0; r < config_.n(); ++r) {
    const auto& row = pp->rows[r];
    if (!row) continue;
    auto& pending = peer_turnaround_[r];
    while (!pending.empty() && pending.front().second <= row->aru_seq) {
      pending.pop_front();
    }
  }

  const std::uint64_t seq = pp->order_seq;
  const std::uint64_t pp_view = pp->view;
  slot.preprepare = std::move(*pp);
  slot.preprepare_envelope = raw;
  slot.digest = digest;
  slot.view = pp_view;
  slot.pp_at = sim_.now();
  last_leader_activity_ = sim_.now();

  PrepareOrCommit prepare;
  prepare.replica = id_;
  prepare.view = pp_view;
  prepare.order_seq = seq;
  prepare.preprepare_digest = digest;
  send_envelope(MsgType::kPrepare, prepare.encode());

  try_commit(seq);
}

void Replica::handle_prepare_or_commit(const Envelope& env,
                                       const util::Bytes& raw, bool is_commit) {
  const auto msg = PrepareOrCommit::decode(env.body);
  if (!msg) return;
  if (!sender_is(env, msg->replica)) return;
  if (msg->order_seq <= applied_seq_) return;
  if (msg->order_seq > applied_seq_ + (1u << 20)) return;  // absurd horizon

  OrderSlot& slot = slots_[msg->order_seq];
  auto& table = is_commit ? slot.commits : slot.prepares;
  const auto entry = std::make_pair(msg->view, msg->preprepare_digest);
  const auto it = table.find(msg->replica);
  if (it == table.end() || it->second.first < msg->view) {
    table[msg->replica] = entry;
    if (is_commit) {
      slot.commit_envelopes[msg->replica] = raw;
    } else {
      // Kept to assemble prepared proofs for view changes.
      slot.prepare_envelopes[msg->replica] = raw;
    }
  }

  // Equivocation detection via cross-replica digest exchange (adversary
  // v2 defense): our Prepare digests are what we received leader-signed,
  // and so are every peer's. f+1 same-view prepares for a digest other
  // than our installed one mean at least one CORRECT replica holds a
  // conflicting leader-signed proposal for this slot — attributable
  // equivocation, suspected immediately instead of waiting for the
  // turnaround bound. Fewer than f+1 could all be liars framing an
  // honest leader, so the threshold is exact.
  if (!is_commit && slot.preprepare && slot.view == view_ &&
      msg->view == slot.view && msg->preprepare_digest != slot.digest) {
    std::uint32_t differing = 0;
    for (const auto& [replica, prepared] : slot.prepares) {
      if (prepared.first == slot.view && prepared.second != slot.digest) {
        ++differing;
      }
    }
    if (differing >= config_.f + 1) {
      ++stats_.equivocation_suspects;
      log_.warn("f+1 divergent prepares for seq ", msg->order_seq,
                " in view ", view_, "; leader equivocated");
      suspect(view_ + 1);
    }
  }
  try_commit(msg->order_seq);
}

void Replica::try_commit(std::uint64_t seq) {
  const auto slot_it = slots_.find(seq);
  if (slot_it == slots_.end()) return;
  OrderSlot& slot = slot_it->second;
  if (!slot.preprepare) return;

  const auto count_matching = [&](const auto& table) {
    std::uint32_t count = 0;
    for (const auto& [replica, entry] : table) {
      if (entry.first == slot.view && entry.second == slot.digest) ++count;
    }
    return count;
  };

  if (!slot.prepared && count_matching(slot.prepares) >= config_.quorum()) {
    slot.prepared = true;
  }
  if (slot.prepared && !slot.sent_commit) {
    slot.sent_commit = true;
    PrepareOrCommit commit;
    commit.replica = id_;
    commit.view = slot.view;
    commit.order_seq = seq;
    commit.preprepare_digest = slot.digest;
    send_envelope(MsgType::kCommit, commit.encode());
    // Self-delivery is deferred to the batched flush, so this cannot
    // re-enter try_commit synchronously.
  }
  if (!slot.committed && count_matching(slot.commits) >= config_.quorum()) {
    slot.committed = true;
    slot.commit_at = sim_.now();
    highest_committed_ = std::max(highest_committed_, seq);
    try_apply();
  }
}

// ---- execution ---------------------------------------------------------------

std::vector<std::uint64_t> Replica::eligibility(const PrePrepare& pp) const {
  const std::uint32_t n = config_.n();
  std::vector<std::uint64_t> result(n, 0);
  std::vector<std::uint64_t> column(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      column[j] = pp.rows[j] ? pp.rows[j]->aru[i] : 0;
    }
    std::sort(column.begin(), column.end(), std::greater<>());
    // The quorum-th largest claim: at least f+k+1 correct replicas have
    // preordered through this sequence, so it is recoverable.
    result[i] = column[config_.quorum() - 1];
  }
  return result;
}

bool Replica::can_apply(std::uint64_t seq, bool mark_missing) {
  const OrderSlot& slot = slots_.at(seq);
  const auto elig = eligibility(*slot.preprepare);
  bool ok = true;
  for (ReplicaId i = 0; i < config_.n(); ++i) {
    for (std::uint64_t s = exec_aru_[i] + 1; s <= elig[i]; ++s) {
      if (!po_contains(i, s)) {
        ok = false;
        if (!mark_missing) return false;
        // Reconciliation: mark the PO-Requests the matrix made eligible
        // but we never received (recon_tick drives the fetches).
        po_mark_wanted(i, s);
      }
    }
  }
  return ok;
}

void Replica::try_apply() {
  while (true) {
    const std::uint64_t next = applied_seq_ + 1;
    const auto slot_it = slots_.find(next);
    const bool have_committed =
        slot_it != slots_.end() && slot_it->second.committed;

    if (have_committed) {
      if (can_apply(next, /*mark_missing=*/true)) {
        apply_matrix(next);
        continue;
      }
      return;
    }

    // Not committed locally. Slots below the current view's start were
    // applied by a correct replica (start is derived from applied_seq
    // reports), and pipeline gaps below later commits will resolve via
    // leader retransmission — in both cases the certificate is
    // fetchable, so we never skip (skipping a slot someone executed
    // would fork the execution order). A gap under a known stable
    // checkpoint goes to state transfer from recon_tick; one that no
    // known checkpoint covers falls back to it after many retries.
    const auto start_it = view_start_.find(view_);
    const bool behind = highest_committed_ > next ||
                        (start_it != view_start_.end() &&
                         next < start_it->second);
    if (behind) {
      if (cert_attempts_[next] > kStateTransferFallbackAttempts) {
        begin_state_transfer();
        return;
      }
      outstanding_cert_fetches_.insert(next);
    }
    return;
  }
}

void Replica::apply_matrix(std::uint64_t seq) {
  OrderSlot& slot = slots_.at(seq);
  const auto elig = eligibility(*slot.preprepare);
  auto* tracer = obs::Tracer::current();

  for (ReplicaId i = 0; i < config_.n(); ++i) {
    PoLog& log = po_log_[i];
    for (std::uint64_t s = exec_aru_[i] + 1; s <= elig[i]; ++s) {
      // can_apply guaranteed presence just before this call.
      std::vector<ClientUpdate>& updates =
          log.slots[s - log.base].stored->request.updates;
      for (const auto& update : updates) {
        auto& executed = executed_clients_[update.client];
        if (update.client_seq <= executed) continue;  // cross-origin dup
        executed = update.client_seq;
        ++stats_.updates_executed;
        app_.apply(update, ExecutionInfo{seq, i, s});
        if (tracer != nullptr) {
          tracer->executed(update.client, update.client_seq, slot.pp_at,
                           slot.commit_at);
        }
      }
      // Executed: the slot now only re-serves its signed envelope
      // (handle_po_fetch), so the decoded copy goes.
      updates = std::vector<ClientUpdate>{};
    }
    exec_aru_[i] = std::max(exec_aru_[i], elig[i]);
  }

  // Once executed, a slot only re-serves its signed envelope and commit
  // quorum (handle_cert_req) until the next stable checkpoint covers it;
  // its decoded matrix would keep row copies alive until then.
  slot.preprepare.reset();
  applied_seq_ = seq;
  ++stats_.matrices_applied;
  outstanding_cert_fetches_.erase(seq);
  cert_attempts_.erase(seq);
  maybe_checkpoint();
}

const crypto::Digest& Replica::take_checkpoint() {
  OwnCheckpoint& own = checkpoint_blobs_[applied_seq_];
  own.blob = snapshot_bundle();
  own.digest = crypto::sha256(own.blob);
  own.exec_aru = exec_aru_;
  return own.digest;
}

void Replica::maybe_checkpoint() {
  if (applied_seq_ % kCheckpointInterval != 0) return;
  Checkpoint cp;
  cp.replica = id_;
  cp.applied_seq = applied_seq_;
  cp.snapshot_digest = take_checkpoint();
  cp.sign(signer_);
  send_envelope(MsgType::kCheckpoint, cp.encode());
}

void Replica::handle_checkpoint(const Envelope& env, const util::Bytes& raw) {
  const auto cp = Checkpoint::decode(env.body);
  if (!cp) return;
  if (!sender_is(env, cp->replica)) return;
  if (!cp->verify_embedded(verifier_, env.sender)) return;

  auto& votes = checkpoint_votes_[cp->applied_seq];
  votes[cp->replica] = std::make_pair(cp->snapshot_digest, raw);

  std::uint32_t matching = 0;
  for (const auto& [replica, vote] : votes) {
    if (vote.first == cp->snapshot_digest) ++matching;
  }
  if (matching >= config_.f + 1 &&
      (!stable_checkpoint_ || cp->applied_seq > stable_checkpoint_->seq)) {
    stable_checkpoint_ = StableCheckpoint{cp->applied_seq, cp->snapshot_digest};
    ++stats_.checkpoints_stable;
    while (!checkpoint_votes_.empty() &&
           checkpoint_votes_.begin()->first < cp->applied_seq) {
      checkpoint_votes_.erase(checkpoint_votes_.begin());
    }
  }
  // A replica's own vote may be the one that completes the stable
  // checkpoint's collection, when f+1 others made it stable first.
  collect_garbage();
}

void Replica::collect_garbage() {
  // Only at a stable checkpoint this replica applied itself, to the
  // state the f+1 votes agree on: a correct peer then holds the same
  // snapshot, and serves it to whoever needs what was dropped.
  if (!stable_checkpoint_) return;
  const auto stable = checkpoint_blobs_.find(stable_checkpoint_->seq);
  if (stable == checkpoint_blobs_.end() ||
      stable->second.digest != stable_checkpoint_->digest ||
      stable == checkpoint_blobs_.begin()) {
    return;
  }
  // One checkpoint of slack: what the own checkpoint below the stable
  // one covers goes. A replica that lost a message just before the
  // stable checkpoint still fetches the slot from its peers instead of
  // transferring the whole state.
  const auto floor = std::prev(stable);
  drop_covered(floor->first, floor->second.exec_aru);
  checkpoint_blobs_.erase(checkpoint_blobs_.begin(), floor);
}

void Replica::drop_covered(std::uint64_t seq,
                           const std::vector<std::uint64_t>& exec_aru) {
  slots_.erase(slots_.begin(), slots_.upper_bound(seq));
  for (ReplicaId i = 0; i < config_.n(); ++i) {
    PoLog& log = po_log_[i];
    const std::uint64_t executed = exec_aru[i];
    if (executed < log.base) continue;
    const auto drop = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(executed + 1 - log.base, log.slots.size()));
    for (auto it = log.slots.begin(); it != log.slots.begin() + drop; ++it) {
      if (it->wanted) --log.wanted_count;
      if (it->stored) {
        --log.stored_count;
        log.stored_bytes -= it->stored->envelope.size();
      }
    }
    log.slots.erase(log.slots.begin(), log.slots.begin() + drop);
    // po_contains reads everything below base as executed.
    log.base = executed + 1;
  }
}

std::pair<std::uint64_t, std::uint64_t> Replica::retained_po() const {
  std::pair<std::uint64_t, std::uint64_t> total{0, 0};
  for (const PoLog& log : po_log_) {
    total.first += log.stored_count;
    total.second += log.stored_bytes;
  }
  return total;
}

void Replica::note_retention() {
  const auto [envelopes, bytes] = retained_po();
  stats_.retained_slots_high_water =
      std::max<std::uint64_t>(stats_.retained_slots_high_water, slots_.size());
  stats_.retained_po_envelopes_high_water =
      std::max(stats_.retained_po_envelopes_high_water, envelopes);
  stats_.retained_po_bytes_high_water =
      std::max(stats_.retained_po_bytes_high_water, bytes);
}

// ---- suspect / view change ---------------------------------------------------

void Replica::suspect_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  sim_.schedule_after(kSuspectTimeout / 4,
                      [this, epoch] { suspect_tick(epoch); });
  if (acting_crashed()) return;
  ++stats_.suspect_ticks;
  if (is_leader()) return;

  if (sim_.now() - last_leader_activity_ > kSuspectTimeout) {
    if (last_suspected_view_ > view_) {
      // Our vote is out and the view has not moved here: the view change
      // may have completed without us (partitioned through it, say).
      // Repeat the vote we cast, never a new one; the leader of the
      // view the others run answers it with its NewView.
      NewLeader msg;
      msg.replica = id_;
      msg.proposed_view = last_suspected_view_;
      send_envelope(MsgType::kNewLeader, msg.encode());
      return;
    }
    log_.debug("leader of view ", view_, " silent; suspecting");
    suspect(view_ + 1);
    return;
  }
  // All turnaround aging is measured from the later of the sample time
  // and the current view's install: a freshly seated leader is not
  // blamed for the previous leader's backlog (PR 9 bugfix).
  const auto age_of = [&](sim::Time sample) {
    return sim_.now() - std::max(sample, turnaround_baseline_);
  };
  // Turnaround bound (delay-attack defense): our PO-ARU must appear in
  // the leader's matrices within the bound.
  if (!turnaround_.empty() &&
      age_of(turnaround_.front().first) > kTurnaroundBound) {
    ++stats_.turnaround_suspects;
    log_.debug("leader of view ", view_,
               " not reflecting our PO-ARUs; suspecting");
    suspect(view_ + 1);
    return;
  }
  // Withheld-ARU aging (adversary v2 defense): the same bound applied
  // to every peer's broadcast PO-ARUs, relaxed 2x — a peer's last
  // broadcast before a crash legitimately goes un-included, and under
  // loss chaos a sample's covering matrix can simply be late, so only
  // persistent exclusion clears the bar.
  const sim::Time peer_bound = 2 * kTurnaroundBound;
  for (ReplicaId r = 0; r < config_.n(); ++r) {
    if (r == id_) continue;
    const auto& pending = peer_turnaround_[r];
    if (!pending.empty() && age_of(pending.front().first) > peer_bound) {
      ++stats_.withheld_aru_suspects;
      log_.warn("leader of view ", view_, " withholding PO-ARUs of replica ",
                r, "; suspecting");
      suspect(view_ + 1);
      return;
    }
  }
}

void Replica::suspect(std::uint64_t proposed_view) {
  if (proposed_view <= view_) return;
  if (last_suspected_view_ >= proposed_view) return;
  last_suspected_view_ = proposed_view;
  NewLeader msg;
  msg.replica = id_;
  msg.proposed_view = proposed_view;
  send_envelope(MsgType::kNewLeader, msg.encode());
}

void Replica::handle_new_leader(const Envelope& env) {
  const auto msg = NewLeader::decode(env.body);
  if (!msg) return;
  if (!sender_is(env, msg->replica)) return;
  if (msg->proposed_view <= view_) {
    // The sender is still moving to a view at or below the one this
    // replica runs: it missed the NewView, which the leader serves
    // verbatim, at most once per requester per kLeaderHeartbeat (a
    // NewView can be ~1,000x the vote that asks for it).
    if (!is_leader() || new_view_envelope_.empty()) return;
    const auto [it, first] =
        new_view_served_at_.try_emplace(msg->replica, sim_.now());
    if (!first && sim_.now() - it->second < kLeaderHeartbeat) return;
    it->second = sim_.now();
    transport_->send(msg->replica, new_view_envelope_);
    return;
  }

  auto& votes = new_leader_votes_[msg->proposed_view];
  votes.insert(msg->replica);
  if (votes.size() >= config_.quorum()) {
    enter_view(msg->proposed_view);
  } else if (votes.size() >= config_.f + 1) {
    // f+1 suspicions cannot all be Byzantine: join the view change so
    // it converges even if we have not timed out locally yet.
    suspect(msg->proposed_view);
  }
}

void Replica::enter_view(std::uint64_t view) {
  if (view <= view_) return;
  view_ = view;
  ++stats_.view_changes;
  log_.info("entering view ", view, " (leader ", leader_of(view), ")");
  last_leader_activity_ = sim_.now();
  last_po_aru_sent_.reset();
  turnaround_.clear();
  for (auto& pending : peer_turnaround_) pending.clear();
  turnaround_baseline_ = sim_.now();
  collected_view_states_.clear();
  new_view_sent_ = false;
  new_view_envelope_.clear();
  new_view_served_at_.clear();
  while (!new_leader_votes_.empty() &&
         new_leader_votes_.begin()->first <= view) {
    new_leader_votes_.erase(new_leader_votes_.begin());
  }

  ViewState vs;
  vs.replica = id_;
  vs.view = view;
  // Applied (contiguously executed) position: the quorum maximum of
  // these defines what the new view may start past.
  vs.max_committed = applied_seq_;
  std::uint64_t max_prepared = 0;
  for (const auto& [seq, slot] : slots_) {
    if (!slot.prepared) continue;
    max_prepared = std::max(max_prepared, seq);
    if (slot.committed || seq <= applied_seq_ || vs.prepared.size() >= 32) {
      continue;
    }
    // Assemble the self-certifying prepared proof for this slot.
    PreparedProof proof;
    proof.order_seq = seq;
    proof.preprepare_envelope = slot.preprepare_envelope;
    for (const auto& [replica, entry] : slot.prepares) {
      if (entry.first != slot.view || entry.second != slot.digest) continue;
      const auto env_it = slot.prepare_envelopes.find(replica);
      if (env_it != slot.prepare_envelopes.end()) {
        proof.prepare_envelopes.push_back(env_it->second);
      }
    }
    if (proof.prepare_envelopes.size() >= config_.quorum()) {
      vs.prepared.push_back(std::move(proof));
    }
  }
  vs.max_prepared = max_prepared;
  vs.sign(signer_);

  if (leader_of(view) == id_) {
    collected_view_states_[id_] = vs;
    maybe_send_new_view();
  } else {
    send_envelope(MsgType::kViewState, vs.encode(), leader_of(view));
  }
}

void Replica::handle_view_state(const Envelope& env) {
  const auto decoded = ViewState::decode(env.body);
  if (!decoded) return;
  const ViewState& vs = *decoded;
  if (!sender_is(env, vs.replica)) return;
  if (vs.view != view_ || leader_of(view_) != id_) return;
  if (!vs.verify_embedded(verifier_, env.sender)) return;
  collected_view_states_[vs.replica] = vs;
  maybe_send_new_view();
}

void Replica::maybe_send_new_view() {
  if (new_view_sent_ || collected_view_states_.size() < config_.quorum()) return;
  new_view_sent_ = true;

  NewView nv;
  nv.leader = id_;
  nv.view = view_;
  std::uint64_t max_applied = 0;
  for (const auto& [replica, vs] : collected_view_states_) {
    max_applied = std::max(max_applied, vs.max_committed);
    nv.justification.push_back(vs);
  }
  nv.start_seq = max_applied + 1;
  // The self-delivery of this NewView installs the re-proposal
  // constraints and emits the re-proposals (handle_new_view).
  send_envelope(MsgType::kNewView, nv.encode());
}

crypto::Digest Replica::empty_matrix_digest() const {
  return PrePrepare::matrix_digest_of(
      std::vector<PrePrepare::Row>(config_.n(), nullptr));
}

std::optional<PrePrepare> Replica::verify_prepared_proof(
    const PreparedProof& proof) {
  const auto env = Envelope::decode(proof.preprepare_envelope);
  if (!env || env->type != MsgType::kPrePrepare ||
      !verify_envelope(*env, proof.preprepare_envelope)) {
    return std::nullopt;
  }
  auto pp = PrePrepare::decode(env->body);
  if (!pp || pp->order_seq != proof.order_seq) return std::nullopt;
  if (!sender_is(*env, pp->leader) || pp->leader != leader_of(pp->view)) {
    return std::nullopt;
  }
  if (!verify_matrix(*pp)) return std::nullopt;
  const crypto::Digest digest = pp->digest();
  std::set<ReplicaId> senders;
  for (const auto& prepare_bytes : proof.prepare_envelopes) {
    const auto prepare_env = Envelope::decode(prepare_bytes);
    if (!prepare_env || prepare_env->type != MsgType::kPrepare ||
        !verify_envelope(*prepare_env, prepare_bytes)) {
      continue;
    }
    const auto prepare = PrepareOrCommit::decode(prepare_env->body);
    if (!prepare || prepare->order_seq != proof.order_seq ||
        prepare->view != pp->view || prepare->preprepare_digest != digest) {
      continue;
    }
    if (!sender_is(*prepare_env, prepare->replica)) continue;
    senders.insert(prepare->replica);
  }
  if (senders.size() < config_.quorum()) return std::nullopt;
  return pp;
}

void Replica::handle_new_view(const Envelope& env, const util::Bytes& raw) {
  const auto nv = NewView::decode(env.body);
  if (!nv) return;
  if (nv->view < view_) return;
  if (view_start_.count(nv->view)) return;  // already installed
  if (!sender_is(env, nv->leader)) return;
  if (leader_of(nv->view) != nv->leader) return;
  if (nv->justification.size() < config_.quorum()) return;

  std::uint64_t max_applied = 0;
  std::set<ReplicaId> distinct;
  for (const auto& vs : nv->justification) {
    if (vs.view != nv->view) return;
    if (!vs.verify_embedded(verifier_, identity_of(vs.replica))) return;
    distinct.insert(vs.replica);
    max_applied = std::max(max_applied, vs.max_committed);
  }
  if (distinct.size() < config_.quorum()) return;
  if (nv->start_seq != max_applied + 1) return;

  // Gather the prepared proofs at or above start: any slot that might
  // have committed anywhere is guaranteed (quorum intersection) to be
  // proven by some correct justifier; the highest old view wins.
  std::map<std::uint64_t, std::pair<std::uint64_t, PrePrepare>> chosen;
  for (const auto& vs : nv->justification) {
    for (const auto& proof : vs.prepared) {
      if (proof.order_seq < nv->start_seq) continue;
      const auto pp = verify_prepared_proof(proof);
      if (!pp) continue;  // Byzantine garbage: ignore
      const auto it = chosen.find(proof.order_seq);
      if (it == chosen.end() || pp->view > it->second.first) {
        chosen[proof.order_seq] = std::make_pair(pp->view, *pp);
      }
    }
  }

  if (nv->view > view_) {
    view_ = nv->view;
    ++stats_.view_changes;
  }
  // Re-baseline the delay-attack bookkeeping UNCONDITIONALLY: when we
  // already entered this view via NewLeader votes, samples queued while
  // the view change was in flight predate the new leader's tenure, and
  // aging them against it would spuriously evict a healthy fresh leader
  // (PR 9 bugfix — previously only done when the view advanced here).
  turnaround_.clear();
  for (auto& pending : peer_turnaround_) pending.clear();
  turnaround_baseline_ = sim_.now();
  last_po_aru_sent_.reset();
  if (nv->leader == id_) new_view_envelope_ = raw;
  view_start_[nv->view] = nv->start_seq;
  last_leader_activity_ = sim_.now();

  reproposal_view_ = nv->view;
  reproposal_top_ = chosen.empty() ? nv->start_seq - 1 : chosen.rbegin()->first;
  expected_rows_.clear();
  for (const auto& [seq, viewed_pp] : chosen) {
    // verify_matrix established matrix_digest == matrix_digest_of(rows)
    // for every chosen proposal.
    expected_rows_[seq] = viewed_pp.second.matrix_digest;
  }

  if (leader_of(view_) == id_) {
    next_order_seq_ =
        std::max({next_order_seq_, nv->start_seq, reproposal_top_ + 1});
    // Emit the re-proposals immediately: proven matrices verbatim,
    // no-op (empty) matrices for the holes between them.
    for (std::uint64_t seq = nv->start_seq; seq <= reproposal_top_; ++seq) {
      PrePrepare pp;
      pp.leader = id_;
      pp.view = view_;
      pp.order_seq = seq;
      const auto it = chosen.find(seq);
      if (it != chosen.end()) {
        pp.rows = it->second.second.rows;
      } else {
        pp.rows.assign(config_.n(), nullptr);
      }
      ++stats_.preprepares_sent;
      send_envelope(MsgType::kPrePrepare, pp.encode());
      last_prop_rows_ = std::move(pp.rows);
    }
  }
  try_apply();
}

// ---- reconciliation -----------------------------------------------------------

void Replica::recon_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  sim_.schedule_after(kReconInterval,
                      [this, epoch] { recon_tick(epoch); });
  if (acting_crashed()) return;

  // Stuck under a stable checkpoint: f+1 replicas applied a checkpoint
  // more than one interval past applied_seq_, so the ones that did have
  // pruned what this replica lacks (collect_garbage). One whole recon
  // interval without progress ends the fetching; the state transfers.
  const bool stuck =
      stable_checkpoint_ &&
      stable_checkpoint_->seq > applied_seq_ + kCheckpointInterval;
  if (stuck && !catching_up_ && recon_applied_seq_ == applied_seq_) {
    begin_state_transfer();
    return;
  }
  recon_applied_seq_ =
      stuck ? std::optional<std::uint64_t>(applied_seq_) : std::nullopt;

  for (ReplicaId origin = 0; origin < config_.n(); ++origin) {
    const PoLog& log = po_log_[origin];
    if (log.wanted_count == 0) continue;
    std::uint32_t sent = 0;
    for (std::uint64_t idx = 0; idx < log.slots.size() && sent < 64; ++idx) {
      if (!log.slots[idx].wanted) continue;
      PoReqFetch fetch;
      fetch.origin = origin;
      fetch.po_seq = log.base + idx;
      ++stats_.fetches_sent;
      ++sent;
      send_envelope(MsgType::kPoReqFetch, fetch.encode());
    }
  }

  // Catch-up lookahead: when the commit stream is far ahead of our
  // applied point (post-partition or post-recovery), fetch a window of
  // certificates per tick instead of one.
  std::set<std::uint64_t> cert_wanted = outstanding_cert_fetches_;
  if (highest_committed_ > applied_seq_) {
    const std::uint64_t until =
        std::min(highest_committed_, applied_seq_ + 32);
    for (std::uint64_t seq = applied_seq_ + 1; seq <= until; ++seq) {
      const auto it = slots_.find(seq);
      if (it == slots_.end() || !it->second.committed) cert_wanted.insert(seq);
    }
  }
  for (const auto seq : cert_wanted) {
    CommitCertReq req;
    req.order_seq = seq;
    ++cert_attempts_[seq];
    send_envelope(MsgType::kCommitCertReq, req.encode());
  }
  if (!cert_wanted.empty()) try_apply();

  // Ordering retransmission: under message loss a slot could otherwise
  // be stranded with no quorum ever assembling anywhere (deployments
  // get this from Spines reliability; the engine must not depend on
  // it). Re-announce our contribution to the lowest in-flight slots.
  for (std::uint64_t seq = applied_seq_ + 1; seq <= applied_seq_ + 8; ++seq) {
    const auto it = slots_.find(seq);
    if (it == slots_.end()) continue;
    OrderSlot& slot = it->second;
    if (!slot.preprepare || slot.committed || slot.view != view_) continue;
    // A delaying/reordering Byzantine leader does not helpfully
    // retransmit the very proposals it is holding back.
    if (is_leader() && !slot.preprepare_envelope.empty() &&
        byz_.preprepare_delay == 0 && !byz_.reorder_preprepares) {
      transport_->broadcast(slot.preprepare_envelope);
    }
    PrepareOrCommit prepare;
    prepare.replica = id_;
    prepare.view = slot.view;
    prepare.order_seq = seq;
    prepare.preprepare_digest = slot.digest;
    send_envelope(MsgType::kPrepare, prepare.encode());
    if (slot.sent_commit) {
      PrepareOrCommit commit = prepare;
      send_envelope(MsgType::kCommit, commit.encode());
    }
  }
}

void Replica::handle_po_fetch(const Envelope& env) {
  const auto fetch = PoReqFetch::decode(env.body);
  if (!fetch) return;
  if (fetch->origin >= config_.n()) return;
  const StoredPoRequest* stored = po_get(fetch->origin, fetch->po_seq);
  if (!stored) return;
  // Find the requester's replica id to respond directly.
  if (const auto r = sender_id(env)) {
    PoReqResp resp;
    resp.origin = fetch->origin;
    resp.po_seq = fetch->po_seq;
    resp.envelope = stored->envelope;
    send_envelope(MsgType::kPoReqResp, resp.encode(), *r);
  }
}

void Replica::handle_po_resp(const Envelope& env) {
  const auto resp = PoReqResp::decode(env.body);
  if (!resp) return;
  const auto inner = Envelope::decode(resp->envelope);
  if (!inner || inner->type != MsgType::kPoRequest) return;
  if (!verify_envelope(*inner, resp->envelope)) return;
  const auto req = PoRequest::decode(inner->body);
  if (!req) return;
  if (!sender_is(*inner, req->origin)) return;
  store_po_request(*req, resp->envelope);
}

void Replica::handle_cert_req(const Envelope& env) {
  const auto req = CommitCertReq::decode(env.body);
  if (!req) return;
  const auto slot_it = slots_.find(req->order_seq);
  if (slot_it == slots_.end() || !slot_it->second.committed) {
    serve_stable_vote(env, req->order_seq);
    return;
  }
  const OrderSlot& slot = slot_it->second;

  CommitCertResp resp;
  resp.order_seq = req->order_seq;
  resp.preprepare_envelope = slot.preprepare_envelope;
  for (const auto& [replica, entry] : slot.commits) {
    if (entry.first == slot.view && entry.second == slot.digest) {
      const auto env_it = slot.commit_envelopes.find(replica);
      if (env_it != slot.commit_envelopes.end()) {
        resp.commit_envelopes.push_back(env_it->second);
      }
    }
  }
  if (resp.commit_envelopes.size() < config_.quorum()) return;

  if (const auto r = sender_id(env)) {
    send_envelope(MsgType::kCommitCertResp, resp.encode(), *r);
  }
}

void Replica::serve_stable_vote(const Envelope& env, std::uint64_t seq) {
  // A slot at or below our oldest checkpoint was garbage-collected here
  // when the one after it became stable. Our signed vote for the stable
  // checkpoint, with f others, tells the requester it is behind it and
  // must state-transfer; it is sent at most once per kLeaderHeartbeat.
  if (!stable_checkpoint_ || checkpoint_blobs_.empty() ||
      seq > checkpoint_blobs_.begin()->first) {
    return;
  }
  const auto votes = checkpoint_votes_.find(stable_checkpoint_->seq);
  if (votes == checkpoint_votes_.end()) return;
  const auto mine = votes->second.find(id_);
  if (mine == votes->second.end() ||
      mine->second.first != stable_checkpoint_->digest) {
    return;
  }
  const auto requester = sender_id(env);
  if (!requester || *requester == id_) return;
  const auto [it, first] =
      checkpoint_served_at_.try_emplace(*requester, sim_.now());
  if (!first && sim_.now() - it->second < kLeaderHeartbeat) return;
  it->second = sim_.now();
  transport_->send(*requester, mine->second.second);
}

void Replica::handle_cert_resp(const Envelope& env) {
  const auto resp = CommitCertResp::decode(env.body);
  if (!resp) return;
  if (resp->order_seq <= applied_seq_) return;

  const auto pp_env = Envelope::decode(resp->preprepare_envelope);
  if (!pp_env || pp_env->type != MsgType::kPrePrepare ||
      !verify_envelope(*pp_env, resp->preprepare_envelope)) {
    return;
  }
  auto pp = PrePrepare::decode(pp_env->body);
  if (!pp || pp->order_seq != resp->order_seq) return;
  if (!sender_is(*pp_env, pp->leader)) return;
  if (!verify_matrix(*pp)) return;
  const crypto::Digest digest = pp->digest();

  std::set<ReplicaId> committers;
  for (const auto& commit_bytes : resp->commit_envelopes) {
    const auto commit_env = Envelope::decode(commit_bytes);
    if (!commit_env || commit_env->type != MsgType::kCommit ||
        !verify_envelope(*commit_env, commit_bytes)) {
      continue;
    }
    const auto commit = PrepareOrCommit::decode(commit_env->body);
    if (!commit || commit->order_seq != resp->order_seq) continue;
    if (!sender_is(*commit_env, commit->replica)) continue;
    if (commit->view != pp->view || commit->preprepare_digest != digest) continue;
    committers.insert(commit->replica);
  }
  if (committers.size() < config_.quorum()) return;

  OrderSlot& slot = slots_[resp->order_seq];
  if (slot.digest != digest) {
    // The trace stamps belong to the proposal they were taken for: a
    // superseded one's would date this proposal's ordering before the
    // updates it carries were even submitted.
    slot.pp_at = 0;
    slot.commit_at = 0;
  }
  slot.preprepare = *pp;
  slot.preprepare_envelope = resp->preprepare_envelope;
  slot.digest = digest;
  slot.view = pp->view;
  slot.prepared = true;
  slot.committed = true;
  highest_committed_ = std::max(highest_committed_, resp->order_seq);
  try_apply();
}

// ---- state transfer (paper §III-A) --------------------------------------------

util::Bytes Replica::snapshot_bundle() const {
  util::ByteWriter w;
  w.u32(config_.n());
  for (const auto v : exec_aru_) w.u64(v);
  w.u32(static_cast<std::uint32_t>(executed_clients_.size()));
  for (const auto& [client, seq] : executed_clients_) {
    w.str(client);
    w.u64(seq);
  }
  w.blob(app_.snapshot());
  return w.take();
}

void Replica::install_bundle(std::uint64_t applied_seq,
                             std::span<const std::uint8_t> blob) {
  util::ByteReader r(blob);
  const std::uint32_t n = r.u32();
  if (n != config_.n()) throw util::SerializationError("bundle width mismatch");
  exec_aru_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) exec_aru_[i] = r.u64();
  executed_clients_.clear();
  const std::uint32_t clients = r.u32();
  for (std::uint32_t i = 0; i < clients; ++i) {
    const std::string client = r.str();
    executed_clients_[client] = r.u64();
  }
  const util::Bytes app_blob = r.blob();
  r.expect_done();
  app_.restore(app_blob);
  applied_seq_ = applied_seq;
  highest_committed_ = std::max(highest_committed_, applied_seq);
  // Receipt cursors start from the execution state: everything at or
  // below exec_aru is already reflected in the restored snapshot, so
  // acknowledging it is sound and keeps our PO-ARUs meaningful. The
  // slots and PO-Requests the snapshot covers go, and the PO logs
  // re-base onto the installed position — without this, fresh
  // PO-Requests near exec_aru would land past the insert horizon of a
  // stale base and be dropped forever. PO-Requests past the snapshot
  // stay: a replica catching up may hold its own that no peer has yet.
  drop_covered(applied_seq, exec_aru_);
  for (ReplicaId i = 0; i < config_.n(); ++i) {
    recv_aru_[i] = std::max(recv_aru_[i], exec_aru_[i]);
  }
}

void Replica::begin_state_transfer() {
  // A gap in the committed order that peers no longer serve: install a
  // stable checkpoint in place, the §III-A transfer without the
  // rejuvenation. The replica keeps running meanwhile, and keeps its
  // parked client updates and its own unexecuted PO-Requests.
  if (recovering_ || catching_up_) return;
  log_.warn("ordering gap unrecoverable from peers; catching up via state "
            "transfer");
  catching_up_ = true;
  state_nonce_ = rng_.next();
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(1, [this, epoch] { recovery_tick(epoch); });
}

constexpr sim::Time kStateRetryInterval = 300 * sim::kMillisecond;

void Replica::recovery_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_ || !(recovering_ || catching_up_)) return;
  if (chosen_state_ && ++snapshot_ticks_ % 2 == 1) {
    // The snapshot, or the request for it, was lost: ask again.
    SnapshotReq sreq;
    sreq.nonce = state_nonce_;
    sreq.applied_seq = chosen_state_->applied_seq;
    send_envelope(MsgType::kSnapshotReq, sreq.encode());
  } else {
    // No checkpoint chosen yet, or the chosen one went unanswered
    // across two ticks: the peers may have garbage-collected it. A
    // fresh round, under the same nonce, may choose a newer checkpoint;
    // until it does, the chosen one's snapshot is still taken (DESIGN.md
    // §6 "Proactive recovery & fault injection").
    if (chosen_state_) state_resps_.clear();
    StateReq req;
    req.nonce = state_nonce_;
    ++stats_.state_reqs_sent;
    send_envelope(MsgType::kStateReq, req.encode());
  }
  sim_.schedule_after(kStateRetryInterval,
                      [this, epoch] { recovery_tick(epoch); });
}

void Replica::handle_state_req(const Envelope& env) {
  const auto req = StateReq::decode(env.body);
  if (!req) return;

  // Serve the latest checkpoint we can hand over as a stable blob.
  StateResp resp;
  resp.nonce = req->nonce;
  resp.view = view_;
  if (stable_checkpoint_ && checkpoint_blobs_.count(stable_checkpoint_->seq)) {
    resp.applied_seq = stable_checkpoint_->seq;
    resp.snapshot_digest = stable_checkpoint_->digest;
  } else if (!checkpoint_blobs_.empty()) {
    const auto& [seq, own] = *checkpoint_blobs_.rbegin();
    resp.applied_seq = seq;
    resp.snapshot_digest = own.digest;
  } else {
    return;
  }

  if (const auto r = sender_id(env)) {
    send_envelope(MsgType::kStateResp, resp.encode(), *r);
  }
}

void Replica::handle_state_resp(const Envelope& env) {
  if (!(recovering_ || catching_up_)) return;
  if (chosen_state_ && snapshot_ticks_ < 2) return;  // no fresh round open
  const auto resp = StateResp::decode(env.body);
  if (!resp || resp->nonce != state_nonce_) return;
  const auto sender = sender_id(env);
  if (!sender) return;
  state_resps_[*sender] = *resp;

  // f+1 matching (applied_seq, digest) pairs vouch for a state at least
  // one correct replica holds.
  std::map<std::pair<std::uint64_t, crypto::Digest>, std::uint32_t> tally;
  for (const auto& [replica, r] : state_resps_) {
    ++tally[std::make_pair(r.applied_seq, r.snapshot_digest)];
  }
  for (const auto& [key, count] : tally) {
    if (count < config_.f + 1) continue;
    if (chosen_state_ && key.first <= chosen_state_->applied_seq) continue;
    if (catching_up_ && key.first <= applied_seq_) continue;  // nothing new
    StateResp chosen;
    chosen.applied_seq = key.first;
    chosen.snapshot_digest = key.second;
    // Adopt the (f+1)-th largest reported view: at least one correct
    // replica is at or above it.
    std::vector<std::uint64_t> views;
    for (const auto& [replica, r] : state_resps_) views.push_back(r.view);
    std::sort(views.begin(), views.end(), std::greater<>());
    chosen.view = views[std::min<std::size_t>(config_.f, views.size() - 1)];
    chosen_state_ = chosen;
    snapshot_ticks_ = 0;

    SnapshotReq sreq;
    sreq.nonce = state_nonce_;
    sreq.applied_seq = chosen.applied_seq;
    send_envelope(MsgType::kSnapshotReq, sreq.encode());
  }
}

void Replica::handle_snapshot_req(const Envelope& env) {
  const auto req = SnapshotReq::decode(env.body);
  if (!req) return;
  const auto blob_it = checkpoint_blobs_.find(req->applied_seq);
  if (blob_it == checkpoint_blobs_.end()) return;

  SnapshotResp resp;
  resp.nonce = req->nonce;
  resp.applied_seq = req->applied_seq;
  resp.blob = blob_it->second.blob;
  if (const auto r = sender_id(env)) {
    send_envelope(MsgType::kSnapshotResp, resp.encode(), *r);
  }
}

void Replica::handle_snapshot_resp(const Envelope& env) {
  if (!(recovering_ || catching_up_) || !chosen_state_) return;
  const auto resp = SnapshotResp::decode(env.body);
  if (!resp || resp->nonce != state_nonce_) return;
  if (resp->applied_seq != chosen_state_->applied_seq) return;
  if (crypto::sha256(resp->blob) != chosen_state_->snapshot_digest) return;
  if (catching_up_) {
    finish_catch_up(*resp);
    return;
  }

  if (!install_snapshot(*resp)) return;
  view_ = chosen_state_->view;
  recovering_ = false;
  state_resps_.clear();
  chosen_state_.reset();
  log_.info("state transfer complete: applied_seq ", applied_seq_, ", view ",
            view_);
  app_.on_state_transfer();
  arm_timers();
  // Signal last, with the replica fully rejoined: observers may react
  // by taking other replicas down (the recovery scheduler's gate).
  if (recovery_done_observer_) recovery_done_observer_();
}

bool Replica::install_snapshot(const SnapshotResp& resp) {
  try {
    install_bundle(resp.applied_seq, resp.blob);
  } catch (const util::SerializationError&) {
    return false;
  }
  ++stats_.state_transfers;
  stats_.state_transfer_bytes += resp.blob.size();
  take_checkpoint();
  return true;
}

void Replica::finish_catch_up(const SnapshotResp& resp) {
  // Fetches may have carried the replica past the snapshot meanwhile.
  if (resp.applied_seq > applied_seq_) {
    if (!install_snapshot(resp)) return;
    log_.info("caught up by state transfer: applied_seq ", applied_seq_);
    app_.on_state_transfer();
  }
  // A replica left in a view the others moved on from (an old leader
  // cut off through a view change never suspects itself) joins theirs,
  // as a rejoining replica does, with a fresh leader-activity baseline.
  if (chosen_state_->view > view_) {
    view_ = chosen_state_->view;
    last_leader_activity_ = sim_.now();
    turnaround_.clear();
    for (auto& pending : peer_turnaround_) pending.clear();
    turnaround_baseline_ = sim_.now();
    last_po_aru_sent_.reset();
  }
  catching_up_ = false;
  state_resps_.clear();
  chosen_state_.reset();
  outstanding_cert_fetches_.erase(
      outstanding_cert_fetches_.begin(),
      outstanding_cert_fetches_.upper_bound(applied_seq_));
  cert_attempts_.erase(cert_attempts_.begin(),
                       cert_attempts_.upper_bound(applied_seq_));
  collect_garbage();
  try_apply();
}

}  // namespace spire::prime
