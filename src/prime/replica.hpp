// Prime BFT replica.
//
// Implements preordering (PO-Request / cumulative PO-ARU), leader-based
// ordering on matrices of signed PO-ARUs (Pre-Prepare / Prepare /
// Commit with 2f+k+1 quorums out of n = 3f+2k+1), deterministic
// execution by matrix eligibility, checkpointing, reconciliation
// fetches, suspect-leader view changes (the bounded-delay defense), and
// the application-level state-transfer signal that the paper's §III-A
// identifies as essential for a real SCADA deployment.
//
// Documented simplifications vs. full Prime (see DESIGN.md §5):
//  * PO-Acks are folded into the cumulative PO-ARU vector;
//  * the view change collects signed per-replica ordering summaries at
//    the new leader instead of Prime's full VC sub-protocol; quorum
//    intersection (2f+k+1 out of 3f+2k+1) yields the same safety
//    argument;
//  * the delay-attack defense monitors leader heartbeat freshness and
//    own-row turnaround rather than RTT-calibrated expectations.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "crypto/verify_cache.hpp"
#include "obs/metrics.hpp"
#include "prime/application.hpp"
#include "prime/messages.hpp"
#include "prime/transport.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::prime {

struct PrimeConfig {
  std::uint32_t f = 1;  ///< tolerated intrusions
  std::uint32_t k = 0;  ///< simultaneous proactive recoveries

  [[nodiscard]] std::uint32_t n() const { return 3 * f + 2 * k + 1; }
  [[nodiscard]] std::uint32_t quorum() const { return 2 * f + k + 1; }

  sim::Time po_request_interval = 10 * sim::kMillisecond;  ///< batch flush
  /// PO-ARU tick. A tick signs and sends a row only when it differs from
  /// the last one sent, or when kLeaderHeartbeat has passed since it.
  sim::Time po_aru_interval = 20 * sim::kMillisecond;
  sim::Time preprepare_interval = 30 * sim::kMillisecond;
  /// Clients whose updates replicas accept (proxies, HMIs, tools).
  std::vector<std::string> client_identities;
};

/// Idle heartbeat: the leader re-sends a Pre-Prepare, and every replica
/// its unchanged PO-ARU row, at least this often.
constexpr sim::Time kLeaderHeartbeat = 200 * sim::kMillisecond;
/// Applied matrices per checkpoint. A stable checkpoint garbage-collects
/// what the checkpoint before it covers (Replica::collect_garbage).
constexpr std::uint64_t kCheckpointInterval = 16;
/// Max age of an un-included own PO-ARU before the leader is suspected
/// (turnaround bound; the Prime delay-attack defense).
constexpr sim::Time kTurnaroundBound = 800 * sim::kMillisecond;

/// Behaviour override used by the attack framework for a compromised
/// replica. A compromised replica still cannot forge other identities.
enum class ReplicaBehavior {
  kCorrect,
  kCrashed,      ///< sends and processes nothing
  kSilentLeader, ///< correct except: as leader, sends no Pre-Prepares
  kStaleLeader,  ///< as leader, sends Pre-Prepares with empty matrices
};

/// Scripted Byzantine behaviours (adversary v2). Attached to a replica
/// by the attack framework; the replica keeps its own identity and keys
/// but deviates from the protocol in the configured ways — it still
/// cannot forge other replicas' signatures. recover() clears the
/// config: a rejuvenated replica runs a clean code image.
struct ByzantineConfig {
  /// (a) Prime's signature performance attack: as leader, hold every
  /// Pre-Prepare back this long before it reaches the wire. Calibrated
  /// just under `kTurnaroundBound` the delay is invisible to the
  /// suspicion machinery (that is the point of the bounded-delay
  /// guarantee — the damage is bounded, not zero); above the bound the
  /// TAT defense must evict the leader.
  sim::Time preprepare_delay = 0;
  /// Emit held-back Pre-Prepares pairwise swapped (reordering attack;
  /// implies holding proposals until a pair has accumulated).
  bool reorder_preprepares = false;
  /// (b) Equivocation: as leader, send divergent row matrices for the
  /// same (view, seq) to the two halves of the peer set.
  bool equivocate = false;
  /// (c) Withholding: as leader, never include these replicas' PO-ARU
  /// rows in proposed matrices (starves the victims' updates).
  std::vector<ReplicaId> withhold_victims;
  /// (d) Forged Merkle paths: corrupt the inclusion proof of this
  /// fraction of outgoing batch-signed wires.
  double forge_merkle_rate = 0.0;

  [[nodiscard]] bool active() const {
    return preprepare_delay != 0 || reorder_preprepares || equivocate ||
           !withhold_victims.empty() || forge_merkle_rate > 0.0;
  }
};

struct ReplicaStats {
  std::uint64_t updates_executed = 0;
  std::uint64_t po_requests_sent = 0;
  std::uint64_t po_arus_sent = 0;  ///< signed PO-ARU rows broadcast
  std::uint64_t preprepares_sent = 0;
  std::uint64_t matrices_applied = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t fetches_sent = 0;
  std::uint64_t dropped_bad_signature = 0;
  std::uint64_t dropped_unknown_client = 0;
  std::uint64_t checkpoints_stable = 0;
  std::uint64_t verify_cache_hits = 0;
  // Ordering fast-path counters (PR 3).
  std::uint64_t stale_po_arus_dropped = 0;    ///< PO-ARUs older than latest
  std::uint64_t recon_fetches_queued = 0;     ///< PO-Request gaps marked wanted
  std::uint64_t recon_fetches_satisfied = 0;  ///< wanted gaps later filled
  std::uint64_t row_verify_short_circuits = 0;  ///< rows matched byte-for-byte
  std::uint64_t batches_sealed = 0;           ///< Merkle-signed send batches
  // Recovery observability (PR 4).
  std::uint64_t state_transfer_bytes = 0;  ///< snapshot bytes installed
  std::uint64_t state_reqs_sent = 0;       ///< StateReq (re)transmissions
  // Adversary v2 (PR 9): suspicion-machinery observability...
  std::uint64_t suspect_ticks = 0;            ///< suspicion poll executions
  std::uint64_t turnaround_suspects = 0;      ///< own-row TAT bound exceeded
  std::uint64_t equivocation_suspects = 0;    ///< f+1 divergent same-view prepares
  std::uint64_t withheld_aru_suspects = 0;    ///< peer PO-ARU aged past bound
  // ...and attacker-side counters (what the Byzantine script did).
  std::uint64_t byz_preprepares_delayed = 0;
  std::uint64_t byz_equivocations_sent = 0;
  std::uint64_t byz_rows_withheld = 0;
  std::uint64_t byz_merkle_paths_forged = 0;
  // Retention: the most order slots, stored PO-Requests and
  // PO-Request envelope bytes held at once.
  std::uint64_t retained_slots_high_water = 0;
  std::uint64_t retained_po_envelopes_high_water = 0;
  std::uint64_t retained_po_bytes_high_water = 0;
};

class Replica {
 public:
  Replica(sim::Simulator& sim, ReplicaId id, PrimeConfig config,
          const crypto::Keyring& keyring, Application& app,
          std::unique_ptr<ReplicaTransport> transport, sim::Rng rng);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Starts protocol timers. `fresh` replicas begin at the initial
  /// state; call recover() instead when rejoining a running system.
  void start();
  /// Stops all activity and forgets volatile state (proactive-recovery
  /// takedown, or crash injection).
  void shutdown();
  /// Restarts from a clean slate with a new diversity variant and runs
  /// the state-transfer protocol to rejoin (paper §II proactive
  /// recovery; §III-A application-level state transfer).
  void recover();

  /// Feeds a received envelope (from Spines or loopback fabric).
  void on_message(const util::Bytes& envelope_bytes);

  [[nodiscard]] ReplicaId id() const { return id_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] std::uint64_t view() const { return view_; }
  [[nodiscard]] std::uint64_t applied_seq() const { return applied_seq_; }
  [[nodiscard]] std::uint64_t variant() const { return variant_; }
  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t verify_cache_size() const {
    return verify_cache_.size();
  }
  [[nodiscard]] ReplicaId leader_of(std::uint64_t view) const {
    return static_cast<ReplicaId>(view % config_.n());
  }
  [[nodiscard]] bool is_leader() const { return leader_of(view_) == id_; }

  // ---- attack-framework hooks --------------------------------------------
  void set_behavior(ReplicaBehavior behavior) { behavior_ = behavior; }
  [[nodiscard]] ReplicaBehavior behavior() const { return behavior_; }
  /// Installs a scripted Byzantine behaviour (see ByzantineConfig).
  /// Survives crash/restart; cleared by recover().
  void set_byzantine(ByzantineConfig byz) { byz_ = std::move(byz); }
  [[nodiscard]] const ByzantineConfig& byzantine() const { return byz_; }

  /// Observer fired when a recover()'s application-level state transfer
  /// completes (`recovering_` clears). The ProactiveRecovery scheduler
  /// uses it as the completion gate that keeps simultaneous recoveries
  /// within k.
  using RecoveryDoneObserver = std::function<void()>;
  void set_recovery_done_observer(RecoveryDoneObserver obs) {
    recovery_done_observer_ = std::move(obs);
  }

 private:
  // ---- outbound helpers ----
  /// Queues a unit for the current send tick. All units queued within
  /// one simulator timestamp are sealed together under a single Merkle
  /// root signature (batch of one = plain solo seal). Directed sends to
  /// self stay synchronous.
  void send_envelope(MsgType type, util::Bytes body,
                     std::optional<ReplicaId> to = std::nullopt);
  /// Drains send_queue_: seals each batch, self-delivers broadcasts,
  /// hands the wires to the transport by move.
  void flush_sends();

  // ---- identity / verification helpers ----
  /// Precomputed replica identity string (empty for out-of-range ids,
  /// which no verifier knows).
  [[nodiscard]] const std::string& identity_of(ReplicaId r) const;
  /// True iff the envelope's sender is replica `r`.
  [[nodiscard]] bool sender_is(const Envelope& env, ReplicaId r) const;
  /// Reverse lookup: sender identity -> replica id, if any.
  [[nodiscard]] std::optional<ReplicaId> sender_id(const Envelope& env) const;
  /// Cached verification of any signed unit whose wire form is
  /// signed-prefix || 32-byte MAC (envelopes, standalone PO-ARUs).
  /// `unit_bytes` is the full wire form, MAC included. `cacheable`
  /// false skips the verified-digest memo (check and insert) for units
  /// that are consumed exactly once, saving the SHA-256 cache key.
  bool verify_unit(const std::string& identity,
                   std::span<const std::uint8_t> unit_bytes,
                   const crypto::Signature& sig, bool cacheable = true);
  /// Envelope verification memoized through verify_cache_. `raw_bytes`
  /// is the envelope's full wire form (signature included). Batched
  /// envelopes always memoize their root (that is the whole mechanism);
  /// `cacheable` only governs the solo path.
  bool verify_envelope(const Envelope& env,
                       std::span<const std::uint8_t> raw_bytes,
                       bool cacheable = true);
  /// Embedded PO-ARU verification memoized through verify_cache_; rows
  /// re-shipped inside Pre-Prepares hit the entry their standalone
  /// broadcast created.
  bool verify_row(const PoAru& row, ReplicaId r);
  /// The one matrix check, for Pre-Prepares from the leader, prepared
  /// proofs and commit certificates alike: n rows, each absent or owned
  /// by its index with an n-wide vector and a valid signature
  /// (verify_row), and the claimed matrix digest equal to the digest of
  /// those rows.
  bool verify_matrix(const PrePrepare& pp);
  /// Client-signature verification memoized through verify_cache_ (an
  /// update is re-checked at receipt and again inside every PO-Request
  /// that batches it).
  bool verify_client_update(const ClientUpdate& update);
  /// Memoized responsible-replica lookup for a client identity (pure
  /// function of the name; only known clients are cached).
  ReplicaId client_primary(const std::string& client);
  /// on_message body; `pre_verified` is set only for self-delivered
  /// bytes this replica just built and signed itself.
  void process_message(const util::Bytes& envelope_bytes, bool pre_verified);

  // ---- timers ----
  void po_flush_tick(std::uint64_t epoch);
  void po_aru_tick(std::uint64_t epoch);
  void preprepare_tick(std::uint64_t epoch);
  void suspect_tick(std::uint64_t epoch);
  void recon_tick(std::uint64_t epoch);
  void recovery_tick(std::uint64_t epoch);
  void arm_timers();

  // ---- message handlers ----
  void handle_client_update(const Envelope& env);
  void enqueue_for_preorder(ClientUpdate update);
  void drain_preorder_buffer();
  void handle_po_request(const Envelope& env, const util::Bytes& raw);
  void handle_po_aru(const Envelope& env);
  void handle_preprepare(const Envelope& env, const util::Bytes& raw);
  void handle_prepare_or_commit(const Envelope& env, const util::Bytes& raw,
                                bool is_commit);
  void handle_new_leader(const Envelope& env);
  void handle_view_state(const Envelope& env);
  void handle_new_view(const Envelope& env, const util::Bytes& raw);
  void handle_po_fetch(const Envelope& env);
  void handle_po_resp(const Envelope& env);
  void handle_state_req(const Envelope& env);
  void handle_state_resp(const Envelope& env);
  void handle_snapshot_req(const Envelope& env);
  void handle_snapshot_resp(const Envelope& env);
  void handle_cert_req(const Envelope& env);
  void handle_cert_resp(const Envelope& env);
  /// Answers a certificate request for a pruned slot with this
  /// replica's vote for its stable checkpoint.
  void serve_stable_vote(const Envelope& env, std::uint64_t seq);
  void handle_checkpoint(const Envelope& env, const util::Bytes& raw);

  // ---- protocol steps ----
  void store_po_request(const PoRequest& req, const util::Bytes& raw);
  void try_commit(std::uint64_t seq);
  void try_apply();
  /// True iff every PO-Request the matrix makes eligible is stored.
  /// When `mark_missing`, flags each gap in the PO log for recon_tick.
  [[nodiscard]] bool can_apply(std::uint64_t seq, bool mark_missing);
  void apply_matrix(std::uint64_t seq);
  [[nodiscard]] std::vector<std::uint64_t> eligibility(const PrePrepare& pp) const;
  void maybe_checkpoint();
  /// Once this replica has applied the stable checkpoint itself, drops
  /// what its own checkpoint just below that one covers: order slots at
  /// or below it and the PO-Requests they executed (DESIGN.md §5
  /// "Retained state").
  void collect_garbage();
  /// Raises the retention high-waters to the current sizes.
  void note_retention();
  /// Stored PO-Requests and their envelope bytes, over all origins.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> retained_po() const;
  void suspect(std::uint64_t proposed_view);
  void enter_view(std::uint64_t view);
  void maybe_send_new_view();
  /// Validates a prepared proof; returns the proven PrePrepare.
  /// Non-const: nested envelope verifications go through verify_cache_.
  [[nodiscard]] std::optional<PrePrepare> verify_prepared_proof(
      const PreparedProof& proof);
  /// Matrix digest of the all-absent matrix (the re-proposal
  /// constraint for unconstrained slots).
  [[nodiscard]] crypto::Digest empty_matrix_digest() const;
  /// Starts an in-place catch-up: the replica keeps running and
  /// installs a checkpoint f+1 replicas vouch for (finish_catch_up).
  void begin_state_transfer();
  void finish_catch_up(const SnapshotResp& resp);
  /// Installs a vouched snapshot and records it as an own checkpoint.
  bool install_snapshot(const SnapshotResp& resp);
  /// Drops order slots at or below `seq` and the PO-Requests that
  /// `exec_aru` marks executed.
  void drop_covered(std::uint64_t seq,
                    const std::vector<std::uint64_t>& exec_aru);
  [[nodiscard]] util::Bytes snapshot_bundle() const;
  /// Records the current state as a checkpoint at applied_seq_ and
  /// returns its snapshot digest.
  const crypto::Digest& take_checkpoint();
  void install_bundle(std::uint64_t applied_seq,
                      std::span<const std::uint8_t> blob);
  [[nodiscard]] bool acting_crashed() const;

  sim::Simulator& sim_;
  ReplicaId id_;
  PrimeConfig config_;
  const crypto::Keyring& keyring_;
  crypto::Signer signer_;
  crypto::Verifier verifier_;
  crypto::VerifyCache verify_cache_;
  std::vector<std::string> identities_;  ///< replica id -> identity string
  Application& app_;
  std::unique_ptr<ReplicaTransport> transport_;
  sim::Rng rng_;
  util::Logger log_;

  bool running_ = false;
  bool recovering_ = false;
  std::uint64_t epoch_ = 0;  ///< invalidates timers across restarts
  std::uint64_t variant_ = 0;
  ReplicaBehavior behavior_ = ReplicaBehavior::kCorrect;
  ByzantineConfig byz_;
  /// Held-back Pre-Prepare wires for the delay/reorder attack.
  std::vector<util::Bytes> byz_holdback_;

  // ---- preordering state ----
  std::uint64_t next_po_seq_ = 1;
  std::vector<ClientUpdate> pending_batch_;
  /// Highest client_seq this replica has batched per client. Local-only
  /// bookkeeping: guarantees each origin emits a client's updates in
  /// contiguous order, which the execution-level high-water dedup
  /// relies on for exactly-once, in-order semantics.
  std::map<std::string, std::uint64_t> last_batched_;
  /// Out-of-order client updates parked until their predecessor is
  /// batched or executed (bounded per client).
  std::map<std::string, std::map<std::uint64_t, ClientUpdate>> preorder_buffer_;
  /// Flush ticks a client's parked queue has made no progress. After a
  /// bound, the origin "jumps" to the lowest parked sequence — the case
  /// where the predecessor will never arrive (e.g. client sessions
  /// survive a full-system ground-truth restart, paper §III-A).
  std::map<std::string, int> preorder_stall_;
  /// Application state at construction; a fresh start() reinstalls it
  /// (clean reinstall semantics, as opposed to recover()'s transfer).
  util::Bytes initial_app_snapshot_;
  bool started_once_ = false;
  /// A received PO-Request. Once executed, `request.updates` is
  /// emptied: only the envelope is still needed, and only to re-serve.
  struct StoredPoRequest {
    PoRequest request;
    util::Bytes envelope;  ///< origin-signed, re-servable
  };
  /// Per-origin PO-Request log: a deque ring indexed by po_seq - base.
  /// O(1) contains/get/insert on the per-PO-Request hot path (the old
  /// std::map keyed by (origin, po_seq) profiled at ~25%). A slot's
  /// `wanted` flag replaces the old unbounded outstanding_fetches_ set;
  /// wanted_count caps reconciliation backlog per origin.
  struct PoSlot {
    std::unique_ptr<StoredPoRequest> stored;
    bool wanted = false;
  };
  struct PoLog {
    std::uint64_t base = 1;  ///< po_seq of slots.front()
    std::deque<PoSlot> slots;
    std::uint32_t wanted_count = 0;
    std::uint64_t stored_count = 0;  ///< slots holding a PO-Request
    std::uint64_t stored_bytes = 0;  ///< their envelope bytes
  };
  static constexpr std::uint64_t kPoHorizon = 8192;       ///< max seqs past base
  static constexpr std::uint32_t kMaxWantedPerOrigin = 512;
  std::vector<PoLog> po_log_;  ///< one log per origin
  [[nodiscard]] bool po_contains(ReplicaId origin, std::uint64_t seq) const;
  [[nodiscard]] const StoredPoRequest* po_get(ReplicaId origin,
                                              std::uint64_t seq) const;
  void po_mark_wanted(ReplicaId origin, std::uint64_t seq);
  std::vector<std::uint64_t> recv_aru_;      ///< contiguous receipt per origin
  std::uint64_t my_aru_seq_ = 0;
  /// When po_aru_tick last sent a row. It sends again when recv_aru_
  /// moved or kLeaderHeartbeat has passed; start, a recovery's rejoin
  /// and a view install reset this so the next tick sends.
  std::optional<sim::Time> last_po_aru_sent_;
  std::vector<PrePrepare::Row> latest_aru_;  ///< freshest verified per replica
  /// View in which latest_aru_[r] was accepted. The raw-byte-equality
  /// verify short-circuit is only valid within that view: a Byzantine
  /// leader may otherwise replay a stale signed row across views
  /// without any re-verification (PR 9 bugfix).
  std::vector<std::uint64_t> latest_aru_view_;
  std::deque<std::pair<sim::Time, std::uint64_t>> turnaround_;  ///< (sent, aru_seq)
  /// Per-origin pending-inclusion samples mirroring turnaround_ for
  /// peers' broadcast PO-ARUs (withheld-ARU aging defense): a leader
  /// whose matrices keep omitting a peer's rows past the relaxed bound
  /// is running Prime's exclusion attack and gets suspected.
  std::vector<std::deque<std::pair<sim::Time, std::uint64_t>>> peer_turnaround_;
  static constexpr std::size_t kPeerTurnaroundCap = 16;
  /// Instant the current view was installed. All turnaround aging is
  /// measured from max(sample time, baseline): a freshly seated leader
  /// cannot be blamed for backlog the previous leader created.
  sim::Time turnaround_baseline_ = 0;

  // ---- ordering state ----
  std::uint64_t view_ = 0;
  std::uint64_t next_order_seq_ = 1;  ///< leader's next proposal
  std::map<std::uint64_t, std::uint64_t> view_start_;  ///< view -> start_seq
  struct OrderSlot {
    /// The decoded proposal; dropped once the slot is executed.
    std::optional<PrePrepare> preprepare;
    util::Bytes preprepare_envelope;
    crypto::Digest digest{};
    std::uint64_t view = 0;
    /// replica -> (view, digest) of its Prepare / Commit.
    std::map<ReplicaId, std::pair<std::uint64_t, crypto::Digest>> prepares;
    std::map<ReplicaId, std::pair<std::uint64_t, crypto::Digest>> commits;
    std::map<ReplicaId, util::Bytes> prepare_envelopes;
    std::map<ReplicaId, util::Bytes> commit_envelopes;
    bool prepared = false;
    bool committed = false;
    bool sent_commit = false;
    // Trace stamps (obs): when this slot's Pre-Prepare was installed
    // and when it committed locally. Plain stores, kept even with
    // tracing off.
    sim::Time pp_at = 0;
    sim::Time commit_at = 0;
  };
  std::map<std::uint64_t, OrderSlot> slots_;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t highest_committed_ = 0;
  sim::Time last_leader_activity_ = 0;
  sim::Time last_preprepare_sent_ = 0;
  std::uint64_t last_suspected_view_ = 0;
  std::map<std::uint64_t, int> cert_attempts_;
  /// Rows of the leader's previous proposal (empty = none, or the next
  /// proposal must go out regardless). Rows are shared immutable
  /// objects, so pointer equality tells the idle skip nothing changed.
  std::vector<PrePrepare::Row> last_prop_rows_;

  // ---- send batching ----
  struct PendingSend {
    MsgType type = MsgType::kClientUpdate;
    util::Bytes body;
    std::optional<ReplicaId> to;
  };
  std::vector<PendingSend> send_queue_;
  bool flush_scheduled_ = false;
  bool flushing_ = false;

  // ---- execution state ----
  std::vector<std::uint64_t> exec_aru_;
  std::map<std::string, std::uint64_t> executed_clients_;

  // ---- view change state ----
  std::map<std::uint64_t, std::set<ReplicaId>> new_leader_votes_;
  std::map<ReplicaId, ViewState> collected_view_states_;  ///< for view_ (as leader)
  bool new_view_sent_ = false;
  /// At the leader of view_, the NewView that installed it, as signed
  /// (empty elsewhere and until it is accepted). The leader re-serves it
  /// to a replica that missed the view change, so that replica can enter
  /// the view; new_view_served_at_ holds each requester's last re-serve.
  util::Bytes new_view_envelope_;
  std::map<ReplicaId, sim::Time> new_view_served_at_;
  /// Re-proposal constraints for the current view, derived from the
  /// accepted NewView's prepared proofs: seq -> required matrix-rows
  /// digest. Slots start..reproposal_top_ must match these.
  std::map<std::uint64_t, crypto::Digest> expected_rows_;
  std::uint64_t reproposal_top_ = 0;
  std::uint64_t reproposal_view_ = 0;

  // ---- checkpoints ----
  /// A checkpoint this replica took (or installed): the snapshot it
  /// serves to state transfer, and the per-origin execution point whose
  /// PO-Requests the snapshot covers.
  struct OwnCheckpoint {
    util::Bytes blob;
    crypto::Digest digest{};
    std::vector<std::uint64_t> exec_aru;
  };
  /// Own checkpoints, from the one just below the stable checkpoint up
  /// (collect_garbage).
  std::map<std::uint64_t, OwnCheckpoint> checkpoint_blobs_;
  std::map<std::uint64_t, std::map<ReplicaId, std::pair<crypto::Digest, util::Bytes>>>
      checkpoint_votes_;  ///< seq -> replica -> (digest, envelope)
  struct StableCheckpoint {
    std::uint64_t seq = 0;
    crypto::Digest digest{};
  };
  std::optional<StableCheckpoint> stable_checkpoint_;
  /// Per requester, when this replica last answered a certificate
  /// request for a pruned slot with its stable checkpoint vote.
  std::map<ReplicaId, sim::Time> checkpoint_served_at_;

  // ---- recovery / reconciliation ----
  std::uint64_t state_nonce_ = 0;
  std::map<ReplicaId, StateResp> state_resps_;
  std::optional<StateResp> chosen_state_;
  /// recovery_ticks since chosen_state_ was chosen with its snapshot
  /// still missing: odd ones ask for it again, even ones poll afresh.
  std::uint32_t snapshot_ticks_ = 0;
  /// A state transfer runs while the replica keeps participating
  /// (begin_state_transfer); recovering_ is the rejoin after a reboot.
  bool catching_up_ = false;
  std::set<std::uint64_t> outstanding_cert_fetches_;
  /// applied_seq_ at the previous recon_tick if the replica was stuck
  /// under a stable checkpoint then (no progress since starts a state
  /// transfer).
  std::optional<std::uint64_t> recon_applied_seq_;

  /// client identity -> responsible primary (memoized pure function;
  /// survives recovery on purpose).
  std::map<std::string, ReplicaId, std::less<>> client_primary_;

  ReplicaStats stats_;
  /// Exposes stats_ in the metrics registry; declared after it so the
  /// binder tombstones its entries before the fields go away.
  obs::Binder metrics_;
  RecoveryDoneObserver recovery_done_observer_;
};

}  // namespace spire::prime
