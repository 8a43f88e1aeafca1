// Byzantine-message tests for the Prime engine: forged and conflicting
// protocol messages crafted with real keys (the attacker controls one
// replica's identity, per the threat model) must never break safety,
// and detectable misbehavior must cost the attacker the leadership.
#include <gtest/gtest.h>

#include <memory>

#include "prime/loopback_cluster.hpp"

namespace spire::prime {
namespace {

/// The suite's Prime group: keyring "byz-test", one client, started and
/// settled for 500 ms on creation.
struct ByzCluster : LoopbackCluster<> {
  explicit ByzCluster(sim::Simulator& sim, std::uint32_t f = 1,
                      std::uint32_t k = 0)
      : LoopbackCluster(sim, make_config(f, k), suite_keyring(), 9) {
    start();
    sim.run_until(500 * sim::kMillisecond);
  }

  static PrimeConfig make_config(std::uint32_t f, std::uint32_t k) {
    PrimeConfig config;
    config.f = f;
    config.k = k;
    config.client_identities = {"client/a"};
    return config;
  }

  static const crypto::Keyring& suite_keyring() {
    static const crypto::Keyring keyring("byz-test");
    return keyring;
  }

  void submit() { LoopbackCluster::submit("client/a", "op"); }

  crypto::Signer replica_signer(ReplicaId id) {
    return crypto::Signer(replica_identity(id),
                          keyring().identity_key(replica_identity(id)));
  }

  void broadcast_raw(const util::Bytes& bytes) {
    for (auto& r : replicas()) r->on_message(bytes);
  }
};

TEST(PrimeByzantine, EquivocatingLeaderIsEvicted) {
  sim::Simulator sim;
  ByzCluster cluster(sim);

  // The compromised leader (replica 0) sends two conflicting
  // Pre-Prepares for the same slot, properly signed. Correct replicas
  // must detect the conflict, suspect, and move to a new view — and no
  // two replicas may execute differently.
  const auto signer = cluster.replica_signer(0);
  cluster.replica(0).set_behavior(ReplicaBehavior::kSilentLeader);
  sim.run_until(sim.now() + 100 * sim::kMillisecond);

  auto make_pp = [&](std::uint64_t aru_marker) {
    PrePrepare pp;
    pp.leader = 0;
    pp.view = 0;
    pp.order_seq = 1;
    pp.rows.assign(cluster.config().n(), nullptr);
    auto row = std::make_shared<PoAru>();
    row->replica = 0;
    row->aru_seq = aru_marker;  // differs => different digest
    row->aru.assign(cluster.config().n(), 0);
    row->sign(signer);
    pp.rows[0] = std::move(row);
    return Envelope::make(MsgType::kPrePrepare, signer, pp.encode()).encode();
  };
  cluster.broadcast_raw(make_pp(1));
  cluster.broadcast_raw(make_pp(2));  // the equivocation

  sim.run_until(sim.now() + 5 * sim::kSecond);
  EXPECT_GE(cluster.replica(1).view(), 1u) << "equivocation went unpunished";

  // Liveness restored under the new leader.
  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 5u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, PrePrepareWithForgedRowsRejected) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  cluster.replica(0).set_behavior(ReplicaBehavior::kSilentLeader);

  // Leader fabricates a matrix row claiming replica 2 acknowledged
  // thousands of PO-Requests — but signs the row itself. Verification
  // against replica 2's key must fail and the proposal must die.
  const auto leader = cluster.replica_signer(0);
  PrePrepare pp;
  pp.leader = 0;
  pp.view = 0;
  pp.order_seq = 1;
  pp.rows.assign(cluster.config().n(), nullptr);
  auto forged = std::make_shared<PoAru>();
  forged->replica = 2;
  forged->aru_seq = 99;
  forged->aru.assign(cluster.config().n(), 5000);
  forged->sign(leader);  // wrong key for identity "prime/2"
  pp.rows[2] = std::move(forged);
  cluster.broadcast_raw(
      Envelope::make(MsgType::kPrePrepare, leader, pp.encode()).encode());

  sim.run_until(sim.now() + 2 * sim::kSecond);
  for (const auto& app : cluster.apps()) EXPECT_TRUE(app->log().empty());
  // The malformed proposal itself is treated as misbehavior.
  EXPECT_GE(cluster.replica(1).view(), 1u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, MatrixDigestNotMatchingTheRowsTriggersSuspect) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  // Take over the leader identity; its own protocol traffic stops so
  // the only Pre-Prepares in flight are the ones we inject.
  cluster.replica(0).set_behavior(ReplicaBehavior::kSilentLeader);
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  const auto signer = cluster.replica_signer(0);

  // A full matrix of genuinely signed rows whose leader-signed matrix
  // digest is a lie. Prepares agree on the claimed digest, so a matrix
  // that does not hash to it is proof of leader misbehavior, not noise:
  // the leader must be suspected. Checked well inside the suspect
  // timeout so the view change is attributable to the digest, not to
  // the leader's silence.
  auto row = std::make_shared<PoAru>();
  row->replica = 0;
  row->aru_seq = 1000;
  row->aru.assign(cluster.config().n(), 0);
  row->sign(signer);
  PrePrepare pp;
  pp.leader = 0;
  pp.view = 0;
  pp.order_seq = 100;  // past anything proposed during warm-up
  pp.rows.assign(cluster.config().n(), nullptr);
  pp.rows[0] = row;
  pp.matrix_digest = crypto::sha256("forged matrix digest");
  cluster.broadcast_raw(
      Envelope::make(MsgType::kPrePrepare, signer, pp.encode()).encode());

  sim.run_until(sim.now() + 700 * sim::kMillisecond);
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    EXPECT_GE(cluster.replica(i).view(), 1u)
        << "replica " << i << " did not suspect the lying leader";
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, ForgedMerkleInclusionPathRejected) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  const auto mallory = cluster.replica_signer(3);

  // A genuine two-unit send batch: one root signature, each wire
  // carrying its inclusion proof.
  PrepareOrCommit a;
  a.replica = 3;
  a.view = 0;
  a.order_seq = 500;
  a.preprepare_digest = crypto::sha256("slot-500");
  PrepareOrCommit b = a;
  b.order_seq = 501;
  b.preprepare_digest = crypto::sha256("slot-501");
  const util::Bytes body_a = a.encode();
  const util::Bytes body_b = b.encode();
  const std::vector<Envelope::BatchItem> items = {
      {MsgType::kPrepare, body_a}, {MsgType::kPrepare, body_b}};
  const auto wires = Envelope::seal_batch(mallory, items);
  ASSERT_EQ(wires.size(), 2u);

  // Tamper one byte of the second wire's inclusion-path digest (the
  // proof sits between the body and the trailing 32-byte MAC). The
  // folded root no longer matches what was signed, so the envelope is
  // unverifiable — but since anyone can attach a bogus proof to
  // captured bytes, it must be dropped without suspecting anyone.
  util::Bytes forged = wires[1];
  forged[forged.size() - 40] ^= 0x01;

  const auto before = cluster.replica(1).stats();
  cluster.replica(1).on_message(wires[0]);  // verifies the root signature
  cluster.replica(1).on_message(forged);    // folds to a wrong root: dropped
  cluster.replica(1).on_message(wires[1]);  // genuine sibling: root memo hit
  const auto after = cluster.replica(1).stats();

  EXPECT_EQ(after.dropped_bad_signature, before.dropped_bad_signature + 1);
  EXPECT_GE(after.verify_cache_hits, before.verify_cache_hits + 1);
  EXPECT_EQ(cluster.replica(1).view(), 0u) << "forged proof caused a suspect";
}

TEST(PrimeByzantine, ForgedNewViewRejected) {
  sim::Simulator sim;
  ByzCluster cluster(sim);

  // Replica 3 (not the leader of view 1) forges a NewView for view 1
  // with a huge start_seq and a justification quorum it invented by
  // signing every ViewState itself.
  const auto mallory = cluster.replica_signer(3);
  NewView nv;
  nv.leader = 1;  // claims to be from the real leader of view 1
  nv.view = 1;
  nv.start_seq = 1000001;
  for (ReplicaId r = 0; r < cluster.config().n(); ++r) {
    ViewState vs;
    vs.replica = r;
    vs.view = 1;
    vs.max_prepared = 1000000;
    vs.max_committed = 1000000;
    vs.sign(mallory);  // wrong key for every identity but its own
    nv.justification.push_back(vs);
  }
  cluster.broadcast_raw(
      Envelope::make(MsgType::kNewView, mallory, nv.encode()).encode());
  sim.run_until(sim.now() + 1 * sim::kSecond);

  // Nobody moved views on the forgery (envelope sender mismatch and
  // embedded signatures both fail).
  for (const auto& replica : cluster.replicas()) {
    EXPECT_EQ(replica->view(), 0u);
  }

  // And the system still executes normally.
  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);
  for (const auto& app : cluster.apps()) EXPECT_EQ(app->log().size(), 5u);
}

TEST(PrimeByzantine, ForgedCheckpointCannotCorruptRecovery) {
  sim::Simulator sim;
  ByzCluster cluster(sim, 1, 1);  // n = 6 so recovery is supported

  for (int i = 0; i < 20; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 40 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);

  // Replica 5 floods forged checkpoints claiming a bogus state digest
  // at a far-future sequence, trying to poison a recovering replica's
  // state selection. Only f+1 matching (seq, digest) pairs are
  // trusted, and replica 5 is alone.
  const auto mallory = cluster.replica_signer(5);
  for (int i = 0; i < 10; ++i) {
    Checkpoint cp;
    cp.replica = 5;
    cp.applied_seq = 4096;
    cp.snapshot_digest = crypto::sha256("poisoned state");
    cp.sign(mallory);
    cluster.broadcast_raw(
        Envelope::make(MsgType::kCheckpoint, mallory, cp.encode()).encode());
  }

  cluster.replica(2).shutdown();
  sim.run_until(sim.now() + 500 * sim::kMillisecond);
  cluster.replica(2).recover();
  // Mallory also answers the recovery solicitation with its bogus state.
  sim.run_until(sim.now() + 5 * sim::kSecond);

  EXPECT_FALSE(cluster.replica(2).recovering());
  // The recovered replica converged on the honest history, not the
  // poisoned digest.
  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  EXPECT_EQ(cluster.app(2).log().size(), 25u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, ReplayedEnvelopesAreIdempotent) {
  sim::Simulator sim;
  ByzCluster cluster(sim);

  // Capture legitimate traffic by wiretap, then replay it heavily.
  std::vector<util::Bytes> captured;
  cluster.set_tap([&captured](ReplicaId, const util::Bytes& b) {
    if (captured.size() < 500) captured.push_back(b);
  });
  for (int i = 0; i < 10; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 60 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);
  ASSERT_EQ(cluster.app(0).log().size(), 10u);

  // Replay everything, twice, at every replica.
  for (int round = 0; round < 2; ++round) {
    for (const auto& bytes : captured) {
      for (auto& r : cluster.replicas()) r->on_message(bytes);
    }
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);

  for (const auto& app : cluster.apps()) {
    EXPECT_EQ(app->log().size(), 10u) << "replay caused re-execution";
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// ---- adversary v2: scripted Byzantine behaviors (PR 9) ---------------------

TEST(PrimeByzantine, UnderThresholdDelayKeepsLeaderAndLiveness) {
  sim::Simulator sim;
  ByzCluster cluster(sim);

  // Prime's signature performance attack, calibrated under the
  // turnaround bound (500 ms < 800 ms): the bounded-delay guarantee
  // means the damage is capped, not zero — the leader must NOT be
  // suspected, and every update must still execute everywhere.
  ByzantineConfig delay;
  delay.preprepare_delay = 500 * sim::kMillisecond;
  cluster.replica(0).set_byzantine(delay);
  sim.run_until(sim.now() + 2 * sim::kSecond);
  for (int i = 0; i < 10; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);

  EXPECT_GE(cluster.replica(0).stats().byz_preprepares_delayed, 1u);
  for (const auto& replica : cluster.replicas()) {
    EXPECT_EQ(replica->view(), 0u) << "under-threshold delay evicted leader";
  }
  for (const auto& app : cluster.apps()) EXPECT_EQ(app->log().size(), 10u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, OverThresholdDelayEvictedWithinSlo) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  sim.run_until(1 * sim::kSecond);

  const sim::Time t0 = sim.now();
  ByzantineConfig delay;
  delay.preprepare_delay = 1200 * sim::kMillisecond;
  cluster.replica(0).set_byzantine(delay);
  while (cluster.replica(1).view() == 0 &&
         sim.now() < t0 + 5 * sim::kSecond) {
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  const sim::Time reaction = sim.now() - t0;
  EXPECT_GE(cluster.replica(1).view(), 1u) << "delay attack never detected";
  EXPECT_LE(reaction, 2500 * sim::kMillisecond) << "reaction SLO missed";

  // Zero missed updates after recovery: the new leader orders normally.
  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 5u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

void run_equivocation_case(std::uint32_t f) {
  sim::Simulator sim;
  ByzCluster cluster(sim, f);
  sim.run_until(1 * sim::kSecond);

  const sim::Time t0 = sim.now();
  ByzantineConfig equivocate;
  equivocate.equivocate = true;
  cluster.replica(0).set_byzantine(equivocate);
  while (cluster.replica(1).view() == 0 &&
         sim.now() < t0 + 4 * sim::kSecond) {
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  EXPECT_GE(cluster.replica(1).view(), 1u) << "equivocation undetected";
  EXPECT_LE(sim.now() - t0, 1500 * sim::kMillisecond)
      << "equivocation reaction SLO missed";
  EXPECT_GE(cluster.replica(0).stats().byz_equivocations_sent, 1u);
  std::uint64_t detections = 0;
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    detections += cluster.replica(i).stats().equivocation_suspects;
  }
  EXPECT_GE(detections, 1u)
      << "view change happened but not via cross-replica digest exchange";

  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 5u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, EquivocationDetectedAtF1) { run_equivocation_case(1); }

TEST(PrimeByzantine, EquivocationDetectedAtF2) { run_equivocation_case(2); }

TEST(PrimeByzantine, WithheldPoAruAgesIntoSuspect) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  sim.run_until(1 * sim::kSecond);

  // The leader keeps proposing fresh matrices but silently drops
  // replica 2's rows. The victim trips its own turnaround bound; the
  // OTHER followers must independently notice the victim's broadcast
  // PO-ARUs aging un-included (2x relaxed bound) so the view change
  // reaches quorum even if the victim's votes are discounted.
  const sim::Time t0 = sim.now();
  cluster.replica(0).set_byzantine(ByzantineConfig{.withhold_victims = {2}});
  while (cluster.replica(1).view() == 0 &&
         sim.now() < t0 + 6 * sim::kSecond) {
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  EXPECT_GE(cluster.replica(1).view(), 1u) << "withholding undetected";
  EXPECT_LE(sim.now() - t0, 3 * sim::kSecond)
      << "withheld-ARU reaction SLO missed";
  EXPECT_GE(cluster.replica(0).stats().byz_rows_withheld, 1u);
  const std::uint64_t aged =
      cluster.replica(1).stats().withheld_aru_suspects +
      cluster.replica(3).stats().withheld_aru_suspects;
  EXPECT_GE(aged, 1u) << "non-victims never aged the withheld rows";

  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 5u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeByzantine, ForgedMerklePathsDroppedWithoutSuspects) {
  sim::Simulator sim;
  ByzCluster cluster(sim);

  // Find a non-leader replica responsible for the client's preordering
  // (it emits PO-Requests, so it actually seals multi-unit batches —
  // the only wires a Merkle forger can corrupt).
  std::vector<std::uint64_t> po_before;
  for (const auto& r : cluster.replicas()) {
    po_before.push_back(r->stats().po_requests_sent);
  }
  for (int i = 0; i < 3; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 60 * sim::kMillisecond);
  }
  ReplicaId forger = 0;
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    if (cluster.replica(i).stats().po_requests_sent > po_before[i]) {
      forger = i;
    }
  }
  ASSERT_NE(forger, 0u) << "no non-leader replica preorders for the client";

  // The forger corrupts the inclusion proof of every batch-signed wire
  // it sends. Receivers must drop the garbage as unauthenticated noise
  // — no suspects, no missed updates (the other responsible replica
  // and the remaining correct replicas carry the quorums). Submits are
  // timed so the PO-Request shares a flush with the 20 ms PO-ARU tick,
  // guaranteeing batch-signed (forgeable) wires.
  ByzantineConfig forge;
  forge.forge_merkle_rate = 1.0;
  cluster.replica(forger).set_byzantine(forge);
  for (int i = 0; i < 10; ++i) {
    const sim::Time grid = 20 * sim::kMillisecond;
    const sim::Time next = ((sim.now() / grid) + 2) * grid;
    sim.run_until(next - 6 * sim::kMillisecond);
    cluster.submit();
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);

  EXPECT_GE(cluster.replica(forger).stats().byz_merkle_paths_forged, 1u);
  std::uint64_t dropped = 0;
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (i != forger) {
      dropped += cluster.replica(i).stats().dropped_bad_signature;
    }
  }
  EXPECT_GE(dropped, 1u) << "no forged wire was ever dropped";
  for (const auto& replica : cluster.replicas()) {
    EXPECT_EQ(replica->view(), 0u) << "forged proofs caused a view change";
  }
  for (const auto& app : cluster.apps()) EXPECT_EQ(app->log().size(), 13u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// ---- PR 9 satellite regressions --------------------------------------------

TEST(PrimeByzantine, TurnaroundRebaselinedOnViewInstall) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  sim.run_until(1 * sim::kSecond);

  // Crash the leader of view 0 AND the leader of view 1, then push
  // replicas 2 and 3 into view 1 with a quorum of NewLeader votes. With
  // leader 1 dead they sit in view 1 accumulating turnaround samples
  // that nobody drains.
  cluster.replica(0).set_behavior(ReplicaBehavior::kCrashed);
  cluster.replica(1).set_behavior(ReplicaBehavior::kCrashed);
  sim.run_until(sim.now() + 400 * sim::kMillisecond);
  for (ReplicaId voter = 1; voter < cluster.config().n(); ++voter) {
    NewLeader vote;
    vote.replica = voter;
    vote.proposed_view = 1;
    const util::Bytes bytes =
        Envelope::make(MsgType::kNewLeader, cluster.replica_signer(voter),
                       vote.encode())
            .encode();
    cluster.replica(2).on_message(bytes);
    cluster.replica(3).on_message(bytes);
  }
  ASSERT_EQ(cluster.replica(2).view(), 1u);
  ASSERT_EQ(cluster.replica(3).view(), 1u);

  // 500 ms into the stalled view change, the (crafted, validly signed)
  // NewView finally installs. The samples accumulated in the meantime
  // predate the new leader's tenure: aging them against it would evict
  // a leader that was never given a chance — the pre-fix behavior,
  // where the install-time clear only ran if the view number advanced.
  sim.run_until(sim.now() + 500 * sim::kMillisecond);
  const std::uint64_t applied = std::max(cluster.replica(2).applied_seq(),
                                         cluster.replica(3).applied_seq());
  NewView nv;
  nv.leader = 1;
  nv.view = 1;
  nv.start_seq = applied + 1;
  for (ReplicaId r = 1; r < cluster.config().n(); ++r) {
    ViewState vs;
    vs.replica = r;
    vs.view = 1;
    vs.max_prepared = applied;
    vs.max_committed = applied;
    vs.sign(cluster.replica_signer(r));
    nv.justification.push_back(std::move(vs));
  }
  const util::Bytes nv_bytes =
      Envelope::make(MsgType::kNewView, cluster.replica_signer(1), nv.encode())
          .encode();
  cluster.replica(2).on_message(nv_bytes);
  cluster.replica(3).on_message(nv_bytes);

  // Inside the window where only the stale samples could trip (new
  // samples are < 800 ms old, leader silence needs a full 1 s), the
  // fresh leader must not be blamed.
  sim.run_until(sim.now() + 600 * sim::kMillisecond);
  for (ReplicaId i = 2; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.replica(i).stats().turnaround_suspects, 0u)
        << "replica " << i << " blamed the fresh leader for old backlog";
    EXPECT_EQ(cluster.replica(i).stats().withheld_aru_suspects, 0u);
    EXPECT_EQ(cluster.replica(i).view(), 1u);
  }
}

TEST(PrimeByzantine, SuspectTickSurvivesStopStartWithoutDoubleChaining) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  sim.run_until(2 * sim::kSecond);

  // Baseline cadence: one suspicion poll per quarter of the 1 s suspect
  // timeout.
  const std::uint64_t s0 = cluster.replica(3).stats().suspect_ticks;
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const std::uint64_t per_window =
      cluster.replica(3).stats().suspect_ticks - s0;
  ASSERT_GE(per_window, 6u);
  ASSERT_LE(per_window, 9u);

  // No polls while stopped.
  cluster.replica(3).shutdown();
  const std::uint64_t down = cluster.replica(3).stats().suspect_ticks;
  sim.run_until(sim.now() + 1 * sim::kSecond);
  EXPECT_EQ(cluster.replica(3).stats().suspect_ticks, down);

  // A stop/start cycle plus a redundant double start() must leave ONE
  // timer chain; without the epoch bump in start() each extra call
  // chains another timer and the poll rate multiplies — which halves
  // the effective suspicion threshold.
  cluster.replica(3).start();
  cluster.replica(3).start();
  cluster.replica(3).shutdown();
  cluster.replica(3).start();
  const std::uint64_t s1 = cluster.replica(3).stats().suspect_ticks;
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const std::uint64_t after = cluster.replica(3).stats().suspect_ticks - s1;
  EXPECT_LE(after, per_window + 2) << "suspect_tick double-chained";
  EXPECT_GE(after, per_window - 2);
}

TEST(PrimeByzantine, RowShortCircuitIsKeyedByView) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  Replica& follower = cluster.replica(3);

  // A genuine signed PO-ARU from replica 2, delivered standalone, lands
  // in the follower's latest_aru_ (accepted in view 0).
  auto row = std::make_shared<PoAru>();
  row->replica = 2;
  row->aru_seq = 1000;  // far above anything the warmup produced
  row->aru.assign(cluster.config().n(), 0);
  row->sign(cluster.replica_signer(2));
  follower.on_message(
      Envelope::make(MsgType::kPoAru, cluster.replica_signer(2), row->raw)
          .encode());

  // Control: a view-0 Pre-Prepare re-shipping those exact bytes takes
  // the raw-byte-equality short circuit.
  auto make_pp = [&](std::uint64_t view, std::uint64_t seq, ReplicaId leader) {
    PrePrepare pp;
    pp.leader = leader;
    pp.view = view;
    pp.order_seq = seq;
    pp.rows.assign(cluster.config().n(), nullptr);
    pp.rows[2] = row;
    return Envelope::make(MsgType::kPrePrepare, cluster.replica_signer(leader),
                          pp.encode())
        .encode();
  };
  const auto before_v0 = follower.stats();
  follower.on_message(make_pp(0, 600, 0));
  EXPECT_EQ(follower.stats().row_verify_short_circuits,
            before_v0.row_verify_short_circuits + 1);

  // Move the follower to view 1 with a quorum of NewLeader votes.
  for (ReplicaId voter = 1; voter < cluster.config().n(); ++voter) {
    NewLeader vote;
    vote.replica = voter;
    vote.proposed_view = 1;
    follower.on_message(Envelope::make(MsgType::kNewLeader,
                                       cluster.replica_signer(voter),
                                       vote.encode())
                            .encode());
  }
  ASSERT_EQ(follower.view(), 1u);

  // The new leader replays the same stale signed row. Pre-fix this took
  // the short circuit (the cache key ignored the view); now it must go
  // through full verification again — served by the digest memo, so
  // the row still verifies and the proposal is still accepted.
  const auto before_v1 = follower.stats();
  follower.on_message(make_pp(1, 601, 1));
  EXPECT_EQ(follower.stats().row_verify_short_circuits,
            before_v1.row_verify_short_circuits)
      << "stale row replayed across views took the short circuit";
  EXPECT_GE(follower.stats().verify_cache_hits,
            before_v1.verify_cache_hits + 1)
      << "row was not re-verified via the digest memo";
  EXPECT_EQ(follower.stats().dropped_bad_signature,
            before_v1.dropped_bad_signature);
}

// A replica that proposes in a view the group never entered earns no
// vote for it. Replica 1 leads views 1, 5, 9, ...; it forges signed
// Pre-Prepares for view 5 and then relays, with its own vote, every
// NewLeader(5) a correct replica sent it. Votes are transferable, so
// one cast in answer to a proposal would let it reach f+1 and pull the
// group into its view past the correct leaders in between.
TEST(PrimeByzantine, ForgedFutureViewPrePreparesDrawNoVote) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  const auto mallory = cluster.replica_signer(1);
  constexpr std::uint64_t kForgedView = 5;

  std::vector<util::Bytes> harvested;
  int correct_votes = 0;
  cluster.set_tap([&](ReplicaId to, const util::Bytes& bytes) {
    const auto env = Envelope::decode(bytes);
    if (!env || env->type != MsgType::kNewLeader) return;
    const auto vote = NewLeader::decode(env->body);
    if (!vote || vote->proposed_view != kForgedView || vote->replica == 1) {
      return;
    }
    ++correct_votes;
    if (to == 1) harvested.push_back(bytes);
  });

  for (std::uint64_t i = 0; i < 20; ++i) {
    PrePrepare pp;
    pp.leader = 1;
    pp.view = kForgedView;
    pp.order_seq = 50 + i;
    pp.rows.assign(cluster.config().n(), nullptr);
    cluster.broadcast_raw(
        Envelope::make(MsgType::kPrePrepare, mallory, pp.encode()).encode());
    if (i % 4 == 0) cluster.submit();
    cluster.run_for(100 * sim::kMillisecond);
  }
  NewLeader own;
  own.replica = 1;
  own.proposed_view = kForgedView;
  harvested.push_back(
      Envelope::make(MsgType::kNewLeader, mallory, own.encode()).encode());
  for (const auto& bytes : harvested) cluster.broadcast_raw(bytes);
  cluster.run_for(500 * sim::kMillisecond);

  EXPECT_EQ(correct_votes, 0);
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.replica(i).view(), 0u) << "replica " << i;
    EXPECT_EQ(cluster.app(i).log().size(), 5u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// The leader re-serves its NewView to a replica still asking for a view
// at or below its own, but a NewView is large and a vote is small: a
// flood of stale votes from one replica gets one reply per
// kLeaderHeartbeat, not one per vote.
TEST(PrimeByzantine, StaleNewLeaderFloodGetsBoundedNewViewReplies) {
  sim::Simulator sim;
  ByzCluster cluster(sim);
  cluster.replica(0).set_behavior(ReplicaBehavior::kCrashed);
  cluster.run_for(2 * sim::kSecond);
  ASSERT_EQ(cluster.replica(1).view(), 1u);

  int new_views_to_3 = 0;
  cluster.set_tap([&](ReplicaId to, const util::Bytes& bytes) {
    const auto env = Envelope::decode(bytes);
    if (to == 3 && env && env->type == MsgType::kNewView) ++new_views_to_3;
  });
  const auto mallory = cluster.replica_signer(3);
  for (int i = 0; i < 100; ++i) {
    for (std::uint64_t view : {0, 1}) {
      NewLeader vote;
      vote.replica = 3;
      vote.proposed_view = view;
      cluster.replica(1).on_message(
          Envelope::make(MsgType::kNewLeader, mallory, vote.encode()).encode());
    }
    cluster.run_for(10 * sim::kMillisecond);
  }
  // 200 votes over one second: a reply at 0, 200, 400, 600 and 800 ms.
  EXPECT_GE(new_views_to_3, 1);
  EXPECT_LE(new_views_to_3,
            1 + static_cast<int>(sim::kSecond / kLeaderHeartbeat));
  EXPECT_EQ(cluster.replica(3).view(), 1u);
}

}  // namespace
}  // namespace spire::prime
