// Prime BFT engine tests: ordering safety and liveness, duplicate
// suppression, crash tolerance, view changes under silent/stale (delay
// attack) leaders, partition catch-up, proactive recovery with
// application-level state transfer, checkpoints, and authentication.
//
// Property-style suites (TEST_P) sweep the (f, k) configurations and
// seeds the paper's deployments used: f=1,k=0 (red-team, n=4) and
// f=1,k=1 (plant, n=6), plus f=2 for margin.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prime/loopback_cluster.hpp"
#include "prime/recovery.hpp"

namespace spire::prime {
namespace {

/// The suite's Prime group: keyring "prime-test", started on creation.
struct Cluster : LoopbackCluster<> {
  Cluster(sim::Simulator& sim, std::uint32_t f, std::uint32_t k,
          std::vector<std::string> clients = {"client/a", "client/b"},
          std::uint64_t seed = 1)
      : LoopbackCluster(sim, make_config(f, k, std::move(clients)),
                        suite_keyring(), seed) {
    start();
  }

  static PrimeConfig make_config(std::uint32_t f, std::uint32_t k,
                                 std::vector<std::string> clients) {
    PrimeConfig config;
    config.f = f;
    config.k = k;
    config.client_identities = std::move(clients);
    return config;
  }

  static const crypto::Keyring& suite_keyring() {
    static const crypto::Keyring keyring("prime-test");
    return keyring;
  }

  [[nodiscard]] std::size_t min_executed() const {
    std::size_t m = SIZE_MAX;
    for (const auto& app : apps()) m = std::min(m, app->log().size());
    return m;
  }
};

TEST(Prime, BasicOrderingAllReplicasExecuteEverything) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);  // settle

  for (int i = 0; i < 25; ++i) {
    cluster.submit("client/a", "opA" + std::to_string(i));
    cluster.submit("client/b", "opB" + std::to_string(i));
    cluster.run_for(40 * sim::kMillisecond);
  }
  cluster.run_for(2 * sim::kSecond);

  for (const auto& app : cluster.apps()) {
    EXPECT_EQ(app->log().size(), 50u);
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
  EXPECT_EQ(cluster.replica(0).view(), 0u);  // no spurious view changes
}

TEST(Prime, DuplicatesAcrossOriginsExecuteOnce) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  // Every submit already goes to all 4 replicas (so up to 4 origins
  // preorder it). Submit the same logical updates and verify counts.
  for (int i = 0; i < 10; ++i) cluster.submit("client/a", "op");
  cluster.run_for(2 * sim::kSecond);
  for (const auto& app : cluster.apps()) {
    EXPECT_EQ(app->log().size(), 10u);
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, ToleratesCrashOfOneReplica) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(2).set_behavior(ReplicaBehavior::kCrashed);

  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(50 * sim::kMillisecond);
  }
  cluster.run_for(2 * sim::kSecond);

  for (ReplicaId i = 0; i < 4; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(cluster.app(i).log().size(), 10u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, SilentLeaderTriggersViewChangeAndLivenessResumes) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  ASSERT_TRUE(cluster.replica(0).is_leader());
  cluster.replica(0).set_behavior(ReplicaBehavior::kCrashed);

  cluster.run_for(3 * sim::kSecond);  // suspect timeout + view change
  EXPECT_GE(cluster.replica(1).view(), 1u);

  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/a", "after-vc" + std::to_string(i));
    cluster.run_for(50 * sim::kMillisecond);
  }
  cluster.run_for(3 * sim::kSecond);
  for (ReplicaId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 10u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, StaleMatrixLeaderIsEvictedByTurnaroundBound) {
  // The Prime delay attack: a leader that keeps proposing but with
  // matrices that never reflect fresh PO-ARUs. Liveness must recover
  // within the turnaround bound, not stall indefinitely.
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(0).set_behavior(ReplicaBehavior::kStaleLeader);

  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(50 * sim::kMillisecond);
  }
  cluster.run_for(4 * sim::kSecond);

  EXPECT_GE(cluster.replica(1).view(), 1u)
      << "stale leader was never suspected";
  for (ReplicaId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 10u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, SilentLeaderBehaviorVariant) {
  // kSilentLeader: correct replica except it never proposes.
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(0).set_behavior(ReplicaBehavior::kSilentLeader);
  cluster.run_for(3 * sim::kSecond);
  EXPECT_GE(cluster.replica(0).view(), 1u);  // it still participates in VC

  cluster.submit("client/a", "post");
  cluster.run_for(2 * sim::kSecond);
  EXPECT_GE(cluster.min_executed(), 1u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, PartitionedReplicaCatchesUpAfterHeal) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);

  cluster.fabric().isolate(3, true);
  for (int i = 0; i < 20; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(50 * sim::kMillisecond);
  }
  cluster.run_for(1 * sim::kSecond);
  EXPECT_EQ(cluster.app(0).log().size(), 20u);
  const auto behind = cluster.app(3).log().size();
  EXPECT_LT(behind, 20u);

  cluster.fabric().isolate(3, false);
  cluster.run_for(5 * sim::kSecond);
  EXPECT_EQ(cluster.app(3).log().size(), 20u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, ProactiveRecoveryRunsApplicationStateTransfer) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);  // n = 6: supports recovery with bounded delay
  cluster.run_for(500 * sim::kMillisecond);

  for (int i = 0; i < 20; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(40 * sim::kMillisecond);
  }
  cluster.run_for(1 * sim::kSecond);
  ASSERT_EQ(cluster.app(2).log().size(), 20u);

  const std::uint64_t old_variant = cluster.replica(2).variant();
  cluster.replica(2).shutdown();
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(2).recover();
  cluster.run_for(3 * sim::kSecond);

  EXPECT_FALSE(cluster.replica(2).recovering());
  EXPECT_NE(cluster.replica(2).variant(), old_variant);  // new diversity
  EXPECT_EQ(cluster.app(2).state_transfers(), 1);        // §III-A signal
  EXPECT_EQ(cluster.replica(2).stats().state_transfers, 1u);

  // Recovered replica keeps executing new updates.
  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/b", "post" + std::to_string(i));
    cluster.run_for(40 * sim::kMillisecond);
  }
  cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(cluster.app(2).log().size(), 30u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(Prime, RecoverySchedulerCyclesThroughAllReplicas) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 4 * sim::kSecond;
  rc.downtime = 500 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  int submitted = 0;
  for (int round = 0; round < 7 * 8; ++round) {  // > one full cycle
    cluster.submit("client/a", "op" + std::to_string(round));
    ++submitted;
    cluster.run_for(500 * sim::kMillisecond);
  }
  recovery.stop();
  cluster.run_for(8 * sim::kSecond);

  EXPECT_GE(recovery.recoveries_completed(), 6u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
  // Every live replica converged on the full history.
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (!cluster.replica(i).running() || cluster.replica(i).recovering()) {
      continue;
    }
    EXPECT_EQ(cluster.app(i).log().size(), static_cast<std::size_t>(submitted))
        << "replica " << i;
  }
}

TEST(Prime, ForgedClientUpdateRejected) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);

  ClientUpdate update;
  update.client = "client/a";
  update.client_seq = 1;
  update.payload = util::to_bytes("evil");
  // Signed by an attacker key, not client/a's key.
  crypto::Signer mallory("mallory", cluster.keyring().identity_key("mallory"));
  update.client_sig = mallory.sign(update.signed_bytes());
  Envelope env;
  env.type = MsgType::kClientUpdate;
  env.sender = "client/a";
  env.body = update.encode();
  env.signature = mallory.sign(env.signed_bytes());
  for (auto& r : cluster.replicas()) r->on_message(env.encode());

  cluster.run_for(2 * sim::kSecond);
  for (const auto& app : cluster.apps()) EXPECT_TRUE(app->log().empty());
  EXPECT_GT(cluster.replica(0).stats().dropped_bad_signature, 0u);
}

// The verified-envelope cache is an accept-side memo, never a bypass: a
// tampered envelope hashes to a digest that was never cached, so it
// still reaches full verification and is dropped.
TEST(Prime, TamperedEnvelopeRejectedDespiteWarmCache) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  cluster.submit("client/a", "legit");
  cluster.run_for(1 * sim::kSecond);
  // Ordinary traffic exercises the memo (PO-ARU rows, retransmitted
  // envelopes); the cache must be warm before the attack means anything.
  EXPECT_GT(cluster.replica(0).verify_cache_size(), 0u);

  const crypto::Signer signer("client/a",
                              cluster.keyring().identity_key("client/a"));
  util::Bytes bytes = seal_client_update(signer, cluster.next_seq("client/a"),
                                         util::to_bytes("to-be-tampered"));

  const auto before = cluster.replica(0).stats().dropped_bad_signature;
  // Flip one bit in the signed body region (the trailing 32 bytes are
  // the MAC; anything before them is covered by the signature).
  bytes[bytes.size() - 40] ^= 0x01;
  cluster.replica(0).on_message(bytes);
  cluster.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(cluster.replica(0).stats().dropped_bad_signature, before + 1);
}

/// Keeps the freshest signed PO-ARU each replica broadcast, as the
/// fabric delivers it: a matrix of these rows is one every replica
/// verifies and can execute.
struct RowTap {
  std::vector<PrePrepare::Row> rows;

  explicit RowTap(std::uint32_t n) : rows(n) {}

  /// Records a delivered envelope if it is a fresher PO-ARU.
  void see(const Envelope& env) {
    if (env.type != MsgType::kPoAru) return;
    auto row = PoAru::decode(env.body);
    if (!row || row->replica >= rows.size()) return;
    auto& latest = rows[row->replica];
    if (!latest || latest->aru_seq < row->aru_seq) {
      latest = std::make_shared<const PoAru>(std::move(*row));
    }
  }
};

/// Replica 0's signed Pre-Prepare wire for (view 0, `seq`, `rows`).
util::Bytes leader_preprepare(const Cluster& cluster, std::uint64_t seq,
                              std::vector<PrePrepare::Row> rows) {
  const crypto::Signer leader(
      replica_identity(0), cluster.keyring().identity_key(replica_identity(0)));
  PrePrepare pp;
  pp.leader = 0;
  pp.view = 0;
  pp.order_seq = seq;
  pp.rows = std::move(rows);
  return Envelope::seal(MsgType::kPrePrepare, leader, pp.encode());
}

// Every Pre-Prepare carries its whole matrix, so a follower that missed
// proposal s accepts s+1 from its own envelope (it prepares at once, with
// no repair round trip), fetches s's commit certificate, and executes
// both in order.
TEST(Prime, FollowerThatMissedAProposalAcceptsTheNextDirectly) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  // Quiesce the real leader so the only Pre-Prepares in flight are the
  // injected ones.
  cluster.replica(0).set_behavior(ReplicaBehavior::kSilentLeader);
  cluster.run_for(50 * sim::kMillisecond);
  const std::uint64_t s = cluster.replica(1).applied_seq() + 1;
  for (const auto& r : cluster.replicas()) ASSERT_EQ(r->applied_seq(), s - 1);

  RowTap tap(cluster.n());
  bool follower_prepared_next = false;
  cluster.set_tap([&](ReplicaId, const util::Bytes& bytes) {
    const auto env = Envelope::decode(bytes);
    if (!env) return;
    tap.see(*env);
    if (env->type != MsgType::kPrepare) return;
    const auto prepare = PrepareOrCommit::decode(env->body);
    if (prepare && prepare->replica == 3 && prepare->order_seq == s + 1) {
      follower_prepared_next = true;
    }
  });
  cluster.submit("client/a", "op");
  cluster.run_for(100 * sim::kMillisecond);  // preordered, rows refreshed

  // Proposal s (a no-op matrix) never reaches replica 3.
  const util::Bytes missed =
      leader_preprepare(cluster, s, std::vector<PrePrepare::Row>(cluster.n()));
  for (ReplicaId i = 0; i < 3; ++i) cluster.replica(i).on_message(missed);
  cluster.run_for(20 * sim::kMillisecond);
  EXPECT_EQ(cluster.replica(3).applied_seq(), s - 1);

  // Proposal s+1 makes the update eligible and reaches everyone.
  const util::Bytes next = leader_preprepare(cluster, s + 1, tap.rows);
  for (const auto& r : cluster.replicas()) r->on_message(next);
  cluster.run_for(5 * sim::kMillisecond);
  EXPECT_TRUE(follower_prepared_next)
      << "the follower did not accept the next proposal on its own";

  cluster.run_for(300 * sim::kMillisecond);
  for (const auto& r : cluster.replicas()) {
    EXPECT_EQ(r->applied_seq(), s + 1) << "replica " << r->id();
    EXPECT_EQ(r->view(), 0u) << "replica " << r->id();
  }
  for (const auto& app : cluster.apps()) EXPECT_EQ(app->log().size(), 1u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// A replica whose slot holds a proposal that lost (accepted from the
// leader at t0, never committed) and that then installs the committed
// proposal for the same slot from a commit certificate must not report
// the lost proposal's Pre-Prepare time for the updates it executes:
// that stamp predates their submission, and the span would no longer
// chain in order.
TEST(Prime, CertifiedProposalDropsTheSupersededSlotStamps) {
  sim::Simulator sim;
  obs::ScopedTracer scope([&sim] { return sim.now(); });
  obs::Tracer& tracer = scope.tracer();
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(0).set_behavior(ReplicaBehavior::kSilentLeader);
  cluster.run_for(50 * sim::kMillisecond);
  const std::uint64_t s = cluster.replica(1).applied_seq() + 1;
  for (const auto& r : cluster.replicas()) ASSERT_EQ(r->applied_seq(), s - 1);

  // Replica 3 alone accepts a no-op proposal for s.
  cluster.replica(3).on_message(
      leader_preprepare(cluster, s, std::vector<PrePrepare::Row>(cluster.n())));
  cluster.run_for(10 * sim::kMillisecond);

  RowTap tap(cluster.n());
  std::map<ReplicaId, util::Bytes> commits;  // for seq s, by committer
  cluster.set_tap([&](ReplicaId, const util::Bytes& bytes) {
    const auto env = Envelope::decode(bytes);
    if (!env) return;
    tap.see(*env);
    if (env->type != MsgType::kCommit) return;
    const auto commit = PrepareOrCommit::decode(env->body);
    if (commit && commit->order_seq == s) commits[commit->replica] = bytes;
  });
  const std::uint64_t seq = cluster.submit("client/a", "op");
  tracer.client_submit("client/a", seq);
  cluster.run_for(100 * sim::kMillisecond);

  // The other three order a different proposal for s that carries the
  // update; replica 3 keeps its stale one and cannot commit.
  const util::Bytes winner = leader_preprepare(cluster, s, tap.rows);
  for (ReplicaId i = 0; i < 3; ++i) cluster.replica(i).on_message(winner);
  cluster.run_for(20 * sim::kMillisecond);
  ASSERT_EQ(commits.size(), 3u);
  EXPECT_EQ(cluster.app(3).log().size(), 0u);

  // Replica 3 learns the outcome from a commit certificate.
  CommitCertResp cert;
  cert.order_seq = s;
  cert.preprepare_envelope = winner;
  for (const auto& [replica, bytes] : commits) {
    cert.commit_envelopes.push_back(bytes);
  }
  const crypto::Signer peer(
      replica_identity(1), cluster.keyring().identity_key(replica_identity(1)));
  cluster.replica(3).on_message(
      Envelope::seal(MsgType::kCommitCertResp, peer, cert.encode()));
  cluster.run_for(10 * sim::kMillisecond);
  ASSERT_EQ(cluster.app(3).log().size(), 1u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);

  const auto completeness = tracer.completeness();
  EXPECT_EQ(completeness.executed, 1u);
  EXPECT_EQ(completeness.executed_complete, 1u)
      << "the executed span does not chain submit -> ... -> execute";
}

// A replica cut off while the others change view misses the NewView
// that installs the new view. Once the partition heals it sees the new
// leader's proposals, gets the NewView re-served by that leader, enters
// the view and catches up, instead of idling in the old view until its
// next proactive recovery. The cut ends before the others reach their
// next checkpoint (applied 8 of 16), so the catch-up is by fetch; a
// replica cut off past a stable checkpoint state-transfers instead.
TEST(Prime, ReplicaPartitionedThroughAViewChangeRejoinsTheNewView) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);  // n = 6: four replicas can change view
  cluster.run_for(500 * sim::kMillisecond);
  cluster.fabric().isolate(5, true);
  cluster.replica(0).set_behavior(ReplicaBehavior::kCrashed);
  cluster.run_for(2 * sim::kSecond);
  ASSERT_GE(cluster.replica(1).view(), 1u);
  ASSERT_EQ(cluster.replica(5).view(), 0u);

  cluster.fabric().isolate(5, false);
  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(100 * sim::kMillisecond);
  }
  cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(cluster.replica(5).view(), cluster.replica(1).view());
  EXPECT_EQ(cluster.replica(5).stats().state_transfers, 0u);
  for (ReplicaId i = 1; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 10u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// The group moves two views while a replica is cut off. The lagging
// replica's repeated vote names view 1; the leader of view 2 answers it
// with the NewView of view 2, which installs there directly.
TEST(Prime, ReplicaPartitionedThroughTwoViewChangesRejoinsTheNewest) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 2);  // n = 8, quorum 5: two leaders can fail
  cluster.run_for(500 * sim::kMillisecond);
  cluster.fabric().isolate(7, true);
  cluster.replica(0).set_behavior(ReplicaBehavior::kCrashed);
  cluster.run_for(4 * sim::kSecond);
  ASSERT_EQ(cluster.replica(2).view(), 1u);
  cluster.replica(1).set_behavior(ReplicaBehavior::kCrashed);
  cluster.run_for(4 * sim::kSecond);
  ASSERT_EQ(cluster.replica(2).view(), 2u);
  ASSERT_EQ(cluster.replica(7).view(), 0u);

  cluster.fabric().isolate(7, false);
  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(100 * sim::kMillisecond);
  }
  cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(cluster.replica(7).view(), 2u);
  for (ReplicaId i = 2; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 10u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// Proactive-recovery semantics (paper §III): a rejuvenated replica's
// pre-takedown acceptances are not trustworthy, so recover() must wipe
// the verification cache along with the rest of volatile state.
TEST(Prime, VerifyCacheClearedOnRecovery) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);  // n=6, the plant deployment shape
  cluster.run_for(500 * sim::kMillisecond);
  for (int i = 0; i < 5; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(200 * sim::kMillisecond);
  }
  Replica& victim = cluster.replica(2);
  EXPECT_GT(victim.verify_cache_size(), 0u);

  victim.recover();
  EXPECT_EQ(victim.verify_cache_size(), 0u);  // wiped with volatile state

  // After rejoining, the replica re-verifies from scratch and still
  // rejects forgeries — no stale acceptance survives rejuvenation.
  cluster.run_for(5 * sim::kSecond);
  EXPECT_FALSE(victim.recovering());
  const auto before = victim.stats().dropped_bad_signature;
  ClientUpdate update;
  update.client = "client/a";
  update.client_seq = cluster.next_seq("client/a");
  update.payload = util::to_bytes("evil");
  crypto::Signer mallory("mallory", cluster.keyring().identity_key("mallory"));
  update.client_sig = mallory.sign(update.signed_bytes());
  Envelope env;
  env.type = MsgType::kClientUpdate;
  env.sender = "client/a";
  env.body = update.encode();
  env.signature = mallory.sign(env.signed_bytes());
  victim.on_message(env.encode());
  cluster.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(victim.stats().dropped_bad_signature, before + 1);

  // And legitimate traffic still flows end-to-end post-recovery.
  cluster.submit("client/b", "after-recovery");
  cluster.run_for(2 * sim::kSecond);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
  EXPECT_GT(victim.stats().verify_cache_hits, 0u);
}

TEST(Prime, UnknownClientRejected) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0, {"client/a"});
  cluster.run_for(500 * sim::kMillisecond);
  // client/evil has a valid key in the keyring but is not provisioned.
  cluster.submit("client/evil", "x");
  cluster.run_for(2 * sim::kSecond);
  for (const auto& app : cluster.apps()) EXPECT_TRUE(app->log().empty());
}

TEST(Prime, CheckpointsBecomeStable) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  for (int i = 0; i < 30; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(40 * sim::kMillisecond);
  }
  cluster.run_for(3 * sim::kSecond);
  EXPECT_GT(cluster.replica(0).stats().checkpoints_stable, 0u);
}

TEST(Prime, MalformedEnvelopesAreHarmless) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(0).on_message(util::to_bytes("complete garbage"));
  cluster.replica(0).on_message(util::Bytes{});
  cluster.replica(0).on_message(util::Bytes(10000, 0xFF));
  cluster.submit("client/a", "still-works");
  cluster.run_for(2 * sim::kSecond);
  EXPECT_EQ(cluster.app(0).log().size(), 1u);
}

// Quiet when idle: with nothing to order, a replica re-sends its
// unchanged PO-ARU only at the leader heartbeat, so the leader's idle
// skip holds and proposals drop to roughly one per heartbeat. A row
// signed on every 20 ms tick would make 500 rows in 10 s and keep
// every 30 ms proposal fresh (333).
TEST(Prime, IdleClusterSendsOnlyHeartbeatRowsAndProposals) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  const PrimeConfig& config = cluster.config();
  const sim::Time idle = 10 * sim::kSecond;
  cluster.run_for(idle);

  for (const auto& r : cluster.replicas()) {
    EXPECT_LE(r->stats().po_arus_sent,
              static_cast<std::uint64_t>(idle / kLeaderHeartbeat) + 2)
        << "replica " << r->id();
    EXPECT_EQ(r->view(), 0u);
    EXPECT_EQ(r->stats().view_changes, 0u);
    EXPECT_EQ(r->stats().turnaround_suspects, 0u);
    EXPECT_EQ(r->stats().withheld_aru_suspects, 0u);
  }
  ASSERT_TRUE(cluster.replica(0).is_leader());
  EXPECT_LE(cluster.replica(0).stats().preprepares_sent * 5,
            static_cast<std::uint64_t>(idle / config.preprepare_interval));

  // The first update after the quiet period is ordered as fast as ever:
  // its PO-Request moves every recv_aru_, so the next tick sends.
  const sim::Time submitted_at = sim.now();
  cluster.submit("client/a", "after-idle");
  while (cluster.min_executed() < 1 &&
         sim.now() < submitted_at + kTurnaroundBound) {
    cluster.run_for(sim::kMillisecond);
  }
  EXPECT_EQ(cluster.min_executed(), 1u);
  EXPECT_LE(sim.now() - submitted_at,
            config.po_request_interval + config.po_aru_interval +
                config.preprepare_interval + 20 * sim::kMillisecond);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// An executed PO-Request keeps only its signed envelope, for
// re-serving; its decoded updates go. Across 2,000 ordered updates no
// replica holds more decoded PO-Requests than can still be unexecuted,
// and none once the cluster has settled.
TEST(Prime, ExecutedPoRequestsDropTheirDecodedUpdates) {
  sim::Simulator sim;
  obs::ScopedRegistry scope;
  const obs::MetricsRegistry& registry = scope.registry();
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  const auto decoded = [&](ReplicaId r) {
    return registry.value("prime.replica" + std::to_string(r) +
                          ".po_requests_decoded");
  };
  const auto issued = [&] {
    std::uint64_t n = 0;
    for (const auto& r : cluster.replicas()) n += r->stats().po_requests_sent;
    return n;
  };

  std::uint64_t issued_when_settled = issued();
  std::size_t submitted = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i) {
      cluster.submit("client/a", "a" + std::to_string(submitted));
      cluster.submit("client/b", "b" + std::to_string(submitted));
      submitted += 2;
      cluster.run_for(5 * sim::kMillisecond);
      // Everything issued before the last settle has executed, so only
      // PO-Requests issued since can still be unexecuted.
      const auto unexecuted =
          static_cast<std::int64_t>(issued() - issued_when_settled);
      for (ReplicaId r = 0; r < cluster.n(); ++r) {
        EXPECT_LE(decoded(r), unexecuted) << "replica " << r;
      }
    }
    cluster.run_for(300 * sim::kMillisecond);
    ASSERT_EQ(cluster.min_executed(), submitted);
    for (ReplicaId r = 0; r < cluster.n(); ++r) {
      EXPECT_EQ(decoded(r), 0) << "replica " << r << ", round " << round;
    }
    issued_when_settled = issued();
  }
  EXPECT_EQ(submitted, 2000u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// ---- garbage collection at the stable checkpoint -----------------------------

std::int64_t replica_gauge(const obs::MetricsRegistry& registry, ReplicaId r,
                           const std::string& name) {
  return registry.value("prime.replica" + std::to_string(r) + "." + name);
}

// A stable checkpoint drops what the checkpoint before it covers, so
// under steady load a replica holds the slack interval and the interval
// being filled: at most two intervals of slots, and the PO-Requests
// those executed, however long it runs.
TEST(Prime, RetainedSlotsStayWithinTwoCheckpointIntervals) {
  sim::Simulator sim;
  obs::ScopedRegistry scope;
  const obs::MetricsRegistry& registry = scope.registry();
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  std::int64_t envelopes_at_half = 0;
  for (int i = 0; i < 400; ++i) {
    cluster.submit("client/a", "a" + std::to_string(i));
    cluster.submit("client/b", "b" + std::to_string(i));
    cluster.run_for(20 * sim::kMillisecond);
    for (ReplicaId r = 0; r < cluster.n(); ++r) {
      ASSERT_LE(replica_gauge(registry, r, "retained_slots"),
                static_cast<std::int64_t>(2 * kCheckpointInterval))
          << "replica " << r << " after " << i << " rounds";
    }
    if (i == 199) {
      envelopes_at_half =
          replica_gauge(registry, 0, "retained_po_envelopes_high_water");
    }
  }
  cluster.run_for(1 * sim::kSecond);
  ASSERT_EQ(cluster.min_executed(), 800u);
  for (ReplicaId r = 0; r < cluster.n(); ++r) {
    const auto& stats = cluster.replica(r).stats();
    EXPECT_GT(stats.matrices_applied, 8 * kCheckpointInterval);
    EXPECT_LE(stats.retained_slots_high_water, 2 * kCheckpointInterval);
    EXPECT_EQ(stats.state_transfers, 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(replica_gauge(
                  registry, r, "retained_slots_high_water")),
              stats.retained_slots_high_water);
    EXPECT_GT(replica_gauge(registry, r, "retained_po_bytes"), 0);
  }
  // The second half of the run raised no PO-Request high-water.
  EXPECT_EQ(replica_gauge(registry, 0, "retained_po_envelopes_high_water"),
            envelopes_at_half);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// A replica cut off for several checkpoint intervals finds the slots it
// missed pruned at every peer. Its first certificate request draws the
// peers' stable checkpoint votes, and it installs that checkpoint in
// place and fetches the rest, well within a second of the heal. The
// peers' retention stays bounded throughout.
TEST(Prime, IsolatedReplicaCatchesUpByStateTransferSoonAfterHeal) {
  sim::Simulator sim;
  obs::ScopedRegistry scope;
  const obs::MetricsRegistry& registry = scope.registry();
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);

  cluster.fabric().isolate(3, true);
  const std::uint64_t cut_at = cluster.replica(0).applied_seq();
  int submitted = 0;
  while (cluster.replica(0).applied_seq() < cut_at + 4 * kCheckpointInterval) {
    cluster.submit("client/a", "op" + std::to_string(submitted++));
    cluster.run_for(30 * sim::kMillisecond);
    for (ReplicaId r = 0; r < 3; ++r) {
      ASSERT_LE(replica_gauge(registry, r, "retained_slots"),
                static_cast<std::int64_t>(2 * kCheckpointInterval))
          << "replica " << r;
    }
  }
  cluster.run_for(300 * sim::kMillisecond);
  ASSERT_EQ(cluster.app(0).log().size(), static_cast<std::size_t>(submitted));
  ASSERT_LT(cluster.replica(3).applied_seq(), cut_at + kCheckpointInterval);

  cluster.fabric().isolate(3, false);
  cluster.run_for(1 * sim::kSecond);
  EXPECT_GE(cluster.replica(3).stats().state_transfers, 1u);
  EXPECT_FALSE(cluster.replica(3).recovering());
  EXPECT_EQ(cluster.app(3).log().size(), static_cast<std::size_t>(submitted));
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
  for (ReplicaId r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(r).stats().state_transfers, 0u) << "replica " << r;
    EXPECT_LE(cluster.replica(r).stats().retained_slots_high_water,
              2 * kCheckpointInterval)
        << "replica " << r;
  }

  // Caught up, it orders new updates with the others.
  cluster.submit("client/b", "after");
  cluster.run_for(1 * sim::kSecond);
  EXPECT_EQ(cluster.app(3).log().size(), static_cast<std::size_t>(submitted) + 1);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

/// Cuts `replica` off the fabric the first time a peer receives its
/// SnapshotReq: the peers still answer nothing, so the checkpoint it
/// chose can be garbage-collected everywhere before the heal.
void isolate_at_first_snapshot_req(Cluster& cluster, ReplicaId replica) {
  cluster.set_tap([&cluster, replica, armed = true](
                      ReplicaId, const util::Bytes& bytes) mutable {
    if (!armed) return;
    const auto env = Envelope::decode(bytes);
    if (!env || env->type != MsgType::kSnapshotReq ||
        env->sender != replica_identity(replica)) {
      return;
    }
    armed = false;
    cluster.fabric().isolate(replica, true);
  });
}

/// Orders `count` updates from client/a at 30 ms spacing.
void submit_spaced(Cluster& cluster, int count, const std::string& tag) {
  for (int i = 0; i < count; ++i) {
    cluster.submit("client/a", tag + std::to_string(i));
    cluster.run_for(30 * sim::kMillisecond);
  }
}

/// After a heal: `replica` has rejoined within `bound`, holds the
/// peers' history, and orders an update submitted afterwards.
void expect_rejoined_within(Cluster& cluster, ReplicaId replica,
                            sim::Time bound) {
  const ReplicaId peer = replica == 0 ? 1 : 0;
  cluster.run_for(bound);
  EXPECT_FALSE(cluster.replica(replica).recovering());
  EXPECT_EQ(cluster.app(replica).log().size(), cluster.app(peer).log().size());
  EXPECT_EQ(cluster.replica(replica).applied_seq(),
            cluster.replica(peer).applied_seq());
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);

  const std::size_t before = cluster.app(peer).log().size();
  cluster.submit("client/b", "after");
  cluster.run_for(1 * sim::kSecond);
  EXPECT_EQ(cluster.app(replica).log().size(), before + 1);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// A rejoining replica cut off once it has asked for its chosen
// snapshot, while the others order far past that checkpoint and
// garbage-collect it (a chaos restart, with no scheduler to re-issue
// recover()). Its own retry loop polls afresh and installs a checkpoint
// the peers still hold, soon after the heal.
TEST(Prime, RejoinWhoseSnapshotWasCollectedRestartsTheRound) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);
  submit_spaced(cluster, 20, "warm");

  const ReplicaId target = 5;
  isolate_at_first_snapshot_req(cluster, target);
  cluster.replica(target).shutdown();
  cluster.replica(target).recover();
  cluster.run_for(100 * sim::kMillisecond);
  ASSERT_TRUE(cluster.replica(target).recovering());

  submit_spaced(cluster, 150, "cut");
  cluster.run_for(300 * sim::kMillisecond);
  ASSERT_EQ(cluster.app(0).log().size(), 170u);
  ASSERT_TRUE(cluster.replica(target).recovering());
  ASSERT_EQ(cluster.replica(target).applied_seq(), 0u);

  cluster.fabric().isolate(target, false);
  expect_rejoined_within(cluster, target, 1 * sim::kSecond);
  EXPECT_EQ(cluster.replica(target).stats().state_transfers, 1u);
  EXPECT_GE(cluster.replica(target).stats().state_reqs_sent, 2u);
}

// The same stall on the in-place catch-up path: a replica that fell
// more than one checkpoint interval behind starts a transfer on the
// heal, and is cut off again right after its SnapshotReq while the
// others move on and garbage-collect the checkpoint it chose.
TEST(Prime, CatchUpWhoseSnapshotWasCollectedRestartsTheRound) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  const ReplicaId target = 5;
  cluster.fabric().isolate(target, true);
  submit_spaced(cluster, 4 * static_cast<int>(kCheckpointInterval), "gap");
  ASSERT_LT(cluster.replica(target).applied_seq() + kCheckpointInterval,
            cluster.replica(0).applied_seq());

  isolate_at_first_snapshot_req(cluster, target);
  cluster.fabric().isolate(target, false);
  submit_spaced(cluster, 150, "cut");
  ASSERT_FALSE(cluster.replica(target).recovering());
  ASSERT_EQ(cluster.replica(target).stats().state_transfers, 0u)
      << "the catch-up was not cut off after its SnapshotReq";
  ASSERT_LT(cluster.replica(target).applied_seq() + kCheckpointInterval,
            cluster.replica(0).applied_seq());

  cluster.fabric().isolate(target, false);
  expect_rejoined_within(cluster, target, 1 * sim::kSecond);
  EXPECT_EQ(cluster.replica(target).stats().state_transfers, 1u);
}

// A replica that falls behind by less than one checkpoint interval
// still finds every slot it missed at its peers, the one-interval slack
// the garbage collection keeps, and catches up by fetching them.
TEST(Prime, ReplicaLaggingInsideOneIntervalCatchesUpByFetch) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);

  cluster.fabric().isolate(3, true);
  const std::uint64_t cut_at = cluster.replica(0).applied_seq();
  for (int i = 0; i < 6; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(30 * sim::kMillisecond);
  }
  cluster.run_for(200 * sim::kMillisecond);
  ASSERT_EQ(cluster.app(0).log().size(), 6u);
  ASSERT_LT(cluster.replica(0).applied_seq(), cut_at + kCheckpointInterval);
  ASSERT_LT(cluster.app(3).log().size(), 6u);

  cluster.fabric().isolate(3, false);
  cluster.run_for(2 * sim::kSecond);
  EXPECT_EQ(cluster.app(3).log().size(), 6u);
  EXPECT_EQ(cluster.replica(3).stats().state_transfers, 0u);
  EXPECT_GT(cluster.replica(3).stats().fetches_sent +
                cluster.replica(3).stats().recon_fetches_satisfied,
            0u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// f = 1 Byzantine replica votes for checkpoints the others never took:
// the next one the lagging replica will take itself and one far past
// everyone, under a digest no correct replica holds. One vote is short
// of the f+1 a stable checkpoint needs, so the lagging replica neither
// prunes on it nor starts a state transfer; it catches up by fetch.
TEST(Prime, FByzantineCheckpointVotesNeitherPruneNorTriggerTransfer) {
  sim::Simulator sim;
  obs::ScopedRegistry scope;
  const obs::MetricsRegistry& registry = scope.registry();
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);
  for (int i = 0; i < 2 * static_cast<int>(kCheckpointInterval); ++i) {
    cluster.submit("client/a", "warm" + std::to_string(i));
    cluster.run_for(30 * sim::kMillisecond);
  }
  cluster.run_for(300 * sim::kMillisecond);

  Replica& victim = cluster.replica(1);
  const crypto::Keyring& keyring = Cluster::suite_keyring();
  const crypto::Signer byzantine(replica_identity(2),
                                 keyring.identity_key(replica_identity(2)));
  const auto forge_vote = [&](std::uint64_t seq) {
    Checkpoint cp;
    cp.replica = 2;
    cp.applied_seq = seq;
    cp.snapshot_digest = crypto::sha256(util::to_bytes("forged"));
    cp.sign(byzantine);
    victim.on_message(Envelope::seal(MsgType::kCheckpoint, byzantine, cp.encode()));
  };

  cluster.fabric().isolate(1, true);
  const std::uint64_t applied = victim.applied_seq();
  const std::uint64_t next = applied - applied % kCheckpointInterval +
                             kCheckpointInterval;
  const std::uint64_t stable_before = victim.stats().checkpoints_stable;
  const std::int64_t slots_before = replica_gauge(registry, 1, "retained_slots");
  forge_vote(next);
  forge_vote(next + 8 * kCheckpointInterval);
  EXPECT_EQ(victim.stats().checkpoints_stable, stable_before);
  EXPECT_EQ(replica_gauge(registry, 1, "retained_slots"), slots_before);

  // The other three, a quorum, move on meanwhile.
  for (int i = 0; i < 4; ++i) {
    cluster.submit("client/b", "cut" + std::to_string(i));
    cluster.run_for(30 * sim::kMillisecond);
  }
  cluster.run_for(500 * sim::kMillisecond);
  EXPECT_EQ(victim.applied_seq(), applied);
  EXPECT_EQ(replica_gauge(registry, 1, "retained_slots"), slots_before);

  cluster.fabric().isolate(1, false);
  cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(victim.stats().state_transfers, 0u);
  EXPECT_EQ(cluster.app(1).log().size(), cluster.app(0).log().size());
  EXPECT_EQ(cluster.app(1).log().size(), 2 * kCheckpointInterval + 4);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

TEST(PrimeMessages, EnvelopeRoundTripAndTamperDetection) {
  crypto::Keyring kr("x");
  crypto::Signer signer("prime/0", kr.identity_key("prime/0"));
  crypto::Verifier verifier;
  verifier.add_identity("prime/0", kr.identity_key("prime/0"));

  const Envelope env =
      Envelope::make(MsgType::kPoRequest, signer, util::to_bytes("body"));
  auto bytes = env.encode();
  const auto decoded = Envelope::decode(bytes);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->verify(verifier));

  bytes[bytes.size() / 2] ^= 1;
  const auto tampered = Envelope::decode(bytes);
  if (tampered) {
    EXPECT_FALSE(tampered->verify(verifier));
  }
}

TEST(PrimeMessages, PrePrepareDigestCoversMatrix) {
  PrePrepare a;
  a.leader = 0;
  a.view = 1;
  a.order_seq = 5;
  a.rows.assign(4, nullptr);
  PrePrepare b = a;
  auto row = std::make_shared<PoAru>();
  row->replica = 2;
  row->aru = {1, 2, 3, 4};
  b.rows[2] = row;
  EXPECT_NE(a.digest(), b.digest());
  const auto decoded = PrePrepare::decode(b.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->digest(), b.digest());
}

// ---- the shared safety oracle ---------------------------------------------
//
// first_divergence() guards every Prime suite; an oracle that always
// passed would hide a safety bug in all of them.

/// A LogApp that executed `updates` (client, client_seq) in order.
std::unique_ptr<LogApp> log_app(
    const std::vector<std::pair<std::string, std::uint64_t>>& updates) {
  auto app = std::make_unique<LogApp>();
  for (const auto& [client, seq] : updates) {
    ClientUpdate update;
    update.client = client;
    update.client_seq = seq;
    app->apply(update, ExecutionInfo{});
  }
  return app;
}

TEST(PrimeOracle, AcceptsEqualPrefixAndEmptyLogs) {
  std::vector<std::unique_ptr<LogApp>> apps;
  apps.push_back(log_app({{"a", 1}, {"b", 1}, {"a", 2}}));
  apps.push_back(log_app({{"a", 1}, {"b", 1}, {"a", 2}}));  // equal
  apps.push_back(log_app({{"a", 1}, {"b", 1}}));            // strict prefix
  apps.push_back(log_app({}));                              // empty
  EXPECT_EQ(first_divergence(apps), std::nullopt);

  std::vector<std::unique_ptr<LogApp>> empty;
  empty.push_back(log_app({}));
  empty.push_back(log_app({}));
  EXPECT_EQ(first_divergence(empty), std::nullopt);
}

TEST(PrimeOracle, RejectsDivergenceNamingReplicaAndIndex) {
  std::vector<std::unique_ptr<LogApp>> apps;
  apps.push_back(log_app({{"a", 1}, {"b", 1}, {"a", 2}}));
  apps.push_back(log_app({{"a", 1}, {"b", 1}}));
  apps.push_back(log_app({{"a", 1}, {"a", 2}}));            // swapped order
  apps.push_back(log_app({{"a", 1}, {"b", 1}, {"b", 2}}));  // differs at 2
  EXPECT_EQ(first_divergence(apps), (LogDivergence{2, 1}));

  // Replica 0 is not ground truth: when it is the shorter log and
  // disagrees with a longer one, replica 0 is the one named.
  std::vector<std::unique_ptr<LogApp>> two;
  two.push_back(log_app({{"a", 1}, {"b", 2}}));
  two.push_back(log_app({{"a", 1}, {"b", 1}, {"a", 2}}));
  EXPECT_EQ(first_divergence(two), (LogDivergence{0, 1}));
}

TEST(Prime, ResponsibleSetBoundsPreorderDuplication) {
  // Clients broadcast to all n replicas, but only f+k+1 of them may
  // preorder any given client's updates (DESIGN.md: bounded
  // duplication with guaranteed liveness).
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);  // n = 6, responsible set size 3
  cluster.run_for(500 * sim::kMillisecond);
  for (int i = 0; i < 10; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(60 * sim::kMillisecond);
  }
  cluster.run_for(2 * sim::kSecond);

  std::uint32_t preorderers = 0;
  std::uint64_t total_po_requests = 0;
  for (const auto& replica : cluster.replicas()) {
    if (replica->stats().po_requests_sent > 0) ++preorderers;
    total_po_requests += replica->stats().po_requests_sent;
  }
  EXPECT_LE(preorderers, cluster.config().f + cluster.config().k + 1);
  EXPECT_GE(preorderers, 1u);
  EXPECT_GT(total_po_requests, 0u);
  for (const auto& app : cluster.apps()) EXPECT_EQ(app->log().size(), 10u);
}

// ---- property sweeps ---------------------------------------------------------

struct SweepParam {
  std::uint32_t f;
  std::uint32_t k;
  std::uint64_t seed;
};

class PrimeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PrimeSweep, SafetyAndLivenessWithCrashFaults) {
  const auto param = GetParam();
  sim::Simulator sim;
  Cluster cluster(sim, param.f, param.k, {"client/a", "client/b"}, param.seed);
  cluster.run_for(500 * sim::kMillisecond);

  // Crash f replicas (never the whole leader chain): pick the highest
  // indices so view 0's leader survives.
  for (std::uint32_t c = 0; c < param.f; ++c) {
    cluster.replica(cluster.config().n() - 1 - c).set_behavior(
        ReplicaBehavior::kCrashed);
  }

  sim::Rng workload(param.seed * 7919 + 13);
  int submitted = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string client = workload.chance(0.5) ? "client/a" : "client/b";
    cluster.submit(client, "op" + std::to_string(i));
    ++submitted;
    cluster.run_for(20 + workload.uniform(0, 60) * sim::kMillisecond);
  }
  cluster.run_for(3 * sim::kSecond);

  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (cluster.replica(i).behavior() == ReplicaBehavior::kCrashed) continue;
    EXPECT_EQ(cluster.app(i).log().size(),
              static_cast<std::size_t>(submitted))
        << "replica " << i << " (f=" << param.f << ", k=" << param.k << ")";
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PrimeSweep,
    ::testing::Values(SweepParam{1, 0, 1}, SweepParam{1, 0, 2},
                      SweepParam{1, 1, 1}, SweepParam{1, 1, 2},
                      SweepParam{2, 0, 1}, SweepParam{1, 2, 1}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::ostringstream name;
      name << "f" << info.param.f << "k" << info.param.k << "seed"
           << info.param.seed;
      return name.str();
    });

class LeaderFaultSweep : public ::testing::TestWithParam<ReplicaBehavior> {};

TEST_P(LeaderFaultSweep, ViewChangeRestoresLiveness) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);  // n=6
  cluster.run_for(500 * sim::kMillisecond);
  cluster.replica(0).set_behavior(GetParam());

  for (int i = 0; i < 8; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i));
    cluster.run_for(100 * sim::kMillisecond);
  }
  cluster.run_for(5 * sim::kSecond);

  EXPECT_GE(cluster.replica(1).view(), 1u);
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(), 8u) << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(LeaderFaults, LeaderFaultSweep,
                         ::testing::Values(ReplicaBehavior::kCrashed,
                                           ReplicaBehavior::kSilentLeader,
                                           ReplicaBehavior::kStaleLeader),
                         [](const ::testing::TestParamInfo<ReplicaBehavior>& info) {
                           switch (info.param) {
                             case ReplicaBehavior::kCrashed: return "Crashed";
                             case ReplicaBehavior::kSilentLeader: return "Silent";
                             case ReplicaBehavior::kStaleLeader: return "Stale";
                             default: return "Other";
                           }
                         });

}  // namespace
}  // namespace spire::prime
