// Proactive-recovery scheduler tests (paper §II): completion gating,
// the k-cap under transfers that outlast the period, the stale-tick and
// orphaned-replica regression fixes, a takedown cut short by stop(),
// the slot of a target restarted behind the scheduler's back, leader
// rejuvenation during a view change, k=2 staggering on the f=2,k=2
// configuration, and chaos-driven partitions mid-transfer healing
// through the rejoining replica's own retry loop.
#include <gtest/gtest.h>

#include <memory>

#include "prime/loopback_cluster.hpp"
#include "prime/recovery.hpp"
#include "sim/chaos.hpp"

namespace spire::prime {
namespace {

/// The suite's Prime group: keyring "prime-recovery-test", one client,
/// started on creation.
struct Cluster : LoopbackCluster<> {
  Cluster(sim::Simulator& sim, std::uint32_t f, std::uint32_t k,
          std::uint64_t seed = 1)
      : LoopbackCluster(sim, make_config(f, k), suite_keyring(), seed) {
    start();
  }

  static PrimeConfig make_config(std::uint32_t f, std::uint32_t k) {
    PrimeConfig config;
    config.f = f;
    config.k = k;
    config.client_identities = {"client/a"};
    return config;
  }

  static const crypto::Keyring& suite_keyring() {
    static const crypto::Keyring keyring("prime-recovery-test");
    return keyring;
  }

  void submit(const std::string& op) {
    LoopbackCluster::submit("client/a", op);
  }

  /// Replicas currently down or recovering, scheduler-tracked or not.
  [[nodiscard]] std::uint32_t down_or_recovering() const {
    std::uint32_t n = 0;
    for (const auto& r : replicas()) {
      if (!r->running() || r->recovering()) ++n;
    }
    return n;
  }

  void expect_all_up() const {
    for (std::size_t i = 0; i < replicas().size(); ++i) {
      EXPECT_TRUE(replicas()[i]->running()) << "replica " << i << " left down";
      EXPECT_FALSE(replicas()[i]->recovering())
          << "replica " << i << " stuck recovering";
    }
  }
};

// Regression (stale-tick bug): a tick scheduled before stop() must not
// fire after a restart — that produced two concurrent tick chains and
// double-rate takedowns. After stop()+start() the only takedown may
// come from the restarted chain's own period.
TEST(ProactiveRecoveryTest, StopThenStartDoesNotLeakOldTickChain) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 2 * sim::kSecond;
  rc.downtime = 200 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);

  recovery.start();  // first tick due at +2 s
  cluster.run_for(1 * sim::kSecond);
  recovery.stop();   // the pending tick (due in 1 s) must die
  recovery.start();  // fresh chain: next tick due at +2 s from here

  // The old chain's tick would have fired 1 s from now. Run to just
  // short of the new chain's first tick: nothing may have happened.
  cluster.run_for(1900 * sim::kMillisecond);
  EXPECT_EQ(recovery.stats().takedowns, 0u)
      << "a tick from the pre-stop() chain survived the restart";

  // ... and the restarted chain ticks exactly once on schedule.
  cluster.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(recovery.stats().takedowns, 1u);

  recovery.stop();
  cluster.run_for(3 * sim::kSecond);
  cluster.expect_all_up();
}

// Regression (orphaned-replica bug): stop() arriving while the target
// is inside its downtime window — after shutdown(), before the
// bring-up lambda — must still bring the replica back.
TEST(ProactiveRecoveryTest, StopDuringDowntimeLeavesNoReplicaDown) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 1 * sim::kSecond;
  rc.downtime = 5 * sim::kSecond;  // long window to stop() inside
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  cluster.run_for(1100 * sim::kMillisecond);  // tick fired, target is down
  EXPECT_EQ(recovery.stats().takedowns, 1u);
  EXPECT_EQ(cluster.down_or_recovering(), 1u);

  recovery.stop();  // mid-downtime: must recover the target immediately
  cluster.run_for(3 * sim::kSecond);

  cluster.expect_all_up();
  // The cut-short takedown rejoined, but it was no full rejuvenation.
  EXPECT_EQ(recovery.recoveries_completed(), 0u);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// A takedown that fires at the very instant stop() runs (a soak whose
// last tick lands on its end) skips its downtime: it counts as a
// takedown, but not as a completed recovery, and its few-hundred-us
// rejoin stays out of the wall-time stats.
TEST(ProactiveRecoveryTest, StopAtTakedownInstantCountsNoCompletion) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 2 * sim::kSecond;
  rc.downtime = 500 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  // The first takedown (+2 s) completes; the second fires at exactly
  // +4 s, the instant of stop().
  cluster.run_for(4 * sim::kSecond);
  EXPECT_EQ(recovery.stats().takedowns, 2u);
  EXPECT_EQ(recovery.recoveries_completed(), 1u);
  const sim::Time full_wall = recovery.stats().last_recovery_wall;
  EXPECT_GE(full_wall, rc.downtime);

  recovery.stop();
  cluster.run_for(3 * sim::kSecond);

  cluster.expect_all_up();
  EXPECT_EQ(recovery.in_flight(), 0u);
  EXPECT_EQ(recovery.stats().takedowns, 2u);
  EXPECT_EQ(recovery.recoveries_completed(), 1u);
  EXPECT_EQ(recovery.stats().last_recovery_wall, full_wall);
  EXPECT_EQ(recovery.stats().total_recovery_wall, full_wall);
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// Regression (completion accounting): recoveries_completed() counts
// state transfers that *finished*, not recover() calls. While the
// rejoining replica is partitioned its transfer cannot finish, so the
// counter must hold at zero; after healing, the replica's own retry
// loop completes it.
TEST(ProactiveRecoveryTest, CompletionCountsAtTransferCompletion) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 1 * sim::kSecond;
  rc.downtime = 500 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  // Catch the target inside its downtime window and cut it off before
  // recover() issues its StateReq.
  cluster.run_for(1100 * sim::kMillisecond);
  ReplicaId target = 0;
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (!cluster.replica(i).running()) target = i;
  }
  EXPECT_EQ(cluster.down_or_recovering(), 1u);
  cluster.fabric().isolate(target, true);

  // Transfer blocked: takedown happened, completion must not be
  // claimed. (The old code counted at recover() time.)
  cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(recovery.stats().takedowns, 1u);
  EXPECT_EQ(recovery.recoveries_completed(), 0u);
  EXPECT_TRUE(cluster.replica(target).recovering());

  // Heal and stop scheduling in the same instant: no new takedowns may
  // start, but the stalled recovery must still be driven to completion
  // (a mid-transfer target keeps retrying on its own after stop()).
  // Exactly the one transfer finishes.
  cluster.fabric().isolate(target, false);
  recovery.stop();
  cluster.run_for(4 * sim::kSecond);
  EXPECT_EQ(recovery.recoveries_completed(), 1u);
  EXPECT_GE(cluster.replica(target).stats().state_reqs_sent, 2u);
  cluster.expect_all_up();
}

// The k-cap under a state transfer that outlasts the period: the cycle
// must pause (deferred ticks), never exceeding max_concurrent = k
// simultaneously down/recovering replicas, and resume on completion.
TEST(ProactiveRecoveryTest, TransferOutlastingPeriodNeverExceedsK) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 500 * sim::kMillisecond;
  rc.downtime = 100 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  // First takedown at +500 ms; cut the target off while it is still in
  // its downtime window so the transfer stalls across many periods.
  cluster.run_for(550 * sim::kMillisecond);
  ReplicaId target = 0;
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (!cluster.replica(i).running()) target = i;
  }
  cluster.fabric().isolate(target, true);

  // Sample the disturbed count through ~7 more periods: with the
  // transfer inflated past the period the scheduler must gate, not
  // stack further takedowns on top.
  for (int step = 0; step < 35; ++step) {
    cluster.run_for(100 * sim::kMillisecond);
    EXPECT_LE(cluster.down_or_recovering(), 1u) << "k=1 cap violated";
    EXPECT_LE(recovery.in_flight(), 1u);
  }
  EXPECT_EQ(recovery.stats().takedowns, 1u);
  EXPECT_GE(recovery.stats().deferred_ticks, 1u);
  EXPECT_EQ(recovery.stats().in_flight_high_water, 1u);

  // Heal; the stalled recovery completes and the cycle resumes.
  cluster.fabric().isolate(target, false);
  cluster.run_for(4 * sim::kSecond);
  EXPECT_GE(recovery.recoveries_completed(), 1u);
  EXPECT_GE(recovery.stats().takedowns, 2u);

  recovery.stop();
  cluster.run_for(3 * sim::kSecond);
  cluster.expect_all_up();
  EXPECT_LE(recovery.stats().in_flight_high_water, 1u);
}

// A target restarted with Replica::start() in the middle of its
// transfer is up without ever signalling recovery-done. The scheduler
// must still settle its entry: the slot is released and the cycle
// takes the next replica down.
TEST(ProactiveRecoveryTest, TargetRestartedBehindSchedulerReleasesItsSlot) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  RecoveryConfig rc;
  rc.period = 1 * sim::kSecond;
  rc.downtime = 300 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  // First takedown at +1 s; cut the target off inside its downtime
  // window so its transfer stalls after the bring-up at +1.3 s.
  cluster.run_for(1050 * sim::kMillisecond);
  ReplicaId target = 0;
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (!cluster.replica(i).running()) target = i;
  }
  cluster.fabric().isolate(target, true);
  cluster.run_for(550 * sim::kMillisecond);
  ASSERT_TRUE(cluster.replica(target).recovering());
  ASSERT_EQ(recovery.in_flight(), 1u);

  // Someone else boots it fresh, behind the scheduler's back.
  cluster.replica(target).start();
  cluster.fabric().isolate(target, false);
  EXPECT_EQ(recovery.stats().takedowns, 1u);

  cluster.run_for(12 * sim::kSecond);
  EXPECT_GE(recovery.recoveries_completed(), 1u) << "the slot was never released";
  EXPECT_GE(recovery.stats().takedowns, 2u) << "no takedown after the restart";
  EXPECT_LE(recovery.stats().in_flight_high_water, 1u);

  recovery.stop();
  cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(recovery.in_flight(), 0u);
  cluster.expect_all_up();
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// Rejuvenating the current leader forces a view change; the recovery
// must complete through it and ordering must continue in the new view.
TEST(ProactiveRecoveryTest, LeaderRecoveryCompletesThroughViewChange) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  // Order the target list so the view-0 leader (replica 0) is
  // rejuvenated first (pick_target starts from the back).
  std::vector<Replica*> order;
  for (ReplicaId i = 1; i < cluster.config().n(); ++i) {
    order.push_back(cluster.replicas()[i].get());
  }
  order.push_back(cluster.replicas()[0].get());

  RecoveryConfig rc;
  rc.period = 500 * sim::kMillisecond;
  rc.downtime = 2 * sim::kSecond;  // long enough for the view change
  ProactiveRecovery recovery(sim, order, rc);
  recovery.start();

  int submitted = 0;
  for (int round = 0; round < 16; ++round) {
    cluster.submit("op" + std::to_string(round));
    ++submitted;
    cluster.run_for(300 * sim::kMillisecond);
  }
  EXPECT_GE(recovery.recoveries_completed(), 1u);
  // The leader's takedown forced a view change on the survivors.
  std::uint64_t max_view = 0;
  for (const auto& r : cluster.replicas()) {
    max_view = std::max(max_view, r->view());
  }
  EXPECT_GE(max_view, 1u);

  recovery.stop();
  cluster.run_for(5 * sim::kSecond);
  cluster.expect_all_up();
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(),
              static_cast<std::size_t>(submitted))
        << "replica " << i;
  }
}

// k=2 staggering on the f=2,k=2 configuration (n = 3f+2k+1 = 11): two
// recoveries may overlap, a third may not.
TEST(ProactiveRecoveryTest, KEqualsTwoStaggersWithoutExceedingCap) {
  sim::Simulator sim;
  Cluster cluster(sim, 2, 2);
  cluster.run_for(500 * sim::kMillisecond);
  ASSERT_EQ(cluster.config().n(), 11u);

  RecoveryConfig rc;
  rc.period = 300 * sim::kMillisecond;
  rc.downtime = 1 * sim::kSecond;  // > period: windows overlap
  rc.max_concurrent = 2;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);
  recovery.start();

  std::uint32_t observed_high_water = 0;
  for (int step = 0; step < 60; ++step) {
    cluster.submit("op" + std::to_string(step));
    cluster.run_for(100 * sim::kMillisecond);
    const std::uint32_t disturbed = cluster.down_or_recovering();
    observed_high_water = std::max(observed_high_water, disturbed);
    EXPECT_LE(disturbed, 2u) << "k=2 cap violated at step " << step;
  }
  // Staggering actually happened: two overlapped at some point, and at
  // least one tick was gated by the full slots.
  EXPECT_EQ(observed_high_water, 2u);
  EXPECT_EQ(recovery.stats().in_flight_high_water, 2u);
  EXPECT_GE(recovery.stats().deferred_ticks, 1u);
  EXPECT_GE(recovery.recoveries_completed(), 2u);

  recovery.stop();
  cluster.run_for(5 * sim::kSecond);
  cluster.expect_all_up();
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// Chaos partition cutting a replica off mid-state-transfer: the
// rejoining replica's own retry loop completes the recovery once the
// injector heals the partition.
TEST(ProactiveRecoveryTest, ChaosPartitionMidTransferHealsViaRetry) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 1);
  cluster.run_for(500 * sim::kMillisecond);

  sim::ChaosHooks hooks;
  hooks.set_partitioned = [&](std::uint32_t node, bool cut) {
    cluster.fabric().isolate(static_cast<ReplicaId>(node), cut);
  };
  sim::ChaosInjector chaos(sim, std::move(hooks));

  RecoveryConfig rc;
  rc.period = 1 * sim::kSecond;
  rc.downtime = 300 * sim::kMillisecond;
  ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);

  // The first takedown (descending order) hits replica n-1 at +1 s and
  // brings it up at +1.3 s. Partition it from +1.25 s for three
  // seconds: every transfer attempt inside that window stalls.
  sim::ChaosEvent event;
  event.kind = sim::ChaosEvent::Kind::kPartition;
  event.node = cluster.config().n() - 1;
  event.at = sim.now() + 1250 * sim::kMillisecond;
  event.duration = 3 * sim::kSecond;
  chaos.add(event);

  recovery.start();
  chaos.arm();
  cluster.run_for(4 * sim::kSecond);
  EXPECT_EQ(chaos.stats().injected, 1u);
  EXPECT_EQ(recovery.recoveries_completed(), 0u);
  EXPECT_GE(cluster.replica(event.node).stats().state_reqs_sent, 2u);

  // Partition healed at +4.25 s; the next retry completes the join.
  cluster.run_for(4 * sim::kSecond);
  EXPECT_EQ(chaos.stats().healed, 1u);
  EXPECT_FALSE(chaos.fault_active());
  EXPECT_GE(recovery.recoveries_completed(), 1u);

  recovery.stop();
  cluster.run_for(2 * sim::kSecond);
  cluster.expect_all_up();
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// ChaosInjector::stop() mid-episode heals exactly the active faults —
// a node partitioned by chaos must be reachable again afterwards.
TEST(ChaosInjectorTest, StopMidEpisodeHealsActiveFaults) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, 0);
  cluster.run_for(500 * sim::kMillisecond);

  sim::ChaosHooks hooks;
  hooks.set_partitioned = [&](std::uint32_t node, bool cut) {
    cluster.fabric().isolate(static_cast<ReplicaId>(node), cut);
  };
  sim::ChaosInjector chaos(sim, std::move(hooks));

  sim::ChaosEvent event;
  event.kind = sim::ChaosEvent::Kind::kPartition;
  event.node = 3;
  event.at = sim.now() + 100 * sim::kMillisecond;
  event.duration = 60 * sim::kSecond;  // would outlast the whole test
  chaos.add(event);
  chaos.arm();

  cluster.run_for(500 * sim::kMillisecond);
  EXPECT_TRUE(chaos.fault_active());
  chaos.stop();
  EXPECT_FALSE(chaos.fault_active());
  EXPECT_EQ(chaos.stats().healed, chaos.stats().injected);

  // The healed node orders again: everything submitted lands on all 4.
  int submitted = 0;
  for (int round = 0; round < 10; ++round) {
    cluster.submit("op" + std::to_string(round));
    ++submitted;
    cluster.run_for(200 * sim::kMillisecond);
  }
  cluster.run_for(2 * sim::kSecond);
  for (ReplicaId i = 0; i < cluster.config().n(); ++i) {
    EXPECT_EQ(cluster.app(i).log().size(),
              static_cast<std::size_t>(submitted))
        << "replica " << i;
  }
  EXPECT_EQ(cluster.first_divergence(), std::nullopt);
}

// Deterministic schedules: the same seed yields the same episode list.
TEST(ChaosInjectorTest, RandomScheduleIsDeterministic) {
  sim::Simulator sim;
  sim::ChaosInjector a(sim, {});
  sim::ChaosInjector b(sim, {});
  a.add_random_schedule(sim::Rng(42), 0, 60 * sim::kSecond,
                        5 * sim::kSecond, 1 * sim::kSecond, 4 * sim::kSecond,
                        6, true);
  b.add_random_schedule(sim::Rng(42), 0, 60 * sim::kSecond,
                        5 * sim::kSecond, 1 * sim::kSecond, 4 * sim::kSecond,
                        6, true);
  ASSERT_EQ(a.scheduled(), b.scheduled());
  EXPECT_GE(a.scheduled(), 2u);
}

}  // namespace
}  // namespace spire::prime
