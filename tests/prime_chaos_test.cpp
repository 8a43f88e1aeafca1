// Chaos suite: a randomized schedule of crashes, recoveries,
// partitions, and Byzantine leaders — always within the n = 3f+2k+1
// fault bound — runs against continuous client load over a lossy
// fabric, while an oracle checks the invariants that define state
// machine replication:
//   * safety: every replica's application history is a prefix of a
//     reference replica's history (same updates, same total order,
//     exactly-once with respect to application state);
//   * liveness: once the chaos stops, every surviving replica converges
//     on the full history and identical application state.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "crypto/sha256.hpp"
#include "prime/loopback_cluster.hpp"

namespace spire::prime {
namespace {

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, InvariantsHoldThroughRandomFaultSchedule) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim;
  crypto::Keyring keyring("chaos");
  PrimeConfig config;
  config.f = 1;
  config.k = 1;  // n = 6
  config.client_identities = {"client/a", "client/b"};

  LoopbackCluster<> cluster(sim, config, keyring, seed);
  LoopbackFabric& fabric = cluster.fabric();
  fabric.set_fault_injection(0.03, 1 * sim::kMillisecond, seed * 101 + 3);

  // The oracle works on the application logs: LogApp appends in
  // execution order and restore() rewinds to the transferred canonical
  // prefix, so a log is exactly the history the application state
  // reflects. (Raw execute-observer streams would also contain the
  // legitimate rollback-replay that follows a checkpoint restore.)
  // Replica 0 is exempt from chaos and serves as the reference order.
  const auto& apps = cluster.apps();
  const auto& replicas = cluster.replicas();
  cluster.start();
  sim.run_until(500 * sim::kMillisecond);

  // --- continuous client load ------------------------------------------------
  std::uint64_t submitted = 0;
  auto submit = [&](const std::string& client) {
    cluster.submit(client, "op");
    ++submitted;
  };

  // --- the chaos schedule ------------------------------------------------------
  // At most one Byzantine/crashed replica and one
  // recovering/partitioned replica at any time (the f=1, k=1 envelope).
  sim::Rng chaos(seed * 7 + 1);
  constexpr ReplicaId kNone = 999;
  ReplicaId faulty = kNone;     // crashed or Byzantine
  ReplicaId disturbed = kNone;  // recovering or partitioned
  const sim::Time chaos_end = sim.now() + 60 * sim::kSecond;
  sim::Time next_heal_faulty = 0, next_heal_partition = 0;

  while (sim.now() < chaos_end) {
    // Load: ~10 updates/s.
    submit(chaos.chance(0.5) ? "client/a" : "client/b");
    sim.run_until(sim.now() + 80 * sim::kMillisecond +
                  chaos.uniform(0, 40) * sim::kMillisecond);

    // Heal due?
    if (faulty != kNone && sim.now() >= next_heal_faulty &&
        disturbed == kNone) {
      // Rejuvenate the faulty replica (shutdown + recover), occupying
      // the "disturbed" slot until the transfer finishes.
      replicas[faulty]->shutdown();
      replicas[faulty]->recover();
      disturbed = faulty;
      faulty = kNone;
      next_heal_partition = sim.now() + 4 * sim::kSecond;
    }
    if (disturbed != kNone && sim.now() >= next_heal_partition) {
      fabric.isolate(disturbed, false);  // idempotent for recover case
      if (!replicas[disturbed]->recovering()) disturbed = kNone;
    }

    // New mischief?
    if (chaos.chance(0.04)) {
      const auto victim =
          static_cast<ReplicaId>(1 + chaos.uniform(0, config.n() - 2));
      if (faulty == kNone && victim != disturbed) {
        faulty = victim;
        next_heal_faulty = sim.now() + 3 * sim::kSecond +
                           chaos.uniform(0, 4) * sim::kSecond;
        replicas[victim]->set_behavior(chaos.chance(0.5)
                                           ? ReplicaBehavior::kCrashed
                                           : ReplicaBehavior::kStaleLeader);
      } else if (disturbed == kNone && victim != faulty) {
        disturbed = victim;
        next_heal_partition =
            sim.now() + 1 * sim::kSecond + chaos.uniform(0, 2) * sim::kSecond;
        fabric.isolate(victim, true);
      }
    }
  }

  // --- end of chaos: heal everything and converge -----------------------------
  for (ReplicaId i = 0; i < config.n(); ++i) fabric.isolate(i, false);
  if (faulty != kNone) {
    replicas[faulty]->shutdown();
    replicas[faulty]->recover();
  }
  sim.run_until(sim.now() + 30 * sim::kSecond);
  // Anyone still mid-recovery gets one more chance.
  for (auto& r : replicas) {
    if (r->recovering()) sim.run_until(sim.now() + 10 * sim::kSecond);
  }

  // --- oracle ------------------------------------------------------------------
  // Liveness: the reference replica executed everything submitted.
  EXPECT_EQ(apps[0]->log().size(), submitted) << "seed " << seed;

  for (ReplicaId i = 0; i < config.n(); ++i) {
    ASSERT_FALSE(replicas[i]->recovering()) << "replica " << i << " stuck";
    // Safety: every application history is a prefix of the reference
    // history (same updates, same total order, exactly-once).
    const auto& log = apps[i]->log();
    const auto& reference = apps[0]->log();
    ASSERT_LE(log.size(), reference.size()) << "replica " << i;
    for (std::size_t j = 0; j < log.size(); ++j) {
      ASSERT_EQ(log[j], reference[j])
          << "replica " << i << " diverges at " << j << " (seed " << seed
          << ")";
    }
    // Convergence: identical final application state.
    EXPECT_EQ(crypto::sha256(apps[i]->snapshot()),
              crypto::sha256(apps[0]->snapshot()))
        << "replica " << i << " diverged (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           std::ostringstream name;
                           name << "seed" << info.param;
                           return name.str();
                         });

}  // namespace
}  // namespace prime
