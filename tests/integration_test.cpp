// End-to-end integration tests over the full Spire deployment: the
// emulated network, both Spines overlays, Prime replication, SCADA
// masters, proxies, PLCs, HMIs, the automatic cycler, proactive
// recovery, and the ground-truth rebuild property of §III-A.
#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "scada/deployment.hpp"

namespace spire::scada {
namespace {

struct DeploymentFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<SpireDeployment> deployment;

  void build(std::uint32_t f, std::uint32_t k, ScenarioSpec scenario,
             sim::Time cycler_interval = 0) {
    DeploymentConfig config;
    config.f = f;
    config.k = k;
    config.scenario = std::move(scenario);
    config.cycler_interval = cycler_interval;
    deployment = std::make_unique<SpireDeployment>(sim, config);
    deployment->start();
  }

  void run_for(sim::Time t) { sim.run_until(sim.now() + t); }
};

TEST_F(DeploymentFixture, HmiCommandRoundTripsThroughEverything) {
  build(1, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);

  Hmi& hmi = deployment->hmi(0);
  ASSERT_GT(hmi.displayed_version(), 0u);
  ASSERT_EQ(hmi.display().breaker("plc-phys", 1), false);

  hmi.command_breaker("plc-phys", 1, true);
  run_for(2 * sim::kSecond);

  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(1));
  EXPECT_EQ(hmi.display().breaker("plc-phys", 1), true);
}

TEST_F(DeploymentFixture, CyclerWorkloadTracksGroundTruth) {
  build(1, 0, ScenarioSpec::red_team(), 500 * sim::kMillisecond);
  run_for(12 * sim::kSecond);

  const auto& history = deployment->cycler()->history();
  ASSERT_GT(history.size(), 10u);

  // Ground truth at the PLCs matches the last commanded state for each
  // breaker that had time to settle, and the HMI matches ground truth.
  run_for(2 * sim::kSecond);
  const Hmi& hmi = deployment->hmi(0);
  for (const auto& device : deployment->config().scenario.devices) {
    const auto& plc = deployment->plc(device.name);
    for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
      EXPECT_EQ(hmi.display().breaker(device.name, b), plc.breakers().closed(b))
          << device.name << " breaker " << b;
    }
  }
  // No replica ever left view 0: the system was healthy.
  for (std::uint32_t i = 0; i < deployment->n(); ++i) {
    EXPECT_EQ(deployment->replica(i).view(), 0u);
  }
}

TEST_F(DeploymentFixture, ToleratesOneCompromisedCrashedReplica) {
  build(1, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);
  deployment->replica(2).set_behavior(prime::ReplicaBehavior::kCrashed);

  Hmi& hmi = deployment->hmi(0);
  hmi.command_breaker("plc-phys", 0, true);
  run_for(2 * sim::kSecond);
  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(0));
  EXPECT_EQ(hmi.display().breaker("plc-phys", 0), true);
}

TEST_F(DeploymentFixture, ToleratesCompromisedLeaderDelayAttack) {
  build(1, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);
  deployment->replica(0).set_behavior(prime::ReplicaBehavior::kStaleLeader);

  Hmi& hmi = deployment->hmi(0);
  hmi.command_breaker("plc-phys", 2, true);
  run_for(6 * sim::kSecond);  // view change + re-processing
  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(2));
  EXPECT_EQ(hmi.display().breaker("plc-phys", 2), true);
  EXPECT_GE(deployment->replica(1).view(), 1u);
}

TEST_F(DeploymentFixture, StoppingOneSpinesDaemonIsHarmless) {
  // The excursion's first step (§IV-B): stop the daemons on one replica.
  build(1, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);
  deployment->internal_overlay().daemon("int1").stop();
  deployment->external_overlay().daemon("ext1").stop();

  Hmi& hmi = deployment->hmi(0);
  hmi.command_breaker("plc-phys", 3, true);
  run_for(3 * sim::kSecond);
  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(3));
  EXPECT_EQ(hmi.display().breaker("plc-phys", 3), true);
}

TEST_F(DeploymentFixture, PlantConfigurationRunsProactiveRecoveryUnderLoad) {
  build(1, 1, ScenarioSpec::power_plant(), 1 * sim::kSecond);
  auto recovery = deployment->make_recovery(
      prime::RecoveryConfig{6 * sim::kSecond, 1 * sim::kSecond});
  run_for(3 * sim::kSecond);
  recovery->start();
  run_for(45 * sim::kSecond);  // > one full cycle over 6 replicas
  recovery->stop();
  run_for(8 * sim::kSecond);

  EXPECT_GE(recovery->recoveries_completed(), 6u);
  // System stayed live throughout: the HMI version kept advancing.
  const Hmi& hmi = deployment->hmi(0);
  EXPECT_GT(hmi.displayed_version(), 100u);

  // All replicas converge to the same application state digest.
  run_for(3 * sim::kSecond);
  std::map<crypto::Digest, int> digests;
  for (std::uint32_t i = 0; i < deployment->n(); ++i) {
    if (!deployment->replica(i).running() ||
        deployment->replica(i).recovering()) {
      continue;
    }
    ++digests[deployment->master(i).state().digest()];
  }
  int max_agree = 0;
  for (const auto& [digest, count] : digests) max_agree = std::max(max_agree, count);
  EXPECT_GE(max_agree, 4);  // quorum of masters byte-identical
}

TEST_F(DeploymentFixture, GroundTruthRebuildAfterTotalStateLoss) {
  // §III-A: after an assumption breach that wipes every replica, the
  // SCADA masters rebuild state from the field devices. Generic BFT
  // cannot recover from this (see bench_state_recovery for the
  // comparison); Spire can, because the PLCs are the ground truth.
  build(1, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);

  // Establish some physical state.
  deployment->hmi(0).command_breaker("plc-phys", 4, true);
  run_for(2 * sim::kSecond);
  ASSERT_TRUE(deployment->plc("plc-phys").breakers().closed(4));

  // Catastrophe: every replica crashes and loses all state.
  for (std::uint32_t i = 0; i < deployment->n(); ++i) {
    deployment->replica(i).shutdown();
  }
  run_for(1 * sim::kSecond);

  // Operators restart the system fresh (and restart the HMI session).
  for (std::uint32_t i = 0; i < deployment->n(); ++i) {
    deployment->replica(i).start();
  }
  deployment->hmi(0).reset_display();

  // Within one proxy heartbeat (2 s) plus ordering the masters relearn
  // the live topology from the PLCs and the HMI shows the true state.
  run_for(5 * sim::kSecond);
  EXPECT_GT(deployment->hmi(0).displayed_version(), 0u);
  EXPECT_EQ(deployment->hmi(0).display().breaker("plc-phys", 4), true);

  // And the system is fully operational for new commands.
  deployment->hmi(0).command_breaker("plc-phys", 5, true);
  run_for(2 * sim::kSecond);
  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(5));
}

TEST_F(DeploymentFixture, FTwoConfigurationToleratesTwoCompromises) {
  // Beyond the paper's deployments: n = 3f+1 = 7 with f = 2, the next
  // rung of the resilience ladder the architecture scales to.
  build(2, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);
  deployment->replica(5).set_behavior(prime::ReplicaBehavior::kCrashed);
  deployment->replica(6).set_behavior(prime::ReplicaBehavior::kCrashed);

  Hmi& hmi = deployment->hmi(0);
  hmi.command_breaker("plc-phys", 0, true);
  run_for(3 * sim::kSecond);
  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(0));
  EXPECT_EQ(hmi.display().breaker("plc-phys", 0), true);

  // A third compromise exceeds f: the proxies' f+1 voting and Prime's
  // quorums are sized for 2, so we stop here — this test documents the
  // boundary rather than crossing it.
}

TEST_F(DeploymentFixture, OutsiderOnExternalNetworkCannotInjectScada) {
  build(1, 0, ScenarioSpec::red_team());
  run_for(3 * sim::kSecond);

  // Attacker host plugged into the external switch. With hardened
  // switches its MAC is not bound to the port, so nothing it sends is
  // even forwarded; the assertion below is about end state, not path.
  net::Host& rogue = deployment->network().add_host("rogue");
  rogue.add_interface(net::MacAddress::from_id(0xEE),
                      net::IpAddress::make(10, 2, 0, 66), 24);
  deployment->network().connect(rogue, 0, deployment->external_switch());

  attack::Attacker attacker(sim, rogue);
  const auto before = deployment->hmi(0).displayed_version();
  // Blind spray at replica external daemons and the HMI session port.
  for (std::uint32_t i = 0; i < deployment->n(); ++i) {
    attacker.dos_flood(deployment->replica_host(i).ip(1),
                       deployment->replica_host(i).mac(1),
                       kExternalDaemonPort, 500, 500 * sim::kMillisecond, 400);
  }
  run_for(3 * sim::kSecond);

  // System keeps operating and accepts no forged input.
  Hmi& hmi = deployment->hmi(0);
  EXPECT_GT(hmi.displayed_version(), before);
  hmi.command_breaker("plc-phys", 6, true);
  run_for(2 * sim::kSecond);
  EXPECT_TRUE(deployment->plc("plc-phys").breakers().closed(6));
}

}  // namespace
}  // namespace spire::scada
