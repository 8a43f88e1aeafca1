// Fault-injection property suite for the Prime engine: safety must
// never break and liveness must recover under probabilistic message
// loss, delivery jitter, and combinations with crash faults — the
// degraded-network conditions a real operations network can exhibit
// even without an attacker.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "prime/loopback_cluster.hpp"

namespace spire::prime {
namespace {

struct FaultParam {
  double loss = 0;
  sim::Time jitter = 0;
  std::uint32_t crashes = 0;
  std::uint64_t seed = 1;
};

class PrimeFaultSweep : public ::testing::TestWithParam<FaultParam> {};

TEST_P(PrimeFaultSweep, SafetyAlwaysLivenessEventually) {
  const FaultParam param = GetParam();
  sim::Simulator sim;
  crypto::Keyring keyring("fault-test");
  PrimeConfig config;
  config.f = 1;
  config.k = 1;  // n = 6
  config.client_identities = {"client/a"};

  LoopbackCluster<> cluster(sim, config, keyring, param.seed);
  cluster.fabric().set_fault_injection(param.loss, param.jitter,
                                       param.seed * 31 + 7);
  cluster.start();
  sim.run_until(500 * sim::kMillisecond);

  for (std::uint32_t c = 0; c < param.crashes; ++c) {
    cluster.replica(config.n() - 1 - c).set_behavior(ReplicaBehavior::kCrashed);
  }

  // Client updates are injected directly at every replica (clients are
  // not behind the lossy fabric; real Spire clients retransmit).
  sim::Rng workload(param.seed * 13 + 1);
  for (int i = 0; i < 25; ++i) {
    cluster.submit("client/a", "op" + std::to_string(i + 1));
    sim.run_until(sim.now() + 30 * sim::kMillisecond +
                  workload.uniform(0, 80) * sim::kMillisecond);
  }
  // Generous drain: loss plus view changes may stretch convergence.
  sim.run_until(sim.now() + 20 * sim::kSecond);

  if (param.loss > 0) {
    // Injection actually bit.
    EXPECT_GT(cluster.fabric().messages_dropped(), 0u);
  }

  // Liveness: every non-crashed replica executed all 25 updates.
  for (ReplicaId i = 0; i < config.n(); ++i) {
    if (cluster.replica(i).behavior() == ReplicaBehavior::kCrashed) continue;
    EXPECT_EQ(cluster.app(i).log().size(), 25u)
        << "replica " << i << " under loss=" << param.loss;
  }

  // Safety: identical execution order everywhere (prefix rule).
  ASSERT_EQ(cluster.first_divergence(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    LossAndJitter, PrimeFaultSweep,
    ::testing::Values(FaultParam{0.0, 0, 0, 1},
                      FaultParam{0.05, 0, 0, 1},
                      FaultParam{0.05, 0, 0, 2},
                      FaultParam{0.15, 0, 0, 1},
                      FaultParam{0.15, 0, 0, 3},
                      FaultParam{0.0, 5 * sim::kMillisecond, 0, 1},
                      FaultParam{0.05, 5 * sim::kMillisecond, 0, 1},
                      FaultParam{0.10, 2 * sim::kMillisecond, 1, 1},
                      FaultParam{0.10, 2 * sim::kMillisecond, 1, 2}),
    [](const ::testing::TestParamInfo<FaultParam>& info) {
      std::ostringstream name;
      name << "loss" << static_cast<int>(info.param.loss * 100) << "jitter"
           << info.param.jitter / sim::kMillisecond << "crash"
           << info.param.crashes << "seed" << info.param.seed;
      return name.str();
    });

TEST(PrimeFault, RecoveryCompletesUnderMessageLoss) {
  sim::Simulator sim;
  crypto::Keyring keyring("fault-test");
  PrimeConfig config;
  config.f = 1;
  config.k = 1;
  config.client_identities = {"client/a"};
  LoopbackCluster<> cluster(sim, config, keyring, 4);
  cluster.fabric().set_fault_injection(0.10, 1 * sim::kMillisecond, 99);
  cluster.start();
  sim.run_until(500 * sim::kMillisecond);
  Replica& victim = cluster.replica(3);
  const auto submit = [&cluster] { cluster.submit("client/a", "x"); };

  for (int i = 0; i < 20; ++i) {
    submit();
    sim.run_until(sim.now() + 50 * sim::kMillisecond);
  }
  victim.shutdown();
  sim.run_until(sim.now() + 500 * sim::kMillisecond);
  victim.recover();
  // Recovery protocol itself runs over the lossy fabric; retries must
  // carry it through.
  sim.run_until(sim.now() + 15 * sim::kSecond);
  EXPECT_FALSE(victim.recovering());

  for (int i = 0; i < 5; ++i) {
    submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 10 * sim::kSecond);
  EXPECT_EQ(cluster.app(3).log().size(), 25u);
}

}  // namespace
}  // namespace spire::prime
