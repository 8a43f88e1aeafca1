// Experiment E2 — Fig. 2 + §II (Spire architecture in steady state).
//
// Exercises the two deployed configurations: n=4 (f=1, k=0; the
// red-team setup) and n=6 (f=1, k=1; the plant setup), measuring
// supervisory-command round-trip latency (HMI -> ordered -> proxy
// voting -> Modbus -> breaker physics -> poll -> ordered -> HMI) and
// ordered-update throughput, in three conditions the paper's design
// targets: clean, with one compromised (crashed) replica, and while a
// proactive recovery is in progress.
//
// Shape to hold (paper §II, §V): latency stays bounded (sub-second,
// well inside the plant's requirements) in all three conditions.
#include "bench_util.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

enum class Condition { kClean, kOneCompromised, kDuringRecovery };

const char* to_string(Condition c) {
  switch (c) {
    case Condition::kClean: return "clean";
    case Condition::kOneCompromised: return "1 replica compromised";
    case Condition::kDuringRecovery: return "during proactive recovery";
  }
  return "?";
}

/// Runs one configuration and adds its rows to `report`.
void run_config(std::uint32_t f, std::uint32_t k, Condition condition,
                bench::Report& report) {
  obs::ScopedRegistry metrics;  // the scheduler's rows read it
  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = f;
  config.k = k;
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 2 * sim::kSecond;  // background load
  scada::SpireDeployment spire_system(sim, config);
  spire_system.start();
  sim.run_until(3 * sim::kSecond);

  if (condition == Condition::kOneCompromised) {
    // Compromise a non-leader replica (the paper's excursion target).
    spire_system.replica(config.prime.n() - 1)
        .set_behavior(prime::ReplicaBehavior::kCrashed);
    sim.run_until(sim.now() + 1 * sim::kSecond);
  }

  std::unique_ptr<prime::ProactiveRecovery> recovery;
  if (condition == Condition::kDuringRecovery) {
    recovery = spire_system.make_recovery(
        prime::RecoveryConfig{3 * sim::kSecond, 800 * sim::kMillisecond});
    recovery->start();
    sim.run_until(sim.now() + 1 * sim::kSecond);
  }

  scada::Hmi& hmi = spire_system.hmi(0);
  auto& plc = spire_system.plc("plc-phys");

  std::vector<double> to_plc_ms, to_hmi_ms;
  // Throughput is taken as the max across replicas: a replica that was
  // proactively recovered mid-window restarts its counters.
  std::vector<std::uint64_t> executed_before;
  for (std::uint32_t i = 0; i < config.prime.n(); ++i) {
    executed_before.push_back(spire_system.replica(i).stats().updates_executed);
  }
  const sim::Time window_start = sim.now();

  bool want_closed = true;
  for (int trial = 0; trial < 30; ++trial) {
    const sim::Time issued = sim.now();
    hmi.command_breaker("plc-phys", 0, want_closed);

    // Wait for physical actuation.
    sim::Time actuated = 0, displayed = 0;
    const sim::Time deadline = issued + 5 * sim::kSecond;
    while (sim.now() < deadline &&
           plc.breakers().closed(0) != want_closed) {
      sim.run_until(sim.now() + sim::kMillisecond);
    }
    if (plc.breakers().closed(0) == want_closed) actuated = sim.now();
    while (sim.now() < deadline &&
           hmi.display().breaker("plc-phys", 0) != want_closed) {
      sim.run_until(sim.now() + sim::kMillisecond);
    }
    if (hmi.display().breaker("plc-phys", 0) == want_closed) displayed = sim.now();

    if (actuated > 0) {
      to_plc_ms.push_back(static_cast<double>(actuated - issued) /
                          sim::kMillisecond);
    }
    if (displayed > 0) {
      to_hmi_ms.push_back(static_cast<double>(displayed - issued) /
                          sim::kMillisecond);
    }
    want_closed = !want_closed;
    sim.run_until(sim.now() + 300 * sim::kMillisecond);
  }

  const double window_s =
      static_cast<double>(sim.now() - window_start) / sim::kSecond;
  std::uint64_t best_delta = 0;
  for (std::uint32_t i = 0; i < config.prime.n(); ++i) {
    const std::uint64_t now_count =
        spire_system.replica(i).stats().updates_executed;
    if (now_count > executed_before[i]) {
      best_delta = std::max(best_delta, now_count - executed_before[i]);
    }
  }
  // Prime ordering fast-path counters, summed across replicas.
  std::uint64_t stale_po_arus = 0, recon_queued = 0, recon_satisfied = 0,
                row_short_circuits = 0, batches_sealed = 0;
  for (std::uint32_t i = 0; i < config.prime.n(); ++i) {
    const prime::ReplicaStats& s = spire_system.replica(i).stats();
    stale_po_arus += s.stale_po_arus_dropped;
    recon_queued += s.recon_fetches_queued;
    recon_satisfied += s.recon_fetches_satisfied;
    row_short_circuits += s.row_verify_short_circuits;
    batches_sealed += s.batches_sealed;
  }
  if (recovery) recovery->stop();

  char config_name[32];
  std::snprintf(config_name, sizeof(config_name), "n=%u (f=%u,k=%u)",
                3 * f + 2 * k + 1, f, k);
  const std::string label =
      std::string(config_name) + " " + to_string(condition);
  report.latency.add(label + " cmd->breaker", std::move(to_plc_ms));
  const bench::LatencyStats to_hmi =
      report.latency.add(label + " cmd->HMI", std::move(to_hmi_ms));
  const std::string p = label + ": ";
  report.check(p + "cmd->HMI samples", static_cast<double>(to_hmi.samples),
               bench::Cmp::kGe, 28);
  report.check(p + "cmd->HMI p90", to_hmi.p90_ms, bench::Cmp::kLe, 1000,
               "ms");
  report.add(p + "ordered updates/s",
             static_cast<double>(best_delta) / window_s);
  report.add(p + "row short-circuits", static_cast<double>(row_short_circuits));
  report.add(p + "batches sealed", static_cast<double>(batches_sealed));
  report.add(p + "stale PO-ARUs", static_cast<double>(stale_po_arus));
  report.add(p + "recon queued", static_cast<double>(recon_queued));
  report.add(p + "recon satisfied", static_cast<double>(recon_satisfied));
  if (recovery) bench::add_recovery_rows(report, p, metrics.registry(), k);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E2", "Fig. 2 + §II",
      "Spire sustains bounded-latency SCADA operation with 3f+2k+1 replicas, "
      "through one intrusion and through proactive recoveries");

  bench::Report report(
      "fig2_spire_architecture",
      "command execution stays bounded (sub-second) in every condition, "
      "including with a compromised replica and during proactive recovery");

  struct Case {
    std::uint32_t f, k;
    Condition condition;
  };
  const std::vector<Case> cases = {
      {1, 0, Condition::kClean},
      {1, 0, Condition::kOneCompromised},
      {1, 1, Condition::kClean},
      {1, 1, Condition::kOneCompromised},
      {1, 1, Condition::kDuringRecovery},
  };
  for (const auto& c : cases) run_config(c.f, c.k, c.condition, report);
  report.latency.print("command round-trip");
  std::printf("\n");
  return report.finish(argc, argv);
}
