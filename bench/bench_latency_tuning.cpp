// Ablation A1 — Prime protocol-timer tuning.
//
// Prime's bounded-delay guarantee is engineered through its periodic
// timers: PO-Request batching, PO-ARU cadence, and the leader's
// Pre-Prepare cadence. This bench sweeps those timers on the plant
// configuration (n=6) and reports the trade DESIGN.md §5 calls out:
// faster timers buy lower supervisory-command latency at the cost of
// more replication-network traffic. The defaults used by every other
// bench sit on the knee of that curve.
#include "bench_util.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

struct TimerSetting {
  sim::Time po_request;
  sim::Time po_aru;
  sim::Time preprepare;
};

struct Outcome {
  bench::LatencyStats to_hmi;
  double internal_frames_per_sec = 0;
};

Outcome run_setting(const TimerSetting& setting) {
  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 1;
  config.scenario = scada::ScenarioSpec::power_plant();
  config.cycler_interval = 2 * sim::kSecond;
  config.prime.po_request_interval = setting.po_request;
  config.prime.po_aru_interval = setting.po_aru;
  config.prime.preprepare_interval = setting.preprepare;
  scada::SpireDeployment spire_sys(sim, config);
  spire_sys.start();
  sim.run_until(3 * sim::kSecond);

  // Internal-network traffic accounting across the measurement window.
  auto internal_frames = [&] {
    return spire_sys.internal_switch().stats().frames_forwarded;
  };
  const std::uint64_t frames_before = internal_frames();
  const sim::Time window_start = sim.now();

  scada::Hmi& hmi = spire_sys.hmi(0);
  std::vector<double> to_hmi_ms;
  bool want = true;
  for (int trial = 0; trial < 20; ++trial) {
    const sim::Time issued = sim.now();
    hmi.command_breaker("plc-plant", 0, want);
    const sim::Time deadline = issued + 5 * sim::kSecond;
    while (sim.now() < deadline &&
           hmi.display().breaker("plc-plant", 0) != want) {
      sim.run_until(sim.now() + sim::kMillisecond);
    }
    if (hmi.display().breaker("plc-plant", 0) == want) {
      to_hmi_ms.push_back(static_cast<double>(sim.now() - issued) /
                          sim::kMillisecond);
    }
    want = !want;
    sim.run_until(sim.now() + 300 * sim::kMillisecond);
  }

  Outcome outcome;
  outcome.to_hmi = bench::latency_stats(std::move(to_hmi_ms));
  const double window_s =
      static_cast<double>(sim.now() - window_start) / sim::kSecond;
  outcome.internal_frames_per_sec =
      static_cast<double>(internal_frames() - frames_before) / window_s;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "A1 (ablation)", "DESIGN.md §5 / Prime timers",
      "Protocol-timer cadence trades supervisory-command latency against "
      "replication-network overhead; bounded delay holds across the sweep");

  const std::vector<TimerSetting> settings = {
      {2 * sim::kMillisecond, 5 * sim::kMillisecond, 8 * sim::kMillisecond},
      {5 * sim::kMillisecond, 10 * sim::kMillisecond, 15 * sim::kMillisecond},
      {10 * sim::kMillisecond, 20 * sim::kMillisecond, 30 * sim::kMillisecond},
      {25 * sim::kMillisecond, 50 * sim::kMillisecond, 75 * sim::kMillisecond},
      {50 * sim::kMillisecond, 100 * sim::kMillisecond, 150 * sim::kMillisecond},
  };

  // Shape: latency rises with slower timers, traffic falls, and every
  // setting keeps bounded (sub-second) delay with no lost commands.
  bench::Report report(
      "latency_tuning",
      "faster timers => lower latency and higher overhead, with bounded "
      "delay everywhere on the sweep");
  std::vector<Outcome> outcomes;
  for (const auto& setting : settings) {
    const Outcome outcome = run_setting(setting);
    outcomes.push_back(outcome);
    char timers[64];
    std::snprintf(timers, sizeof(timers), "%llu / %llu / %llu ms: ",
                  static_cast<unsigned long long>(setting.po_request /
                                                  sim::kMillisecond),
                  static_cast<unsigned long long>(setting.po_aru /
                                                  sim::kMillisecond),
                  static_cast<unsigned long long>(setting.preprepare /
                                                  sim::kMillisecond));
    const std::string p = timers;
    report.add(p + "cmd->HMI median", outcome.to_hmi.median_ms, "ms");
    report.check(p + "cmd->HMI p90", outcome.to_hmi.p90_ms, bench::Cmp::kLt,
                 1000, "ms");
    report.add(p + "internal net frames/s", outcome.internal_frames_per_sec);
    report.check(p + "samples", static_cast<double>(outcome.to_hmi.samples),
                 bench::Cmp::kEq, 20);
  }
  report.check("cmd->HMI median, fastest vs slowest timers",
               outcomes.front().to_hmi.median_ms, bench::Cmp::kLt,
               outcomes.back().to_hmi.median_ms, "ms");
  report.check("internal net frames/s, fastest vs slowest timers",
               outcomes.front().internal_frames_per_sec, bench::Cmp::kGt,
               outcomes.back().internal_frames_per_sec);
  return report.finish(argc, argv);
}
