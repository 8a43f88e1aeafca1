// Experiment E7 — §V, last day (end-to-end reaction time measurement).
//
// The plant engineers' measurement device periodically flipped a
// breaker and used two optical sensors to time when each system's HMI
// screen reflected the change. We reproduce the rig: Spire (plant
// configuration, n=6, f=1, k=1) and the commercial primary-backup
// system each manage their own PLC; the "device" actuates the breaker
// locally at both PLCs in the same instant and display observers
// timestamp each HMI's redraw. A second Spire deployment runs in paper
// mode (proxy heartbeat = poll interval, so every poll is ordered, as
// the paper's proxies do) beside the default report-on-change one.
//
// Paper result: Spire met the plant's timing requirements and
// reflected changes FASTER than the commercial system.
#include "bench_util.hpp"
#include "scada/commercial.hpp"
#include "scada/deployment.hpp"

using namespace spire;

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E7", "§V (measurement device)",
      "Breaker flip -> HMI update: Spire meets the plant's timing "
      "requirement and beats the commercial system's reaction time");

  sim::Simulator sim;

  // --- Spire, plant configuration ------------------------------------------
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 1;  // six replicas, as deployed in the plant
  config.scenario = scada::ScenarioSpec::power_plant();
  config.cycler_interval = 0;
  scada::SpireDeployment spire_sys(sim, config);
  config.proxy_heartbeat_interval = config.proxy_poll_interval;
  scada::SpireDeployment paper_sys(sim, config);
  std::vector<std::unique_ptr<prime::ProactiveRecovery>> recoveries;
  for (scada::SpireDeployment* sys : {&spire_sys, &paper_sys}) {
    sys->start();
    recoveries.push_back(sys->make_recovery(
        prime::RecoveryConfig{20 * sim::kSecond, 1 * sim::kSecond}));
    recoveries.back()->start();  // recoveries keep running while measuring
  }

  // --- commercial system on its own network --------------------------------
  net::Network commercial_net(sim);
  net::Switch& ops = commercial_net.add_switch({.name = "commercial-ops"});
  auto add = [&](const char* name, std::uint8_t last, std::uint32_t mac) -> net::Host& {
    net::Host& h = commercial_net.add_host(name);
    h.add_interface(net::MacAddress::from_id(mac),
                    net::IpAddress::make(10, 30, 0, last), 24);
    commercial_net.connect(h, 0, ops);
    return h;
  };
  net::Host& cm1 = add("cm1", 1, 1);
  net::Host& cm2 = add("cm2", 2, 2);
  net::Host& chmi_host = add("chmi", 3, 3);
  net::Host& cplc_host = add("cplc", 10, 4);
  plc::Plc commercial_plc(
      sim, cplc_host, "plc-plant",
      {{"B10-1", false, 40 * sim::kMillisecond},
       {"B57", false, 40 * sim::kMillisecond},
       {"B56", false, 40 * sim::kMillisecond}},
      sim::Rng(77));
  scada::CommercialMasterConfig mc;
  mc.devices = {{"plc-plant", cplc_host.ip(), 3}};
  mc.is_primary = true;
  mc.peer_ip = cm2.ip();
  scada::CommercialMaster cprimary(sim, cm1, mc);
  mc.is_primary = false;
  mc.peer_ip = cm1.ip();
  scada::CommercialMaster cbackup(sim, cm2, mc);
  scada::CommercialHmiConfig hc;
  hc.primary_ip = cm1.ip();
  hc.backup_ip = cm2.ip();
  scada::CommercialHmi chmi(sim, chmi_host, hc);
  cprimary.start();
  cbackup.start();
  chmi.start();

  sim.run_until(5 * sim::kSecond);  // both systems at steady state

  // --- the measurement rig ---------------------------------------------------
  // "We adapted the HMI to include a large box that changed from black
  // to white based on the breaker state": the display observers are the
  // photo sensors.
  sim::Time spire_seen = 0, paper_seen = 0, commercial_seen = 0;
  const auto observe = [](sim::Time& seen) {
    return [&seen](const std::string& device, std::size_t index, bool,
                   sim::Time at) {
      if (device == "plc-plant" && index == 0 && seen == 0) seen = at;
    };
  };
  spire_sys.hmi(0).set_display_observer(observe(spire_seen));
  paper_sys.hmi(0).set_display_observer(observe(paper_seen));
  chmi.set_display_observer(observe(commercial_seen));

  std::vector<double> spire_ms, paper_ms, commercial_ms;
  const auto record = [](std::vector<double>& out, sim::Time seen,
                         sim::Time flipped) {
    if (seen > 0) {
      out.push_back(static_cast<double>(seen - flipped) / sim::kMillisecond);
    }
  };
  bool state = false;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    state = !state;
    spire_seen = paper_seen = commercial_seen = 0;
    const sim::Time flipped = sim.now();
    spire_sys.flip_breaker_at_plc("plc-plant", 0, state);
    paper_sys.flip_breaker_at_plc("plc-plant", 0, state);
    commercial_plc.actuate_breaker_locally(0, state);

    const sim::Time deadline = flipped + 10 * sim::kSecond;
    while (sim.now() < deadline &&
           (spire_seen == 0 || paper_seen == 0 || commercial_seen == 0)) {
      sim.run_until(sim.now() + 5 * sim::kMillisecond);
    }
    record(spire_ms, spire_seen, flipped);
    record(paper_ms, paper_seen, flipped);
    record(commercial_ms, commercial_seen, flipped);
    sim.run_until(sim.now() + 1500 * sim::kMillisecond);  // device period
  }
  for (auto& recovery : recoveries) recovery->stop();

  std::printf("Breaker flip -> HMI path, Spire: actuation physics (~40ms) "
              "+ proxy poll (<=200ms) + Prime ordering + f+1 HMI voting.\n");
  std::printf("Breaker flip -> HMI path, commercial: actuation + master poll "
              "(<=1s) + HMI poll (<=1s).\n\n");

  bench::Report report(
      "plant_reaction_time",
      "both systems report every change; Spire meets the timing requirement "
      "and is faster than the commercial system");
  const bench::LatencyStats spire = report.latency.add(
      "Spire (n=6, f=1, k=1, recoveries active)", std::move(spire_ms));
  const bench::LatencyStats paper = report.latency.add(
      "Spire, paper mode (every poll ordered)", std::move(paper_ms));
  const bench::LatencyStats commercial = report.latency.add(
      "commercial (primary-backup, 1s polls)", std::move(commercial_ms));
  report.latency.print("flip -> HMI");
  report.check("Spire changes seen", static_cast<double>(spire.samples),
               bench::Cmp::kEq, kTrials);
  report.check("Spire paper mode changes seen",
               static_cast<double>(paper.samples), bench::Cmp::kEq, kTrials);
  report.check("commercial changes seen",
               static_cast<double>(commercial.samples), bench::Cmp::kEq,
               kTrials);
  report.check("Spire max", spire.max_ms, bench::Cmp::kLt, 2000, "ms");
  report.check("Spire median vs commercial median", spire.median_ms,
               bench::Cmp::kLt, commercial.median_ms, "ms");
  report.add("commercial max", commercial.max_ms, "ms");
  return report.finish(argc, argv);
}
