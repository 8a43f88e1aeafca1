// Red-team demo: a condensed, narrated version of the §IV experiment.
//
// Builds the hardened Spire deployment, plugs an attacker host into
// the operations switch, launches the red team's network attacks while
// the automatic breaker-cycling workload runs, and reports after each
// attack whether the operator's view ever diverged from the field.
// Run it and watch the attacks bounce off.
#include <cstdio>

#include "attack/attacker.hpp"
#include "mana/mana.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

void banner(const char* text) { std::printf("\n--- %s ---\n", text); }

bool hmi_matches_field(scada::SpireDeployment& spire_sys) {
  const auto& hmi = spire_sys.hmi(0);
  for (const auto& device : spire_sys.config().scenario.devices) {
    const auto& plc = spire_sys.plc(device.name);
    for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
      if (hmi.display().breaker(device.name, b) != plc.breakers().closed(b)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  util::LogConfig::instance().level = util::LogLevel::kOff;
  std::printf("== Spire red-team demo (paper SIV) ==\n");

  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment spire_sys(sim, config);

  mana::ManaConfig ids_config;
  ids_config.network = "operations-spire";
  mana::Mana ids(ids_config);
  spire_sys.start();
  sim.run_until(5 * sim::kSecond);
  spire_sys.external_switch().add_tap(
      "operations-spire", [&](const net::PcapRecord& r) { ids.on_capture(r); });
  std::printf("deployment up: %u replicas, %zu PLCs behind proxies, "
              "cycling workload running\n",
              spire_sys.n(), config.scenario.devices.size());

  // Train MANA on the finalized network.
  sim.run_until(sim.now() + 30 * sim::kSecond);
  ids.flush_until(sim.now());
  ids.finish_training();
  std::printf("MANA trained on baseline capture\n");

  net::Host& rogue = spire_sys.network().add_host("redteam");
  rogue.add_interface(net::MacAddress::from_id(0xBAD),
                      net::IpAddress::make(10, 2, 0, 66), 24);
  spire_sys.network().connect(rogue, 0, spire_sys.external_switch());
  attack::Attacker attacker(sim, rogue);

  banner("attack 1: port scan of a replica host");
  const auto fw_before = spire_sys.replica_host(0).stats().dropped_firewall_in;
  attacker.port_scan(spire_sys.replica_host(0).ip(1), 8000, 8200,
                     2 * sim::kMillisecond);
  sim.run_until(sim.now() + 3 * sim::kSecond);
  std::printf("firewall dropped %llu probes; operator view consistent: %s\n",
              static_cast<unsigned long long>(
                  spire_sys.replica_host(0).stats().dropped_firewall_in -
                  fw_before),
              hmi_matches_field(spire_sys) ? "yes" : "NO");

  banner("attack 2: ARP poisoning of the HMI workstation");
  net::Host& hmi_host = spire_sys.network().host("hmi0");
  for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
    attacker.arp_poison(hmi_host.ip(0), hmi_host.mac(0),
                        spire_sys.replica_host(i).ip(1), 10);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  const auto binding = hmi_host.arp_lookup(spire_sys.replica_host(0).ip(1));
  std::printf("HMI's ARP binding for replica 0: %s (attacker is %s)\n",
              binding ? binding->str().c_str() : "none",
              rogue.mac(0).str().c_str());
  std::printf("static ARP held: %s\n",
              binding && *binding != rogue.mac(0) ? "yes" : "NO");

  banner("attack 3: denial-of-service burst at every replica");
  const auto version_before = spire_sys.hmi(0).displayed_version();
  for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
    attacker.dos_flood(spire_sys.replica_host(i).ip(1),
                       spire_sys.replica_host(i).mac(1), 8200, 2000,
                       2 * sim::kSecond, 1200);
  }
  sim.run_until(sim.now() + 5 * sim::kSecond);
  std::printf("HMI version advanced %llu -> %llu during the flood; "
              "operator view consistent: %s\n",
              static_cast<unsigned long long>(version_before),
              static_cast<unsigned long long>(
                  spire_sys.hmi(0).displayed_version()),
              hmi_matches_field(spire_sys) ? "yes" : "NO");

  banner("attack 4: compromise of one SCADA-master replica (excursion)");
  spire_sys.replica(1).set_behavior(prime::ReplicaBehavior::kStaleLeader);
  spire_sys.hmi(0).command_breaker("plc-phys", 0, true);
  sim.run_until(sim.now() + 5 * sim::kSecond);
  std::printf("command executed with a Byzantine replica: breaker closed "
              "at PLC: %s, shown on HMI: %s\n",
              spire_sys.plc("plc-phys").breakers().closed(0) ? "yes" : "NO",
              spire_sys.hmi(0).display().breaker("plc-phys", 0) == true
                  ? "yes"
                  : "NO");

  banner("MANA situational-awareness board");
  ids.flush_until(sim.now());
  for (const auto& alert : ids.alerts()) {
    std::printf("[%7.1fs] %-20s %s\n",
                static_cast<double>(alert.at) / sim::kSecond,
                std::string(mana::to_string(alert.kind)).c_str(),
                alert.detail().c_str());
  }

  const bool ok = hmi_matches_field(spire_sys) && !ids.alerts().empty();
  std::printf("\n%s\n", ok ? "RED-TEAM DEMO OK: attacks defeated, operator "
                             "informed"
                           : "RED-TEAM DEMO FAILED");
  return ok ? 0 : 1;
}
