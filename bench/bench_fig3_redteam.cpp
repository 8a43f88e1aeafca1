// Experiment E3 — Fig. 3 + §IV-B (red-team campaign vs Spire).
//
// Rebuilds the Spire operations networks of the red-team experiment,
// puts a MANA instance on the external switch's capture tap, and
// replays the attacks the paper reports the Sandia team launching from
// the operations network: port scanning, ARP poisoning, IP spoofing,
// and denial-of-service bursts. The same campaign runs twice — against
// a deployment WITHOUT the §III-B hardening and against the hardened
// deployment — which is exactly the ablation the paper narrates ("if
// we had not performed the low-level network setup ... the red team
// would likely have succeeded in at least causing a denial of
// service").
//
// Paper result: none of the network attacks affected hardened Spire;
// MANA surfaced the activity.
#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "mana/mana.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

constexpr int kSpoofFrames = 200;

struct CampaignResult {
  bool scan_reached_services = false;
  bool arp_poison_took = false;
  bool mitm_blinded_hmi = false;
  bool spoof_disrupted = false;
  std::uint64_t spoof_dropped = 0;  ///< of kSpoofFrames, by some defense
  bool dos_disrupted = false;
  bool system_operational_after = false;
  std::vector<mana::Alert> alerts;
};

CampaignResult run_campaign(bool hardened) {
  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;  // four replicas, as in the red-team experiment
  config.hardening = hardened ? scada::HardeningOptions::all_on()
                              : scada::HardeningOptions::all_off();
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment spire_sys(sim, config);

  // MANA 2 of Fig. 3: out-of-band tap on the Spire operations network.
  mana::ManaConfig mana_config;
  mana_config.network = "operations-spire";
  mana::Mana ids(mana_config);
  spire_sys.external_switch().add_tap(
      "operations-spire", [&](const net::PcapRecord& r) { ids.on_capture(r); });

  spire_sys.start();

  // Setup week: baseline traffic capture, then model training (the
  // paper had one 24-hour capture; simulated time is cheap).
  sim.run_until(30 * sim::kSecond);
  ids.flush_until(sim.now());
  ids.finish_training();

  CampaignResult result;

  // Red team host placed directly on the operations network (the paper:
  // after failing from the enterprise network, "they asked to be placed
  // directly on the operations network").
  net::Host& rogue = bench::add_rogue_host(spire_sys, "redteam", 0xBAD,
                                           net::IpAddress::make(10, 2, 0, 66));
  attack::Attacker attacker(sim, rogue);

  // --- attack 1: port scanning ---------------------------------------------
  // "Reached the host" means probes got past the firewall: they land on
  // unbound ports (dropped_no_handler) instead of the firewall counter.
  net::Host& target = spire_sys.replica_host(0);
  const auto past_firewall_before = target.stats().dropped_no_handler;
  attacker.port_scan(target.ip(1), 8000, 8400, 1 * sim::kMillisecond);
  sim.run_until(sim.now() + 2 * sim::kSecond);
  result.scan_reached_services =
      target.stats().dropped_no_handler > past_firewall_before + 100;

  // --- attack 2: ARP poisoning + MITM blackout -----------------------------
  // Blinding the HMI requires cutting it off from every replica (the
  // overlay reroutes around any single poisoned path), so the attacker
  // poisons the HMI's binding for every replica's external address.
  net::Host& hmi_host = spire_sys.network().host("hmi0");
  for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
    attacker.arp_poison(hmi_host.ip(0), hmi_host.mac(0),
                        spire_sys.replica_host(i).ip(1), 30);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const auto poisoned = hmi_host.arp_lookup(spire_sys.replica_host(0).ip(1));
  result.arp_poison_took = poisoned && *poisoned == rogue.mac(0);

  attacker.start_mitm([](const net::Datagram&) -> std::optional<net::Datagram> {
    return std::nullopt;  // blackhole everything steered to us
  });
  const auto version_before = spire_sys.hmi(0).displayed_version();
  sim.run_until(sim.now() + 5 * sim::kSecond);
  result.mitm_blinded_hmi =
      spire_sys.hmi(0).displayed_version() == version_before;
  attacker.stop_mitm();

  // --- attack 3: IP spoofing into the replication endpoints ----------------
  // Replica 1's addresses toward replica 0's daemon. The attack fails
  // only if defenses account for every spoofed frame: the switch's
  // static MAC binding, replica 0's host firewall, or Spines
  // authentication at ext0. A frame none of them counted got past
  // every defense to ext0's message parser.
  const net::Switch& ops_switch = spire_sys.external_switch();
  const net::Host& spoof_target = spire_sys.replica_host(0);
  const spines::Daemon& ext0 = spire_sys.external_overlay().daemon("ext0");
  const std::uint64_t dropped_before =
      ops_switch.stats().frames_dropped_binding +
      spoof_target.stats().dropped_firewall_in + ext0.stats().dropped_auth;
  attacker.ip_spoof_burst(spire_sys.replica_host(1).ip(1),
                          spire_sys.replica_host(1).mac(1),
                          spoof_target.ip(1), spoof_target.mac(1),
                          scada::kExternalDaemonPort, kSpoofFrames);
  sim.run_until(sim.now() + 2 * sim::kSecond);
  result.spoof_dropped = ops_switch.stats().frames_dropped_binding +
                         spoof_target.stats().dropped_firewall_in +
                         ext0.stats().dropped_auth - dropped_before;
  result.spoof_disrupted = result.spoof_dropped < kSpoofFrames;

  // --- attack 4: denial-of-service bursts ----------------------------------
  const auto hmi_version_pre_dos = spire_sys.hmi(0).displayed_version();
  for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
    attacker.dos_flood(spire_sys.replica_host(i).ip(1),
                       spire_sys.replica_host(i).mac(1),
                       scada::kExternalDaemonPort, 2000, 2 * sim::kSecond,
                       1200);
  }
  sim.run_until(sim.now() + 4 * sim::kSecond);
  result.dos_disrupted =
      spire_sys.hmi(0).displayed_version() <= hmi_version_pre_dos;

  // --- end-to-end health check ----------------------------------------------
  result.system_operational_after =
      bench::command_round_trip(sim, spire_sys, 1, 4 * sim::kSecond) &&
      bench::command_round_trip(sim, spire_sys, 2, 4 * sim::kSecond);

  ids.flush_until(sim.now());
  result.alerts = ids.alerts();
  return result;
}

std::string alert_summary(const std::vector<mana::Alert>& alerts) {
  std::map<std::string, int> counts;
  for (const auto& a : alerts) counts[std::string(mana::to_string(a.kind))]++;
  if (counts.empty()) return "none";
  std::string out;
  for (const auto& [kind, count] : counts) {
    if (!out.empty()) out += ", ";
    out += kind + " x" + std::to_string(count);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E3", "Fig. 3 + §IV-B",
      "With the §III-B hardening, none of the red team's network attacks "
      "(scanning, ARP poisoning, spoofing, DoS) disrupt Spire; MANA "
      "surfaces the activity");

  const CampaignResult open = run_campaign(/*hardened=*/false);
  const CampaignResult hard = run_campaign(/*hardened=*/true);

  auto verdict = [](bool attack_worked) {
    return attack_worked ? std::string("ATTACK SUCCEEDED")
                         : std::string("defeated");
  };

  bench::Table table({"attack", "unhardened Spire", "hardened Spire (SIII-B)",
                      "paper (hardened)"});
  table.row({"port scan of replica hosts", verdict(open.scan_reached_services),
             verdict(hard.scan_reached_services), "defeated (firewalls)"});
  table.row({"ARP poisoning of HMI host", verdict(open.arp_poison_took),
             verdict(hard.arp_poison_took), "defeated (static ARP/ports)"});
  table.row({"MITM blackout of HMI updates", verdict(open.mitm_blinded_hmi),
             verdict(hard.mitm_blinded_hmi), "defeated"});
  auto spoof_verdict = [&](const CampaignResult& r) {
    return verdict(r.spoof_disrupted) + " (" +
           std::to_string(r.spoof_dropped) + "/" +
           std::to_string(kSpoofFrames) + " dropped)";
  };
  table.row({"IP spoofing at replication endpoints", spoof_verdict(open),
             spoof_verdict(hard), "defeated (Spines auth)"});
  table.row({"DoS bursts at replicas", verdict(open.dos_disrupted),
             verdict(hard.dos_disrupted), "defeated"});
  table.row({"SCADA operational after campaign",
             open.system_operational_after ? "yes" : "NO",
             hard.system_operational_after ? "yes" : "NO", "yes"});
  table.print();

  std::printf("\nMANA alerts (unhardened run): %s\n",
              alert_summary(open.alerts).c_str());
  std::printf("MANA alerts (hardened run):   %s\n",
              alert_summary(hard.alerts).c_str());

  const bool shape =
      hard.system_operational_after && !hard.scan_reached_services &&
      !hard.arp_poison_took && !hard.mitm_blinded_hmi &&
      !hard.spoof_disrupted && !hard.dos_disrupted && !hard.alerts.empty() &&
      (open.arp_poison_took || open.scan_reached_services);
  std::printf("\nShape check vs paper: hardened Spire defeats the entire "
              "campaign while the unhardened system is attackable, and MANA "
              "raises alerts: %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
