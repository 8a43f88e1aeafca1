// Experiment E10 — §III-B / §VI-A ablation: every hardening measure is
// individually load-bearing.
//
// The paper's central technical lesson is that the low-level setup —
// firewalls, static ARP, static switch bindings, link encryption,
// patched minimal OS — is a precondition for the intrusion-tolerant
// protocols to matter at all. This bench disables each measure in
// isolation (all others stay on) and replays the specific attack that
// measure guards against, confirming the attack succeeds exactly when
// its counter-defense is off.
#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<scada::SpireDeployment> deployment;
  net::Host* rogue = nullptr;
  std::unique_ptr<attack::Attacker> attacker;

  explicit Rig(const scada::HardeningOptions& hardening) {
    scada::DeploymentConfig config;
    config.f = 1;
    config.k = 0;
    config.hardening = hardening;
    config.scenario = scada::ScenarioSpec::red_team();
    config.cycler_interval = 1 * sim::kSecond;
    deployment = std::make_unique<scada::SpireDeployment>(sim, config);
    deployment->start();
    sim.run_until(3 * sim::kSecond);

    rogue = &bench::add_rogue_host(*deployment, "redteam", 0xBAD,
                                   net::IpAddress::make(10, 2, 0, 66));
    attacker = std::make_unique<attack::Attacker>(sim, *rogue);
  }
};

// Each probe returns true if the attack SUCCEEDED.

bool probe_port_scan(Rig& rig) {
  net::Host& target = rig.deployment->replica_host(0);
  const auto before = target.stats().dropped_no_handler;
  rig.attacker->port_scan(target.ip(1), 8000, 8200, 1 * sim::kMillisecond);
  rig.sim.run_until(rig.sim.now() + 2 * sim::kSecond);
  return target.stats().dropped_no_handler > before + 50;
}

bool probe_arp_poison(Rig& rig) {
  net::Host& victim = rig.deployment->network().host("hmi0");
  const net::IpAddress impersonated = rig.deployment->replica_host(0).ip(1);
  rig.attacker->arp_poison(victim.ip(0), victim.mac(0), impersonated, 10);
  rig.sim.run_until(rig.sim.now() + 2 * sim::kSecond);
  const auto binding = victim.arp_lookup(impersonated);
  return binding && *binding == rig.rogue->mac(0);
}

bool probe_mac_spoof(Rig& rig) {
  // Success means the switch forwarded frames carrying a forged source
  // MAC (i.e. the static binding did NOT shed them).
  net::Host& target = rig.deployment->replica_host(0);
  const auto dropped_before =
      rig.deployment->external_switch().stats().frames_dropped_binding;
  rig.attacker->ip_spoof_burst(rig.deployment->replica_host(1).ip(1),
                               rig.deployment->replica_host(1).mac(1),
                               target.ip(1), target.mac(1),
                               scada::kExternalDaemonPort, 50);
  rig.sim.run_until(rig.sim.now() + 1 * sim::kSecond);
  const auto dropped =
      rig.deployment->external_switch().stats().frames_dropped_binding -
      dropped_before;
  return dropped < 50;
}

bool probe_member_impersonation(Rig& rig) {
  // Kill the real ext1 daemon, then keep its link "alive" at ext0 with
  // forged plaintext hellos — only possible without sealed links.
  rig.deployment->external_overlay().daemon("ext1").stop();
  spines::Daemon& observer = rig.deployment->external_overlay().daemon("ext0");
  for (int i = 0; i < 60; ++i) {
    rig.sim.schedule_after(
        static_cast<sim::Time>(i) * 100 * sim::kMillisecond, [&rig, i] {
          spines::InnerPacket inner;
          inner.type = spines::PacketType::kHello;
          inner.link_seq = 1000000 + static_cast<std::uint64_t>(i);
          inner.body = spines::HelloBody{static_cast<std::uint64_t>(i)}.encode();
          spines::LinkEnvelope env;
          env.sender = "ext1";
          env.sealed = false;
          env.body = inner.encode();
          // Forged at every layer the firewall checks: the datagram
          // claims ext1's address and daemon port, so only the link
          // sealing can tell it is not ext1. (The frame carries the
          // attacker's own MAC, so static port bindings pass it.)
          net::Datagram dgram;
          dgram.src_ip = rig.deployment->replica_host(1).ip(1);
          dgram.src_port = scada::kExternalDaemonPort;
          dgram.dst_ip = rig.deployment->replica_host(0).ip(1);
          dgram.dst_port = scada::kExternalDaemonPort;
          dgram.payload = env.encode();
          rig.rogue->send_frame_raw(
              0, net::EthernetFrame{rig.rogue->mac(0),
                                    rig.deployment->replica_host(0).mac(1),
                                    net::EtherType::kIpv4, dgram.encode()});
        });
  }
  rig.sim.run_until(rig.sim.now() + 6 * sim::kSecond);
  // With sealed links the forged hellos are rejected and the link goes
  // down; without them the dead daemon still looks alive.
  return observer.link_up("ext1");
}

bool probe_os_escalation(Rig& rig) {
  return attack::try_privilege_escalation(rig.deployment->replica_host(1)) !=
         attack::EscalationResult::kFailedPatchedOs;
}

struct Case {
  const char* defense;
  const char* attack;
  void (*disable)(scada::HardeningOptions&);
  bool (*probe)(Rig&);
};

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E10", "§III-B / §VI-A",
      "Each low-level hardening measure is individually necessary: the "
      "attack it guards against succeeds if (and only if) that one "
      "measure is disabled");

  const std::vector<Case> cases = {
      {"default-deny firewalls", "port scan reaches services",
       [](scada::HardeningOptions& h) { h.firewalls = false; },
       probe_port_scan},
      {"static ARP tables", "ARP cache poisoning",
       [](scada::HardeningOptions& h) { h.static_arp = false; },
       probe_arp_poison},
      {"static MAC<->port bindings", "source-MAC spoofed frames",
       [](scada::HardeningOptions& h) { h.static_switch_ports = false; },
       probe_mac_spoof},
      {"sealed Spines links", "member impersonation (forged hellos)",
       [](scada::HardeningOptions& h) { h.sealed_links = false; },
       probe_member_impersonation},
      {"hardened OS profile", "known-CVE root escalation",
       [](scada::HardeningOptions& h) { h.hardened_os = false; },
       probe_os_escalation},
  };

  bench::Table table({"defense under test", "attack replayed",
                      "all defenses ON", "this defense OFF", "load-bearing"});
  bool shape = true;
  for (const auto& c : cases) {
    Rig with_defense{scada::HardeningOptions::all_on()};
    const bool succeeded_with = c.probe(with_defense);

    scada::HardeningOptions weakened = scada::HardeningOptions::all_on();
    c.disable(weakened);
    Rig without_defense{weakened};
    const bool succeeded_without = c.probe(without_defense);

    const bool load_bearing = !succeeded_with && succeeded_without;
    shape &= load_bearing;
    table.row({c.defense, c.attack,
               succeeded_with ? "ATTACK SUCCEEDS" : "defeated",
               succeeded_without ? "ATTACK SUCCEEDS" : "defeated",
               load_bearing ? "yes" : "NO"});
  }
  table.print();

  std::printf("\nShape check vs paper (SVI-A: 'all of these steps need to "
              "be taken before sophisticated intrusion-tolerant protocols "
              "can even have a chance to be relevant'): %s\n",
              shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
