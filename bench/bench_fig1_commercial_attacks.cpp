// Experiment E1 — Fig. 1 + §IV-B (commercial system under attack).
//
// Reconstructs the commercial side of the red-team experiment: an
// enterprise network separated from the operations network by a
// firewall router, a primary/backup commercial SCADA master pair, an
// HMI, and the PLC attached directly to the operations switch. The
// bench replays the red team's campaign:
//   1. pivot from the enterprise network through an allowed path,
//   2. dump the PLC's configuration (unauthenticated maintenance port),
//   3. upload a modified configuration and take direct breaker control,
//   4. ARP-poison the HMI<->master path and feed the operator lies,
//   5. suppress real updates (denial of service on the poll channel).
// Paper result: every stage succeeded within hours.
#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "net/network.hpp"
#include "plc/plc.hpp"
#include "scada/commercial.hpp"

using namespace spire;

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E1", "Fig. 1 + §IV-B",
      "NIST-best-practice commercial SCADA falls to network attacks: PLC "
      "takeover from the enterprise network, then HMI deception via MITM");

  sim::Simulator sim;
  net::Network network(sim);

  // --- topology: Fig. 3, right side ---------------------------------------
  net::Switch& enterprise = network.add_switch({.name = "enterprise"});
  net::Switch& operations = network.add_switch({.name = "operations"});

  auto add = [&](net::Switch& sw, const char* name, net::IpAddress ip,
                 std::uint32_t mac) -> net::Host& {
    net::Host& h = network.add_host(name);
    h.add_interface(net::MacAddress::from_id(mac), ip, 24);
    network.connect(h, 0, sw);
    return h;
  };

  net::Host& historian = add(enterprise, "historian",
                             net::IpAddress::make(10, 10, 0, 5), 1);
  net::Host& corp_pc = add(enterprise, "corp-pc",
                           net::IpAddress::make(10, 10, 0, 20), 2);
  (void)corp_pc;

  net::Host& firewall = network.add_host("fw-router");
  firewall.add_interface(net::MacAddress::from_id(3),
                         net::IpAddress::make(10, 10, 0, 1), 24);
  firewall.add_interface(net::MacAddress::from_id(4),
                         net::IpAddress::make(10, 20, 0, 1), 24);
  network.connect(firewall, 0, enterprise);
  network.connect(firewall, 1, operations);
  firewall.enable_forwarding(/*default_deny=*/true);

  net::Host& master1 = add(operations, "scada-master1",
                           net::IpAddress::make(10, 20, 0, 2), 5);
  net::Host& master2 = add(operations, "scada-master2",
                           net::IpAddress::make(10, 20, 0, 3), 6);
  net::Host& hmi_host = add(operations, "hmi", net::IpAddress::make(10, 20, 0, 4), 7);
  net::Host& plc_host = add(operations, "plc", net::IpAddress::make(10, 20, 0, 10), 8);
  master1.set_gateway(firewall.ip(1));
  plc_host.set_gateway(firewall.ip(1));

  // The historian pulls data from the master — the legitimate pinhole.
  firewall.add_forward_allow({historian.ip(), master1.ip(), scada::kCommercialMasterPort});
  // The misconfiguration the red team found: a vendor maintenance path
  // into the operations network was never closed.
  firewall.add_forward_allow({std::nullopt, plc_host.ip(), plc::kMaintenancePort});
  firewall.add_forward_allow({plc_host.ip(), std::nullopt, std::nullopt});

  plc::Plc device(sim, plc_host, "plc-phys",
                  std::vector<plc::BreakerSpec>(
                      7, plc::BreakerSpec{"B", false, 40 * sim::kMillisecond}),
                  sim::Rng(11));

  scada::CommercialMasterConfig mc;
  mc.devices = {{"plc-phys", plc_host.ip(), 7}};
  mc.is_primary = true;
  mc.peer_ip = master2.ip();
  scada::CommercialMaster primary(sim, master1, mc);
  mc.is_primary = false;
  mc.peer_ip = master1.ip();
  scada::CommercialMaster backup(sim, master2, mc);
  scada::CommercialHmiConfig hc;
  hc.primary_ip = master1.ip();
  hc.backup_ip = master2.ip();
  scada::CommercialHmi hmi(sim, hmi_host, hc);
  primary.start();
  backup.start();
  hmi.start();

  sim.run_until(5 * sim::kSecond);  // steady state

  bench::Report report(
      "fig1_commercial_attacks",
      "every stage of the red-team campaign succeeds against the commercial "
      "system, as in §IV-B");

  // --- stage 1+2: enterprise-network pivot, PLC memory dump ----------------
  net::Host& ent_attacker = add(enterprise, "redteam-ent",
                                net::IpAddress::make(10, 10, 0, 66), 66);
  ent_attacker.set_gateway(firewall.ip(0));
  attack::Attacker enterprise_attacker(sim, ent_attacker);

  std::optional<plc::PlcConfig> dumped;
  enterprise_attacker.plc_dump_config(
      plc_host.ip(), [&](std::optional<plc::PlcConfig> c) { dumped = c; });
  sim.run_until(sim.now() + 2 * sim::kSecond);
  report.require("1 enterprise pivot + PLC memory dump exfiltrates config",
                 dumped.has_value());

  // --- stage 3: config upload + direct breaker control ---------------------
  bool plc_controlled = false;
  if (dumped) {
    plc::PlcConfig evil = *dumped;
    evil.direct_control_enabled = true;
    evil.firmware += "-implant";
    enterprise_attacker.plc_upload_config(plc_host.ip(),
                                          dumped->maintenance_password, evil);
    sim.run_until(sim.now() + 1 * sim::kSecond);
    enterprise_attacker.plc_direct_write(plc_host.ip(), 3, true);
    sim.run_until(sim.now() + 1 * sim::kSecond);
    plc_controlled = device.config_tampered() && device.breakers().closed(3);
  }
  report.require("2 modified config upload: attacker closes a breaker",
                 plc_controlled);

  // --- stage 4: on operations network, MITM the HMI ------------------------
  net::Host& ops_attacker = add(operations, "redteam-ops",
                                net::IpAddress::make(10, 20, 0, 66), 67);
  attack::Attacker mitm(sim, ops_attacker);
  // Learn real bindings, then poison both ends.
  ops_attacker.send_udp(master1.ip(), 9, 9, util::to_bytes("resolve"));
  ops_attacker.send_udp(hmi_host.ip(), 9, 9, util::to_bytes("resolve"));
  sim.run_until(sim.now() + 200 * sim::kMillisecond);
  mitm.arp_poison(hmi_host.ip(), hmi_host.mac(), master1.ip(), 20);
  mitm.arp_poison(master1.ip(), master1.mac(), hmi_host.ip(), 20);
  sim.run_until(sim.now() + 1 * sim::kSecond);

  // Ground truth right now: breaker 3 closed. Tamper every state reply
  // so the operator sees a topology with everything open.
  mitm.start_mitm([&](const net::Datagram& d) -> std::optional<net::Datagram> {
    auto msg = scada::CommMsg::decode(d.payload);
    if (msg && msg->type == scada::CommMsgType::kStateReply) {
      scada::TopologyState lie;
      lie.register_device("plc-phys", 7);  // all breakers open
      msg->blob = lie.serialize();
      net::Datagram modified = d;
      modified.payload = msg->encode();
      return modified;
    }
    return d;
  });
  sim.run_until(sim.now() + 5 * sim::kSecond);
  const bool operator_deceived =
      device.breakers().closed(3) &&
      hmi.display().breaker("plc-phys", 3) == false &&
      hmi.stats().replies > 0;
  report.require("3 ARP MITM: HMI shows OPEN while breaker is CLOSED",
                 operator_deceived);

  // --- stage 5: suppress updates entirely ----------------------------------
  const auto timeouts_before = hmi.stats().timeouts;
  mitm.start_mitm([](const net::Datagram& d) -> std::optional<net::Datagram> {
    const auto msg = scada::CommMsg::decode(d.payload);
    if (msg && msg->type == scada::CommMsgType::kStateReply) {
      return std::nullopt;  // drop: operator is blind
    }
    return d;
  });
  sim.run_until(sim.now() + 6 * sim::kSecond);
  report.check("4 MITM drop: HMI poll timeouts, display frozen",
               static_cast<double>(hmi.stats().timeouts - timeouts_before),
               bench::Cmp::kGt, 2);
  return report.finish(argc, argv);
}
