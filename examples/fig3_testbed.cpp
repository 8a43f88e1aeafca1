// Full Fig. 3 testbed: the complete red-team experiment environment in
// one simulation — an enterprise network (historian, business PCs)
// behind a firewall router, TWO parallel operations networks
// (commercial SCADA on one, hardened Spire on the other), and three
// independent MANA instances tapping the three networks, exactly as
// PNNL set it up. The red team then follows the paper's script:
// compromise the commercial system from the enterprise network, fail
// against Spire, move onto Spire's operations network, fail again.
#include <cstdio>

#include "attack/attacker.hpp"
#include "mana/mana.hpp"
#include "plc/plc.hpp"
#include "scada/commercial.hpp"
#include "scada/deployment.hpp"
#include "scada/historian.hpp"

using namespace spire;

namespace {
void banner(const char* text) { std::printf("\n=== %s ===\n", text); }

void print_board(const char* label, const mana::Mana& ids) {
  std::printf("%s: %zu alerts", label, ids.alerts().size());
  std::map<std::string, int> kinds;
  for (const auto& alert : ids.alerts()) {
    kinds[std::string(mana::to_string(alert.kind))]++;
  }
  for (const auto& [kind, count] : kinds) {
    std::printf("  %s x%d", kind.c_str(), count);
  }
  std::printf("\n");
}
}  // namespace

int main() {
  util::LogConfig::instance().level = util::LogLevel::kOff;
  std::printf("== Fig. 3 testbed: red-team experiment environment ==\n");

  sim::Simulator sim;

  // --- Spire operations network (left of Fig. 3) ---------------------------
  scada::DeploymentConfig spire_config;
  spire_config.f = 1;
  spire_config.k = 0;  // four replicas, as in April 2017
  spire_config.scenario = scada::ScenarioSpec::red_team();
  spire_config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment spire_sys(sim, spire_config);

  // --- commercial operations network (right of Fig. 3) ---------------------
  net::Network commercial_net(sim);
  net::Switch& commercial_ops = commercial_net.add_switch({.name = "comm-ops"});
  auto add_commercial = [&](const char* name, std::uint8_t last,
                            std::uint32_t mac) -> net::Host& {
    net::Host& h = commercial_net.add_host(name);
    h.add_interface(net::MacAddress::from_id(mac),
                    net::IpAddress::make(10, 20, 0, last), 24);
    commercial_net.connect(h, 0, commercial_ops);
    return h;
  };
  net::Host& cm1 = add_commercial("comm-master1", 2, 0x201);
  net::Host& cm2 = add_commercial("comm-master2", 3, 0x202);
  net::Host& chmi_host = add_commercial("comm-hmi", 4, 0x203);
  net::Host& cplc_host = add_commercial("comm-plc", 10, 0x204);
  plc::Plc commercial_plc(sim, cplc_host, "plc-phys",
                          std::vector<plc::BreakerSpec>(
                              7, {"B", false, 40 * sim::kMillisecond}),
                          sim::Rng(21));
  scada::CommercialMasterConfig mc;
  mc.devices = {{"plc-phys", cplc_host.ip(), 7}};
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

  // --- enterprise network + firewall router --------------------------------
  net::Network enterprise_net(sim);
  net::Switch& enterprise = enterprise_net.add_switch({.name = "enterprise"});
  net::Host& historian_host = enterprise_net.add_host("pi-server");
  historian_host.add_interface(net::MacAddress::from_id(0x301),
                               net::IpAddress::make(10, 10, 0, 5), 24);
  enterprise_net.connect(historian_host, 0, enterprise);
  scada::Historian historian;

  net::Host& firewall = enterprise_net.add_host("fw-router");
  firewall.add_interface(net::MacAddress::from_id(0x302),
                         net::IpAddress::make(10, 10, 0, 1), 24);
  firewall.add_interface(net::MacAddress::from_id(0x303),
                         net::IpAddress::make(10, 20, 0, 1), 24);
  enterprise_net.connect(firewall, 0, enterprise);
  commercial_net.connect(firewall, 1, commercial_ops);
  firewall.enable_forwarding(/*default_deny=*/true);
  // Legit pinhole: the historian polls the commercial master. The
  // forgotten one: a vendor maintenance path to the PLC.
  firewall.add_forward_allow({historian_host.ip(), cm1.ip(),
                              scada::kCommercialMasterPort});
  firewall.add_forward_allow({cm1.ip(), historian_host.ip(), std::nullopt});
  firewall.add_forward_allow({std::nullopt, cplc_host.ip(), plc::kMaintenancePort});
  firewall.add_forward_allow({cplc_host.ip(), std::nullopt, std::nullopt});
  cplc_host.set_gateway(firewall.ip(1));
  cm1.set_gateway(firewall.ip(1));
  historian_host.set_gateway(firewall.ip(0));

  // The PI server's actual job: poll the commercial master across the
  // firewall once a second and archive the topology (this is also the
  // enterprise network's baseline traffic for MANA 1).
  std::uint64_t pi_txn = 0;
  scada::TopologyState pi_last_state;
  historian_host.bind_udp(7100, [&](const net::Datagram& d) {
    const auto msg = scada::CommMsg::decode(d.payload);
    if (!msg || msg->type != scada::CommMsgType::kStateReply) return;
    try {
      const auto state = scada::TopologyState::deserialize(msg->blob);
      state.for_each([&](const std::string& device,
                         const scada::DeviceState& dev_state) {
        const auto previous = pi_last_state.device(device);
        for (std::size_t b = 0; b < dev_state.breakers.size(); ++b) {
          const bool was = previous && b < previous->breakers.size() &&
                           previous->breakers[b];
          if (was != dev_state.breakers[b]) {
            historian.record_transition(device, b, dev_state.breakers[b],
                                        sim.now());
          }
        }
      });
      pi_last_state = state;
    } catch (const util::SerializationError&) {
    }
  });
  std::function<void()> pi_poll = [&] {
    scada::CommMsg req;
    req.type = scada::CommMsgType::kGetState;
    req.a = ++pi_txn;
    historian_host.send_udp(cm1.ip(), scada::kCommercialMasterPort, 7100,
                            req.encode());
    sim.schedule_after(1 * sim::kSecond, pi_poll);
  };

  // --- MANA 1-3 (out-of-band taps, Fig. 3) ----------------------------------
  const auto mana_on = [](const char* network) {
    mana::ManaConfig cfg;
    cfg.network = network;
    return cfg;
  };
  mana::Mana mana1(mana_on("enterprise"));
  mana::Mana mana2(mana_on("operations-spire"));
  mana::Mana mana3(mana_on("operations-commercial"));

  // --- bring everything up, then train the models ---------------------------
  spire_sys.start();
  cprimary.start();
  cbackup.start();
  chmi.start();
  sim.run_until(5 * sim::kSecond);

  enterprise.add_tap("enterprise",
                     [&](const net::PcapRecord& r) { mana1.on_capture(r); });
  spire_sys.external_switch().add_tap(
      "operations-spire", [&](const net::PcapRecord& r) { mana2.on_capture(r); });
  commercial_ops.add_tap("operations-commercial", [&](const net::PcapRecord& r) {
    mana3.on_capture(r);
  });
  pi_poll();  // the PI server starts collecting

  std::printf("setup week: both SCADA systems running; capturing baselines\n");
  sim.run_until(sim.now() + 30 * sim::kSecond);
  for (mana::Mana* m : {&mana1, &mana2, &mana3}) {
    m->flush_until(sim.now());
    m->finish_training();
  }
  std::printf("MANA 1-3 trained (enterprise / spire-ops / commercial-ops)\n");

  // --- stage 1: red team on the enterprise network ---------------------------
  banner("red team enters the enterprise network");
  net::Host& ent_attacker = enterprise_net.add_host("redteam-ent");
  ent_attacker.add_interface(net::MacAddress::from_id(0xBAD),
                             net::IpAddress::make(10, 10, 0, 66), 24);
  enterprise_net.connect(ent_attacker, 0, enterprise);
  ent_attacker.set_gateway(firewall.ip(0));
  attack::Attacker ent_rt(sim, ent_attacker);

  std::optional<plc::PlcConfig> dumped;
  ent_rt.plc_dump_config(cplc_host.ip(),
                         [&](std::optional<plc::PlcConfig> c) { dumped = c; });
  sim.run_until(sim.now() + 2 * sim::kSecond);
  std::printf("commercial PLC config dump through the firewall: %s\n",
              dumped ? "SUCCEEDED (password exfiltrated)" : "failed");
  if (dumped) {
    plc::PlcConfig evil = *dumped;
    evil.direct_control_enabled = true;
    ent_rt.plc_upload_config(cplc_host.ip(), dumped->maintenance_password, evil);
    sim.run_until(sim.now() + 1 * sim::kSecond);
    ent_rt.plc_direct_write(cplc_host.ip(), 2, true);
    sim.run_until(sim.now() + 1 * sim::kSecond);
    std::printf("commercial PLC under red-team control: %s\n",
                commercial_plc.config_tampered() &&
                        commercial_plc.breakers().closed(2)
                    ? "YES (breaker closed by attacker)"
                    : "no");
  }
  std::printf("visibility into Spire from the enterprise network: none "
              "(no route; the red team asked to move on-net)\n");

  // --- stage 2: red team directly on Spire's operations network --------------
  banner("red team placed on the Spire operations network");
  net::Host& ops_attacker = spire_sys.network().add_host("redteam-spire");
  ops_attacker.add_interface(net::MacAddress::from_id(0xBAE),
                             net::IpAddress::make(10, 2, 0, 66), 24);
  spire_sys.network().connect(ops_attacker, 0, spire_sys.external_switch());
  attack::Attacker spire_rt(sim, ops_attacker);

  const auto version_before = spire_sys.hmi(0).displayed_version();
  spire_rt.port_scan(spire_sys.replica_host(0).ip(1), 8000, 8300,
                     2 * sim::kMillisecond);
  for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
    spire_rt.arp_poison(spire_sys.network().host("hmi0").ip(0),
                        spire_sys.network().host("hmi0").mac(0),
                        spire_sys.replica_host(i).ip(1), 10);
    spire_rt.dos_flood(spire_sys.replica_host(i).ip(1),
                       spire_sys.replica_host(i).mac(1), 8200, 1500,
                       2 * sim::kSecond, 1000);
  }
  sim.run_until(sim.now() + 8 * sim::kSecond);
  const bool spire_fine =
      spire_sys.hmi(0).displayed_version() > version_before;
  std::printf("port scan + ARP poisoning + DoS against Spire: %s\n",
              spire_fine ? "ALL DEFEATED (HMI kept updating)" : "disruptive");

  spire_sys.hmi(0).command_breaker("plc-phys", 5, true);
  sim.run_until(sim.now() + 3 * sim::kSecond);
  std::printf("supervisory control during the attack: %s\n",
              spire_sys.plc("plc-phys").breakers().closed(5)
                  ? "working (breaker closed on command)"
                  : "BROKEN");

  // --- situational awareness -------------------------------------------------
  banner("MANA situational-awareness boards");
  for (mana::Mana* m : {&mana1, &mana2, &mana3}) m->flush_until(sim.now());
  print_board("MANA 1 (enterprise)        ", mana1);
  print_board("MANA 2 (spire operations)  ", mana2);
  print_board("MANA 3 (commercial ops)    ", mana3);
  std::printf("historian archived %llu samples from the commercial feed\n",
              static_cast<unsigned long long>(historian.total_samples()));

  const bool ok = dumped && commercial_plc.config_tampered() && spire_fine &&
                  spire_sys.plc("plc-phys").breakers().closed(5) &&
                  !mana2.alerts().empty();
  std::printf("\n%s\n", ok ? "FIG. 3 TESTBED DEMO OK: commercial fell, Spire "
                             "held, operators saw everything"
                           : "FIG. 3 TESTBED DEMO FAILED");
  return ok ? 0 : 1;
}
