// Experiment E4 — §IV-B excursion (staged replica compromise).
//
// On the third day the red team was given gradually increasing control
// of one SCADA-master replica plus Spire's source code — a situation
// Spire is built to withstand. This bench replays each escalation
// stage against a running four-replica deployment and verifies after
// every stage that the system still executes supervisory commands
// end-to-end:
//   1. user level: stop the Spines daemons on the replica;
//   2. run a rebuilt/modified Spines daemon that lacks the deployment's
//      keys (the red team's recompiled open-source daemon);
//   3. attempt root escalation via known kernel (dirtycow-class) and
//      sshd exploits — blocked by the patched, minimal OS;
//   4. patch the legitimate binary to fire its legacy debug code path —
//      accepted as a valid member, but the path is disabled in
//      intrusion-tolerant mode;
//   5. full root + source: run the replica Byzantine (delay attack) and
//      blast traffic from its daemon as a trusted overlay member.
// Paper result: no stage disrupted Spire's operation.
#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "scada/deployment.hpp"

using namespace spire;

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E4", "§IV-B excursion",
      "Gradually escalating compromise of one replica — user level, "
      "modified daemons, OS exploits, patched binaries, full root — never "
      "disrupts Spire's operation");

  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment spire_sys(sim, config);
  spire_sys.start();
  sim.run_until(3 * sim::kSecond);

  bench::Table table(
      {"stage", "red-team action", "effect on Spire", "paper outcome"});
  bool all_ok = true;
  const std::uint32_t victim = 1;  // compromised replica

  // --- stage 1: stop the Spines daemons -------------------------------------
  spire_sys.internal_overlay().daemon("int1").stop();
  spire_sys.external_overlay().daemon("ext1").stop();
  sim.run_until(sim.now() + 2 * sim::kSecond);
  bool ok = bench::command_round_trip(sim, spire_sys, 0, 6 * sim::kSecond);
  all_ok &= ok;
  table.row({"1", "stop Spines daemons on replica 1 (user level)",
             ok ? "none: system tolerates loss of any one replica"
                : "DISRUPTED",
             "no effect"});

  // --- stage 2: restart a modified daemon without the deployment keys -------
  spire_sys.internal_overlay().daemon("int1").corrupt_link_keys();
  spire_sys.internal_overlay().daemon("int1").start();
  spire_sys.external_overlay().daemon("ext1").start();
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const bool rejected =
      !spire_sys.internal_overlay().daemon("int0").link_up("int1");
  ok = bench::command_round_trip(sim, spire_sys, 1, 6 * sim::kSecond) &&
       rejected;
  all_ok &= ok;
  table.row({"2", "run rebuilt open-source daemon lacking the new keys",
             ok ? "none: encryption keeps the modified daemon out"
                : "DISRUPTED",
             "no effect (new encryption rejected it)"});
  // The legitimate binary is reinstalled for the next stages.
  spire_sys.internal_overlay().daemon("int1").restore_link_keys();
  sim.run_until(sim.now() + 2 * sim::kSecond);

  // --- stage 3: known-CVE privilege escalation -------------------------------
  const auto escalation =
      attack::try_privilege_escalation(spire_sys.replica_host(victim));
  // Contrast: the same exploits against a default desktop install.
  net::Host& soft_host = spire_sys.network().add_host("contrast-ubuntu");
  soft_host.os() = net::OsProfile::default_ubuntu();
  const auto contrast = attack::try_privilege_escalation(soft_host);
  ok = escalation == attack::EscalationResult::kFailedPatchedOs &&
       contrast != attack::EscalationResult::kFailedPatchedOs;
  all_ok &= ok;
  table.row({"3", "dirtycow + sshd exploits for root",
             std::string("replica: ") +
                 std::string(attack::to_string(escalation)) +
                 "; default ubuntu: " +
                 std::string(attack::to_string(contrast)),
             "failed (latest minimal CentOS)"});

  // --- stage 4: patched legitimate binary fires the legacy debug path --------
  {
    // The patched binary IS a valid member: craft the debug opcode and
    // seal it with the real link key, exactly as the member would.
    const crypto::Keyring& keyring = spire_sys.keyring();
    crypto::SymmetricKey base = keyring.link_key("int1", "int0");
    const util::Bytes label = util::to_bytes("dir:int1");
    crypto::SymmetricKey dir_key{};
    const crypto::Digest d = crypto::hmac_sha256(base, label);
    std::copy(d.begin(), d.end(), dir_key.begin());
    crypto::SecureChannel channel(dir_key);
    spines::LinkEnvelope env;
    env.sender = "int1";
    env.sealed = true;
    const util::Bytes debug_payload = {spines::kDebugPacketType, 0x01, 0x02};
    env.body = channel.seal(debug_payload);
    spire_sys.replica_host(victim).send_udp(
        spire_sys.replica_host(0).ip(0), scada::kInternalDaemonPort,
        scada::kInternalDaemonPort, env.encode());
    sim.run_until(sim.now() + 1 * sim::kSecond);
  }
  const auto& int0_stats = spire_sys.internal_overlay().daemon("int0").stats();
  ok = int0_stats.debug_packets_ignored >= 1 &&
       int0_stats.debug_packets_honoured == 0 &&
       bench::command_round_trip(sim, spire_sys, 2, 6 * sim::kSecond);
  all_ok &= ok;
  table.row({"4", "patched binary triggers legacy debug exploit path",
             ok ? "none: code path disabled in intrusion-tolerant mode"
                : "DISRUPTED",
             "no effect (exploit in disabled code)"});

  // --- stage 5: root + source: Byzantine replica + insider traffic blast -----
  spire_sys.replica(victim).set_behavior(prime::ReplicaBehavior::kStaleLeader);
  // Insider blast: the compromised replica's own daemon floods the
  // overlay as a trusted member, trying to break fairness.
  for (int i = 0; i < 3000; ++i) {
    spire_sys.internal_overlay().daemon("int1").session_send(
        9999, spines::kBroadcastDst, 9999, util::Bytes(1200, 0xEE),
        spines::Priority::kHigh);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);
  ok = bench::command_round_trip(sim, spire_sys, 3, 8 * sim::kSecond);
  all_ok &= ok;
  table.row({"5", "root + source: Byzantine replica, insider traffic blast",
             ok ? "none: fairness + BFT absorb the insider" : "DISRUPTED",
             "no effect (could not disrupt operation)"});

  table.print();
  std::printf(
      "\nShape check vs paper: Spire operates correctly through every "
      "excursion stage: %s\n",
      all_ok ? "HOLDS" : "VIOLATED");
  return all_ok ? 0 : 1;
}
