// Experiment R1 — §IV as a regression suite: the scripted red-team
// scenarios, each with a pass/fail SLO, gated in CI against
// bench/baseline_redteam.json.
//
// Where bench_fig3_redteam narrates the 2017 campaign (hardened vs
// open ablation), this bench is the adversary-v2 counterpart: every
// scripted Byzantine replica behaviour from prime::ByzantineConfig and
// every network-stage attack runs against the defended system, and the
// defense must win within a bounded reaction time with zero missed
// updates. Scenarios:
//
//   1. leader_delay_under  — malicious leader delays Pre-Prepares just
//      under the turnaround bound; must NOT be evicted (no false
//      suspicion) and update latency stays bounded.
//   2. leader_delay_over   — delay past the bound; followers measure
//      the leader's turnaround and rotate the view within the SLO.
//   3. equivocation        — leader sends divergent matrices to
//      different peers; f+1 conflicting Prepares convict it.
//   4. withheld_aru        — leader excludes a victim's PO-ARU rows;
//      peer-row aging converts starvation into suspicion.
//   5. merkle_forger       — a non-leader replica corrupts its Merkle
//      inclusion proofs; receivers drop the noise with no suspects and
//      no view change (unauthenticated bytes are unattributable).
//   6. mid_soak_compromise — diversity-keyed exploit lands on the
//      running deployment's leader mid-soak and installs the delay
//      attack; the full stack (Spines + Prime + SCADA) must rotate and
//      keep the HMI truthful.
//   7. network_stage       — ARP poisoning + firewall probing from a
//      rogue operations-network host (attack::Attacker) against the
//      hardened deployment; nothing lands and SCADA round-trips work.
//   8. frontdoor_dos       — telemetry flood at a fleet front door;
//      rate limiting sheds the flood while zero critical deltas drop.
//
// Run:  bench_red_team [--json=PATH] [--baseline=PATH]
#include <cstring>

#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "prime/loopback_cluster.hpp"
#include "scada/deployment.hpp"
#include "scada/front_door.hpp"

using namespace spire;

namespace {

struct ScenarioResult {
  std::string name;
  bool pass = false;
  double reaction_ms = 0;  ///< 0 when the scenario has no reaction SLO
  std::uint64_t missed_updates = 0;
  std::string detail;
};

struct Gates {
  double delay_under_p99_ms_max = 1000.0;
  double leader_delay_over_reaction_ms_max = 2500.0;
  double equivocation_reaction_ms_max = 2000.0;
  double withheld_aru_reaction_ms_max = 3500.0;
  double compromise_reaction_ms_max = 4000.0;
  double missed_updates_max = 0.0;
};

// ---- Prime-level harness (mirrors tests/prime_byzantine_test.cpp) ----------

/// Keyring "redteam-bench", one client, started and settled for 500 ms
/// on creation.
struct ByzCluster : prime::LoopbackCluster<> {
  explicit ByzCluster(sim::Simulator& sim)
      : LoopbackCluster(sim, make_config(), bench_keyring(), 20170401) {
    start();
    sim.run_until(500 * sim::kMillisecond);
  }

  static prime::PrimeConfig make_config() {
    prime::PrimeConfig config;
    config.f = 1;
    config.k = 0;
    config.client_identities = {"client/a"};
    return config;
  }

  static const crypto::Keyring& bench_keyring() {
    static const crypto::Keyring keyring("redteam-bench");
    return keyring;
  }

  void submit() { client_seq = LoopbackCluster::submit("client/a", "op"); }

  std::uint64_t client_seq = 0;  ///< of the last submitted update

  /// Runs until every app executed `target` updates, or the deadline.
  bool executed_everywhere(std::size_t target, sim::Time deadline) {
    while (sim().now() < deadline) {
      bool all = true;
      for (const auto& app : apps()) all = all && app->log().size() >= target;
      if (all) return true;
      run_for(10 * sim::kMillisecond);
    }
    for (const auto& app : apps()) {
      if (app->log().size() < target) return false;
    }
    return true;
  }

  /// Reaction time: submits traffic every 100 ms until any correct
  /// (non-0) replica reaches `view` or the deadline passes. Returns
  /// elapsed ms, or a negative value on timeout.
  double react_until_view(std::uint64_t view, sim::Time deadline) {
    const sim::Time t0 = sim().now();
    sim::Time next_submit = t0;
    while (sim().now() < deadline) {
      if (sim().now() >= next_submit) {
        submit();
        next_submit = sim().now() + 100 * sim::kMillisecond;
      }
      for (prime::ReplicaId i = 1; i < n(); ++i) {
        if (replica(i).view() >= view) {
          return static_cast<double>(sim().now() - t0) / 1000.0;
        }
      }
      run_for(10 * sim::kMillisecond);
    }
    return -1.0;
  }
};

// ---- scenarios -------------------------------------------------------------

ScenarioResult run_leader_delay_under(const Gates& gates) {
  ScenarioResult r;
  r.name = "leader_delay_under";
  sim::Simulator sim;
  ByzCluster cluster(sim);
  prime::ByzantineConfig byz;
  byz.preprepare_delay = 500 * sim::kMillisecond;
  byz.reorder_preprepares = true;
  cluster.replica(0).set_byzantine(byz);
  sim.run_until(sim.now() + 200 * sim::kMillisecond);

  std::vector<double> latency_ms;
  for (int i = 0; i < 10; ++i) {
    const sim::Time t0 = sim.now();
    cluster.submit();
    if (!cluster.executed_everywhere(cluster.client_seq,
                                     t0 + 5 * sim::kSecond)) {
      r.missed_updates++;
      continue;
    }
    latency_ms.push_back(static_cast<double>(sim.now() - t0) / 1000.0);
  }
  const bench::LatencyStats stats = bench::latency_stats(latency_ms);
  bool view_stable = true;
  for (const auto& replica : cluster.replicas()) {
    view_stable = view_stable && replica->view() == 0;
  }
  r.reaction_ms = stats.p99_ms;
  r.pass = view_stable && r.missed_updates == 0 &&
           stats.p99_ms <= gates.delay_under_p99_ms_max &&
           !cluster.first_divergence();
  r.detail = view_stable ? "no false suspicion, p99 " + bench::fmt_ms(stats.p99_ms)
                         : "FALSELY EVICTED under-threshold leader";
  return r;
}

ScenarioResult run_leader_delay_over(const Gates& gates) {
  ScenarioResult r;
  r.name = "leader_delay_over";
  sim::Simulator sim;
  ByzCluster cluster(sim);
  prime::ByzantineConfig byz;
  byz.preprepare_delay = 1200 * sim::kMillisecond;
  cluster.replica(0).set_byzantine(byz);
  r.reaction_ms =
      cluster.react_until_view(1, sim.now() + 10 * sim::kSecond);

  const std::size_t before = cluster.client_seq;
  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  if (!cluster.executed_everywhere(before + 5,
                                   sim.now() + 5 * sim::kSecond)) {
    r.missed_updates = 1;
  }
  r.pass = r.reaction_ms >= 0 &&
           r.reaction_ms <= gates.leader_delay_over_reaction_ms_max &&
           r.missed_updates == 0 && !cluster.first_divergence();
  r.detail = r.reaction_ms < 0 ? "leader never evicted"
                               : "evicted via turnaround measurement";
  return r;
}

ScenarioResult run_equivocation(const Gates& gates) {
  ScenarioResult r;
  r.name = "equivocation";
  sim::Simulator sim;
  ByzCluster cluster(sim);
  prime::ByzantineConfig byz;
  byz.equivocate = true;
  cluster.replica(0).set_byzantine(byz);
  r.reaction_ms =
      cluster.react_until_view(1, sim.now() + 10 * sim::kSecond);

  std::uint64_t convictions = 0;
  for (prime::ReplicaId i = 1; i < cluster.config().n(); ++i) {
    convictions += cluster.replica(i).stats().equivocation_suspects;
  }
  const std::size_t before = cluster.client_seq;
  for (int i = 0; i < 5; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 100 * sim::kMillisecond);
  }
  if (!cluster.executed_everywhere(before + 5,
                                   sim.now() + 5 * sim::kSecond)) {
    r.missed_updates = 1;
  }
  r.pass = r.reaction_ms >= 0 &&
           r.reaction_ms <= gates.equivocation_reaction_ms_max &&
           convictions >= 1 && r.missed_updates == 0 &&
           !cluster.first_divergence();
  r.detail = convictions >= 1
                 ? "convicted by f+1 divergent Prepares"
                 : "view changed without an equivocation conviction";
  return r;
}

ScenarioResult run_withheld_aru(const Gates& gates) {
  ScenarioResult r;
  r.name = "withheld_aru";
  sim::Simulator sim;
  ByzCluster cluster(sim);
  prime::ByzantineConfig byz;
  byz.withhold_victims = {2};
  cluster.replica(0).set_byzantine(byz);
  r.reaction_ms =
      cluster.react_until_view(1, sim.now() + 10 * sim::kSecond);

  std::uint64_t aged = 0;
  for (prime::ReplicaId i = 1; i < cluster.config().n(); ++i) {
    aged += cluster.replica(i).stats().withheld_aru_suspects;
  }
  r.pass = r.reaction_ms >= 0 &&
           r.reaction_ms <= gates.withheld_aru_reaction_ms_max && aged >= 1 &&
           !cluster.first_divergence();
  r.detail = aged >= 1 ? "withheld rows aged into suspicion"
                       : "view changed without a withheld-ARU suspect";
  return r;
}

ScenarioResult run_merkle_forger(const Gates&) {
  ScenarioResult r;
  r.name = "merkle_forger";
  sim::Simulator sim;
  ByzCluster cluster(sim);

  // Forge from a non-leader replica that preorders for the client (the
  // only replicas that seal multi-unit, forgeable batches).
  std::vector<std::uint64_t> po_before;
  for (const auto& replica : cluster.replicas()) {
    po_before.push_back(replica->stats().po_requests_sent);
  }
  for (int i = 0; i < 3; ++i) {
    cluster.submit();
    sim.run_until(sim.now() + 60 * sim::kMillisecond);
  }
  prime::ReplicaId forger = 0;
  for (prime::ReplicaId i = 1; i < cluster.config().n(); ++i) {
    if (cluster.replica(i).stats().po_requests_sent > po_before[i]) {
      forger = i;
    }
  }
  if (forger == 0) {
    r.detail = "no non-leader preordering replica found";
    return r;
  }
  prime::ByzantineConfig byz;
  byz.forge_merkle_rate = 1.0;
  cluster.replica(forger).set_byzantine(byz);
  for (int i = 0; i < 10; ++i) {
    // Land each submit just before a 20 ms boundary so the PO-Request
    // flush shares a (batch-signed) send with the PO-ARU tick.
    const sim::Time grid = 20 * sim::kMillisecond;
    const sim::Time next = ((sim.now() / grid) + 2) * grid;
    sim.run_until(next - 6 * sim::kMillisecond);
    cluster.submit();
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);

  const std::uint64_t forged =
      cluster.replica(forger).stats().byz_merkle_paths_forged;
  std::uint64_t dropped = 0;
  bool view_stable = true;
  for (prime::ReplicaId i = 0; i < cluster.config().n(); ++i) {
    if (i != forger) {
      dropped += cluster.replica(i).stats().dropped_bad_signature;
    }
    view_stable = view_stable && cluster.replica(i).view() == 0;
  }
  for (const auto& app : cluster.apps()) {
    if (app->log().size() < cluster.client_seq) r.missed_updates++;
  }
  r.pass = forged >= 1 && dropped >= 1 && view_stable &&
           r.missed_updates == 0 && !cluster.first_divergence();
  r.detail = "forged " + std::to_string(forged) + ", dropped " +
             std::to_string(dropped) +
             (view_stable ? ", no suspects" : ", SPURIOUS VIEW CHANGE");
  return r;
}

ScenarioResult run_mid_soak_compromise(const Gates& gates) {
  ScenarioResult r;
  r.name = "mid_soak_compromise";
  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 500 * sim::kMillisecond;
  scada::SpireDeployment spire_sys(sim, config);
  spire_sys.start();
  sim.run_until(3 * sim::kSecond);  // soak before the compromise

  // Diversity check first: an exploit crafted against the leader's
  // MultiCompiler variant must not land on a different variant.
  const attack::Exploit exploit =
      attack::craft_exploit_against(spire_sys.replica(0));
  prime::ByzantineConfig equivocator;
  equivocator.equivocate = true;
  const bool cross_variant_blocked =
      spire_sys.replica(1).variant() == spire_sys.replica(0).variant() ||
      !attack::apply_exploit(spire_sys.replica(1), exploit, equivocator);
  prime::ByzantineConfig delay_attack;
  delay_attack.preprepare_delay = 1200 * sim::kMillisecond;
  const bool landed =
      attack::apply_exploit(spire_sys.replica(0), exploit, delay_attack);

  const sim::Time t0 = sim.now();
  const sim::Time deadline = t0 + 15 * sim::kSecond;
  while (sim.now() < deadline && spire_sys.replica(1).view() == 0) {
    sim.run_until(sim.now() + 20 * sim::kMillisecond);
  }
  const bool rotated = spire_sys.replica(1).view() >= 1;
  r.reaction_ms = rotated ? static_cast<double>(sim.now() - t0) / 1000.0 : -1.0;

  // Post-rotation soak; the HMI display must converge back onto the
  // field-device ground truth (zero missed updates).
  sim.run_until(sim.now() + 4 * sim::kSecond);
  const auto version_before = spire_sys.hmi(0).displayed_version();
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const bool hmi_live = spire_sys.hmi(0).displayed_version() > version_before;
  for (const auto& device : config.scenario.devices) {
    const auto& plc = spire_sys.plc(device.name);
    for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
      if (spire_sys.hmi(0).display().breaker(device.name, b) !=
          plc.breakers().closed(b)) {
        r.missed_updates++;
      }
    }
  }
  r.pass = landed && cross_variant_blocked && rotated &&
           r.reaction_ms <= gates.compromise_reaction_ms_max && hmi_live &&
           r.missed_updates == 0;
  r.detail = !landed          ? "exploit failed against its own variant"
             : !cross_variant_blocked ? "exploit landed across variants"
             : !rotated       ? "compromised leader never evicted"
             : !hmi_live      ? "HMI stalled after rotation"
                              : "leader evicted, HMI truthful";
  return r;
}

ScenarioResult run_network_stage(const Gates&) {
  ScenarioResult r;
  r.name = "network_stage";
  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.scenario = scada::ScenarioSpec::red_team();
  scada::SpireDeployment spire_sys(sim, config);
  spire_sys.start();
  sim.run_until(2 * sim::kSecond);

  net::Host& rogue = bench::add_rogue_host(spire_sys, "redteam", 0xBAD,
                                           net::IpAddress::make(10, 2, 0, 66));
  attack::Attacker attacker(sim, rogue);

  // Firewall probing: scans must die at the default-deny firewall, not
  // reach unbound ports behind it.
  net::Host& target = spire_sys.replica_host(0);
  const auto past_firewall_before = target.stats().dropped_no_handler;
  attacker.port_scan(target.ip(1), 8000, 8400, 1 * sim::kMillisecond);
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const bool scan_blocked =
      target.stats().dropped_no_handler <= past_firewall_before + 100;

  // ARP poisoning of the HMI's bindings for every replica address.
  net::Host& hmi_host = spire_sys.network().host("hmi0");
  for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
    attacker.arp_poison(hmi_host.ip(0), hmi_host.mac(0),
                        spire_sys.replica_host(i).ip(1), 30);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);
  const auto poisoned = hmi_host.arp_lookup(spire_sys.replica_host(0).ip(1));
  const bool arp_blocked = !poisoned || *poisoned != rogue.mac(0);

  const bool operational =
      bench::command_round_trip(sim, spire_sys, 1, 4 * sim::kSecond);
  r.pass = scan_blocked && arp_blocked && operational;
  r.detail = std::string(scan_blocked ? "scan blocked" : "SCAN REACHED") +
             ", " + (arp_blocked ? "ARP held" : "ARP POISONED") + ", " +
             (operational ? "round-trip ok" : "ROUND TRIP FAILED");
  if (!operational) r.missed_updates = 1;
  return r;
}

ScenarioResult run_frontdoor_dos(const Gates&) {
  ScenarioResult r;
  r.name = "frontdoor_dos";
  scada::FrontDoorConfig config;
  config.rate_per_sec = 100;
  config.burst = 50;
  config.queue_capacity = 256;
  config.shed_watermark = 192;
  scada::FrontDoor door(config);

  // 2 simulated seconds of a 5000/s telemetry flood with a 50 Hz
  // critical stream riding through; the queue drains 64 deltas per
  // 10 ms flush window.
  std::size_t queued = 0;
  std::uint64_t criticals_sent = 0, criticals_admitted = 0;
  const sim::Time duration = 2 * sim::kSecond;
  const sim::Time step = duration / 10000;
  sim::Time last_drain = 0;
  for (sim::Time now = 0; now < duration; now += step) {
    if (now - last_drain >= 10 * sim::kMillisecond) {
      queued -= std::min<std::size_t>(queued, 64);
      last_drain = now;
    }
    if (door.admit(scada::DeltaPriority::kTelemetry, now, queued)) ++queued;
    if ((now / step) % 100 == 0) {
      ++criticals_sent;
      if (door.admit(scada::DeltaPriority::kCritical, now, queued)) {
        ++queued;
        ++criticals_admitted;
      }
    }
  }
  const scada::FrontDoorStats& stats = door.stats();
  const std::uint64_t flood_shed = stats.shed_rate + stats.shed_overload;
  r.missed_updates = criticals_sent - criticals_admitted + stats.shed_critical;
  r.pass = stats.shed_critical == 0 && criticals_admitted == criticals_sent &&
           flood_shed > 8000;
  r.detail = "shed " + std::to_string(flood_shed) + "/10000 telemetry, " +
             std::to_string(criticals_admitted) + "/" +
             std::to_string(criticals_sent) + " criticals admitted";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "R1", "SSIV red-team campaign (adversary v2)",
      "Every scripted Byzantine-replica and network-stage attack is "
      "detected and survived within its reaction SLO with zero missed "
      "updates");

  Gates gates;
  const std::string baseline_path =
      bench::flag_value(argc, argv, "--baseline", "");
  if (!baseline_path.empty()) {
    const auto baseline = bench::Baseline::load(baseline_path);
    if (!baseline) return 1;
    gates.delay_under_p99_ms_max = (*baseline)["delay_under_p99_ms_max"];
    gates.leader_delay_over_reaction_ms_max =
        (*baseline)["leader_delay_over_reaction_ms_max"];
    gates.equivocation_reaction_ms_max =
        (*baseline)["equivocation_reaction_ms_max"];
    gates.withheld_aru_reaction_ms_max =
        (*baseline)["withheld_aru_reaction_ms_max"];
    gates.compromise_reaction_ms_max =
        (*baseline)["compromise_reaction_ms_max"];
    gates.missed_updates_max = (*baseline)["missed_updates_max"];
  }

  std::vector<ScenarioResult> results;
  results.push_back(run_leader_delay_under(gates));
  std::printf("[1/8] %s done\n", results.back().name.c_str());
  results.push_back(run_leader_delay_over(gates));
  std::printf("[2/8] %s done\n", results.back().name.c_str());
  results.push_back(run_equivocation(gates));
  std::printf("[3/8] %s done\n", results.back().name.c_str());
  results.push_back(run_withheld_aru(gates));
  std::printf("[4/8] %s done\n", results.back().name.c_str());
  results.push_back(run_merkle_forger(gates));
  std::printf("[5/8] %s done\n", results.back().name.c_str());
  results.push_back(run_mid_soak_compromise(gates));
  std::printf("[6/8] %s done\n", results.back().name.c_str());
  results.push_back(run_network_stage(gates));
  std::printf("[7/8] %s done\n", results.back().name.c_str());
  results.push_back(run_frontdoor_dos(gates));
  std::printf("[8/8] %s done\n\n", results.back().name.c_str());

  bench::Table table({"scenario", "verdict", "reaction", "missed", "detail"});
  bool all_pass = true;
  std::uint64_t total_missed = 0;
  for (const auto& r : results) {
    table.row({r.name, r.pass ? "PASS" : "FAIL",
               r.reaction_ms > 0 ? bench::fmt_ms(r.reaction_ms) : "-",
               std::to_string(r.missed_updates), r.detail});
    all_pass = all_pass && r.pass;
    total_missed += r.missed_updates;
  }
  table.print();
  std::printf("\nmissed updates across campaign: %llu (max %g)\n",
              static_cast<unsigned long long>(total_missed),
              gates.missed_updates_max);
  const bool missed_ok =
      static_cast<double>(total_missed) <= gates.missed_updates_max;
  all_pass = all_pass && missed_ok;

  const std::string json_path = bench::flag_value(argc, argv, "--json", "");
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out != nullptr) {
      std::fprintf(out,
                   "{\"bench\":\"bench_red_team\",\"schema_version\":1,"
                   "\"scenarios\":{");
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::fprintf(out,
                     "%s\"%s\":{\"pass\":%s,\"reaction_ms\":%.1f,"
                     "\"missed_updates\":%llu}",
                     i == 0 ? "" : ",", r.name.c_str(),
                     r.pass ? "true" : "false", r.reaction_ms,
                     static_cast<unsigned long long>(r.missed_updates));
      }
      std::fprintf(out, "},\"all_pass\":%s}\n", all_pass ? "true" : "false");
      std::fclose(out);
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  std::printf("\nred-team campaign: %s\n",
              all_pass ? "ALL SCENARIOS PASS" : "SCENARIO FAILURES");
  return all_pass ? 0 : 1;
}
