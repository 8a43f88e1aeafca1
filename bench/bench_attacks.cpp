// Experiments E3, E4, E10, R1 and E8 phase 2 — the paper's red-team
// evidence (§III-B, §IV-B) as one table of attack rows.
//
// A row is one attack: the primitive and its parameters, the hardening
// set(s) it runs under with the verdict expected under each, the
// counters that must account for it, the MANA alert kinds that label it
// as ground truth, and optionally the committed bound on its reaction
// time. An experiment is a selection of rows plus one sequencing
// choice: the rows share one rig in order (a campaign) or each row gets
// a fresh one (an ablation or a scenario suite). One runner prints each
// experiment's table and declares every verdict, bound and counter as a
// row of one bench::Report, which gates them and writes the JSON.
//
//   E3   Fig. 3 + §IV-B: the network campaign against an unhardened and
//        a hardened deployment, MANA on the operations network's tap.
//   E4   §IV-B excursion: staged compromise of one replica.
//   E10  §III-B / §VI-A: each hardening measure is load-bearing.
//   R1   §IV adversary v2: scripted Byzantine replicas, a compromised
//        overlay relay, the network stage and a front-door flood, each
//        with a reaction SLO or an inline bound.
//   E8   §II / §III-C: MANA scored against every attack's ground truth.
//
// Run:  bench_attacks [--baseline=PATH] [--json[=PATH]] [--trace-out=PATH]
//
// --baseline defaults to bench/baseline_attacks.json (run from the repo
// root); every bound is read before anything runs, and a missing one
// exits 1. --trace-out writes the obs::Tracer JSONL of the E8 campaign,
// with attack-begin / attack-end / alert markers next to the
// deployment's spans.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "mana/mana.hpp"
#include "mana/scoreboard.hpp"
#include "obs/trace.hpp"
#include "prime/loopback_cluster.hpp"
#include "scada/deployment.hpp"
#include "scada/front_door.hpp"
#include "sim/chaos.hpp"

using namespace spire;
using mana::AlertKind;

namespace {

// ---- the rig ---------------------------------------------------------------

struct RigSpec {
  sim::Time settle = 3 * sim::kSecond;  ///< boot time before MANA or rows
  /// With a training capture, MANA's ring is polled every 100 ms on the
  /// operations network's tap, trained on `train`, then given a `quiet`
  /// phase (the false-positive floor). Rows with alert labels are
  /// scored against them.
  sim::Time train = 0;
  sim::Time quiet = 0;
  int rogues = 1;     ///< red-team hosts on the operations network
  sim::Time gap = 0;  ///< quiet time between consecutive rows
};

constexpr RigSpec kRedTeamRig{};
constexpr RigSpec kCampaignRig{.settle = 0, .train = 30 * sim::kSecond};
/// MANA attaches once the networks are finalized (§IV-A).
constexpr RigSpec kScoredRig{.settle = 5 * sim::kSecond,
                             .train = 60 * sim::kSecond,
                             .quiet = 30 * sim::kSecond,
                             .rogues = 3,
                             .gap = 8 * sim::kSecond};

/// The red team's host (§IV-B: "placed directly on the operations
/// network"), a host from an address block absent in the baseline, and
/// a quiet lurker on the operations subnet: name, MAC id, 10.x.y.z.
constexpr struct {
  const char* name;
  std::uint32_t mac_id;
  std::uint8_t x, y, z;
} kRogues[] = {{"redteam", 0xBAD, 2, 0, 66},
               {"stray", 0x57A4, 9, 9, 5},
               {"lurker", 0xFEED, 2, 0, 77}};

scada::DeploymentConfig red_team_config(const scada::HardeningOptions& h) {
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;  // four replicas, as in the red-team experiment
  config.hardening = h;
  config.scenario = scada::ScenarioSpec::red_team();
  return config;
}

/// The f = 1, k = 0 deployment of the red-team experiment with the red
/// team's hosts on its operations network and, optionally, MANA on that
/// network's tap.
struct Rig {
  Rig(const RigSpec& spec, const scada::HardeningOptions& hardening,
      bool traced)
      : spec(spec),
        tracer(traced
                   ? std::make_unique<obs::ScopedTracer>([this] {
                       return static_cast<std::uint64_t>(sim.now());
                     })
                   : nullptr),
        spire(sim, red_team_config(hardening)) {
    if (spec.train > 0) {
      mana::ManaConfig mana_config;
      mana_config.network = "operations-spire";
      ids = std::make_unique<mana::Mana>(mana_config);
      board.bind_metrics("mana.scoreboard");
      ids->set_alert_sink([this](const mana::Alert& a) { board.on_alert(a); });
    }
    spire.start();
    sim.run_until(spec.settle);
    if (ids) {
      spire.external_switch().add_capture_tap(&ids->tap());
      run_for(spec.train);
      ids->flush_until(sim.now());
      ids->finish_training();
      run_for(spec.quiet);
      ids->flush_until(sim.now());
      quiet_windows = ids->windows_scored();
      quiet_alerts = ids->stats().alerts_total;
    }
    // Attack hosts join after training: their MACs are not in baseline.
    for (int i = 0; i < spec.rogues; ++i) {
      const auto& r = kRogues[i];
      net::Host& host = spire.network().add_host(r.name);
      host.add_interface(net::MacAddress::from_id(r.mac_id),
                         net::IpAddress::make(10, r.x, r.y, r.z), 24);
      spire.network().connect(host, 0, spire.external_switch());
      attackers.push_back(std::make_unique<attack::Attacker>(sim, host));
      attackers.back()->set_label_sink(
          [this](std::string_view, sim::Time start, sim::Time end) {
            on_label(start, end);
          });
    }
  }

  Rig(const Rig&) = delete;  // callbacks hold `this`
  Rig& operator=(const Rig&) = delete;

  /// Advances `duration`, polling MANA's ring every 100 ms.
  void run_for(sim::Time duration) {
    const sim::Time until = sim.now() + duration;
    if (!ids) {
      sim.run_until(until);
      return;
    }
    while (sim.now() < until) {
      sim.run_until(std::min(until, sim.now() + 100 * sim::kMillisecond));
      ids->poll(sim.now());
    }
  }

  // A scored row folds the labels its primitives emit (a MITM emits both
  // "mitm" and its refresh "arp-poison" intervals) into one scoreboard
  // attack named after the row, so recall counts rows, not primitives.
  // Open-ended labels (end == 0) stay open until the primitive
  // re-announces its real end or the row closes.
  void arm(const char* row, std::vector<AlertKind> kinds) {
    scenario = row;
    expected = std::move(kinds);
    open = false;
    last_end = 0;
  }
  void on_label(sim::Time start, sim::Time end) {
    if (scenario == nullptr) return;
    if (!open) board.attack_begin(scenario, start, expected);
    open = true;
    last_end = std::max(last_end, end);
  }
  void close_label() {
    if (open) board.attack_end(scenario, last_end > 0 ? last_end : sim.now());
    open = false;
  }

  /// Commands one breaker of "plc-phys" from HMI 0 and waits up to
  /// `budget` for the full round trip: the PLC switched and the HMI
  /// displays it.
  bool round_trip(std::uint16_t breaker, sim::Time budget) {
    auto& plc = spire.plc("plc-phys");
    const bool want = !plc.breakers().closed(breaker);
    spire.hmi(0).command_breaker("plc-phys", breaker, want);
    const auto done = [&] {
      return plc.breakers().closed(breaker) == want &&
             spire.hmi(0).display().breaker("plc-phys", breaker) == want;
    };
    const sim::Time deadline = sim.now() + budget;
    while (sim.now() < deadline && !done()) run_for(5 * sim::kMillisecond);
    return done();
  }
  attack::Attacker& attacker(std::size_t i = 0) { return *attackers[i]; }
  net::Host& replica(std::uint32_t i) { return spire.replica_host(i); }
  net::Host& hmi_host() { return spire.network().host("hmi0"); }
  std::uint64_t hmi_version() { return spire.hmi(0).displayed_version(); }

  /// One counter summed over the attackers, replica hosts, an overlay's
  /// daemons, or the replicas.
  std::uint64_t sent(std::uint64_t attack::AttackStats::*field) const {
    std::uint64_t sum = 0;
    for (const auto& a : attackers) sum += a->stats().*field;
    return sum;
  }
  std::uint64_t hosts(std::uint64_t net::HostStats::*field) {
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < spire.n(); ++i) {
      sum += replica(i).stats().*field;
    }
    return sum;
  }
  std::uint64_t daemons(spines::Overlay& overlay,
                        std::uint64_t spines::DaemonStats::*field) {
    std::uint64_t sum = 0;
    for (const auto& id : overlay.node_ids()) {
      sum += overlay.daemon(id).stats().*field;
    }
    return sum;
  }
  std::uint64_t replicas(std::uint64_t prime::ReplicaStats::*field) {
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < spire.n(); ++i) {
      sum += spire.replica(i).stats().*field;
    }
    return sum;
  }

  const RigSpec spec;
  sim::Simulator sim;
  std::unique_ptr<obs::ScopedTracer> tracer;
  scada::SpireDeployment spire;
  std::unique_ptr<mana::Mana> ids;
  mana::ScoreBoard board;
  std::vector<std::unique_ptr<attack::Attacker>> attackers;
  std::size_t quiet_windows = 0;
  std::uint64_t quiet_alerts = 0;
  /// What a man in the middle did with the frames it intercepted.
  std::uint64_t mitm_dropped = 0;
  std::uint64_t mitm_relayed = 0;
  std::uint64_t arp_restores = 0;  ///< corrective replies (restore_arp)

  const char* scenario = nullptr;  ///< the scored row being labeled
  std::vector<AlertKind> expected;
  bool open = false;
  sim::Time last_end = 0;
};

/// A Prime group without a network stack, for R1's Byzantine-replica
/// rows: f = 1, keyring "redteam-bench", one client, started and settled
/// for 500 ms on creation. `byzantine` is the replica the row subverts.
struct ByzCluster : prime::LoopbackCluster<> {
  explicit ByzCluster(sim::Simulator& sim)
      : LoopbackCluster(sim, {.client_identities = {"client/a"}}, keyring(),
                        20170401) {
    start();
    sim.run_until(500 * sim::kMillisecond);
  }
  static const crypto::Keyring& keyring() {
    static const crypto::Keyring keyring("redteam-bench");
    return keyring;
  }

  void submit() { client_seq = LoopbackCluster::submit("client/a", "op"); }

  /// Runs until every app executed `target` updates, or the deadline.
  bool executed_everywhere(std::size_t target, sim::Time deadline) {
    const auto all = [&] {
      return std::all_of(apps().begin(), apps().end(), [&](const auto& app) {
        return app->log().size() >= target;
      });
    };
    while (sim().now() < deadline && !all()) run_for(10 * sim::kMillisecond);
    return all();
  }

  [[nodiscard]] bool view_stable() const {
    return std::all_of(replicas().begin(), replicas().end(),
                       [](const auto& r) { return r->view() == 0; });
  }

  /// One counter summed over the correct replicas.
  std::uint64_t correct(std::uint64_t prime::ReplicaStats::*field) const {
    std::uint64_t sum = 0;
    for (prime::ReplicaId i = 0; i < n(); ++i) {
      if (i != byzantine) sum += replica(i).stats().*field;
    }
    return sum;
  }

  std::uint64_t client_seq = 0;  ///< of the last submitted update
  prime::ReplicaId byzantine = 0;
};

// ---- rows ------------------------------------------------------------------

struct Count {
  const char* name;
  std::uint64_t value;
};

/// Named counters read off whatever a row attacks. The runner reads the
/// ledger before and after the row and reports the difference.
struct Ledger {
  std::vector<Count> sent;  ///< what the attacker put on the wire
  std::vector<Count> seen;  ///< where it went: the counters that caught it
};

struct Trial;

/// Names a row's counters. Not default-constructible, so a row that
/// leaves out its accounting does not compile.
struct Accounting {
  using Fn = Ledger (*)(const Trial&);
  Accounting(Fn fn) : read(fn) {}  // NOLINT(google-explicit-constructor)
  Fn read;
};

/// What one row attacks. Deployment rows get `rig`, shared or fresh per
/// the experiment's sequencing; Prime-only and front-door rows build
/// their fixture into `cluster` / `door`, which outlive the row so the
/// runner can read its accounting afterwards.
struct Trial {
  Rig* rig = nullptr;
  sim::Simulator sim{};  ///< a row-built fixture's clock
  std::unique_ptr<ByzCluster> cluster{};
  std::unique_ptr<scada::FrontDoor> door{};
  Accounting accounting;
  Ledger before{};

  /// How far `counter` of the row's ledger moved since the row began. A
  /// name the ledger lacks is a bug in the row: the run stops.
  [[nodiscard]] std::uint64_t moved(std::string_view counter) const {
    const auto now = value(accounting.read(*this), counter);
    if (!now) {
      std::printf("ledger has no counter \"%.*s\"\n",
                  static_cast<int>(counter.size()), counter.data());
      std::exit(2);
    }
    return *now - value(before, counter).value_or(0);
  }
  static std::optional<std::uint64_t> value(const Ledger& ledger,
                                            std::string_view counter) {
    for (const auto* side : {&ledger.sent, &ledger.seen}) {
      for (const Count& c : *side) {
        if (counter == c.name) return c.value;
      }
    }
    return std::nullopt;
  }
};

struct Outcome {
  bool landed = false;               ///< the attack had its effect
  std::optional<double> reaction{};  ///< bounded by the row's SLO; none: timeout
  std::uint64_t missed = 0;          ///< updates the attack cost the system
  std::string detail{};
};

enum class Verdict : bool { kDefeated, kLands };

struct Column {
  scada::HardeningOptions hardening;
  Verdict expect;
};

/// How a cell prints a good and a bad result.
struct Words {
  const char* good;
  const char* bad;
};
constexpr Words kYesNo{"yes", "NO"};

struct Row {
  const char* name;
  const char* attack;  ///< the primitive and its parameters
  std::function<Outcome(Trial&)> run;
  Accounting accounting;
  /// Hardening sets with the verdict expected under each; empty takes
  /// the experiment's. Shared rigs are built from the experiment's.
  std::vector<Column> columns = {};
  std::vector<AlertKind> alerts = {};  ///< MANA ground-truth label
  const char* slo = nullptr;    ///< baseline key bounding Outcome::reaction
  const char* paper = nullptr;  ///< what the paper reports
  bool own_fixture = false;  ///< builds its fixture instead of a fresh rig
  const Words* words = nullptr;  ///< overrides the experiment's cells
};

// ---- accounting ------------------------------------------------------------

using attack::AttackStats;
using net::HostStats;
using spines::DaemonStats;

/// Probes die at a host firewall, on an unbound port or at a daemon's
/// link-envelope parse; poisoning and restoring replies are accepted or
/// ignored by the HMI host's static ARP table; what the poisoning steers
/// to a man in the middle is dropped or relayed.
Ledger probe_ledger(const Trial& t) {
  Rig& r = *t.rig;
  const HostStats& hmi = r.hmi_host().stats();
  return {{{"probes_sent", r.sent(&AttackStats::probes_sent)},
           {"arp_poisons_sent", r.sent(&AttackStats::arp_poisons_sent)},
           {"arp_restores_sent", r.arp_restores},
           {"mitm_intercepted", r.sent(&AttackStats::mitm_intercepted)}},
          {{"dropped_firewall_in", r.hosts(&HostStats::dropped_firewall_in)},
           {"dropped_no_handler", r.hosts(&HostStats::dropped_no_handler)},
           {"dropped_malformed",
            r.daemons(r.spire.internal_overlay(),
                      &DaemonStats::dropped_malformed) +
                r.daemons(r.spire.external_overlay(),
                          &DaemonStats::dropped_malformed)},
           {"arp_replies_accepted", hmi.arp_replies_accepted},
           {"arp_replies_ignored_static", hmi.arp_replies_ignored_static},
           {"mitm_dropped", r.mitm_dropped},
           {"mitm_relayed", r.mitm_relayed}}};
}

/// Where a forged or flooding frame can be counted on its way to a
/// daemon's parser: the switch's egress queue and static MAC binding,
/// the host firewall, Spines link authentication, and the daemon's
/// link-envelope parse.
Ledger frame_ledger(const Trial& t) {
  Rig& r = *t.rig;
  const net::SwitchStats& sw = r.spire.external_switch().stats();
  return {{{"spoofed_frames_sent", r.sent(&AttackStats::spoofed_frames_sent)},
           {"dos_frames_sent", r.sent(&AttackStats::dos_frames_sent)}},
          {{"frames_dropped_queue", sw.frames_dropped_queue},
           {"frames_dropped_binding", sw.frames_dropped_binding},
           {"dropped_firewall_in", r.hosts(&HostStats::dropped_firewall_in)},
           {"dropped_auth", r.daemons(r.spire.external_overlay(),
                                      &DaemonStats::dropped_auth)},
           {"dropped_malformed", r.daemons(r.spire.external_overlay(),
                                           &DaemonStats::dropped_malformed)}}};
}

/// What the overlays, replicas and HMI make of a compromised or
/// impersonated member.
Ledger member_ledger(const Trial& t) {
  Rig& r = *t.rig;
  spines::Overlay& in = r.spire.internal_overlay();
  const scada::HmiStats& hmi = r.spire.hmi(0).stats();
  return {{}, {{"int_dropped_auth", r.daemons(in, &DaemonStats::dropped_auth)},
               {"ext_dropped_auth", r.daemons(r.spire.external_overlay(),
                                              &DaemonStats::dropped_auth)},
               {"debug_packets_ignored",
                r.daemons(in, &DaemonStats::debug_packets_ignored)},
               {"debug_packets_honoured",
                r.daemons(in, &DaemonStats::debug_packets_honoured)},
               {"dropped_queue_full",
                r.daemons(in, &DaemonStats::dropped_queue_full)},
               {"view_changes", r.replicas(&prime::ReplicaStats::view_changes)},
               {"commands_issued", hmi.commands_issued},
               {"versions_displayed", hmi.versions_displayed}}};
}

/// What a withholding relay and a lossy internal switch cost the
/// internal overlay, and whether the replicas kept ordering.
Ledger relay_ledger(const Trial& t) {
  Rig& r = *t.rig;
  spines::Overlay& in = r.spire.internal_overlay();
  return {{}, {{"frames_dropped_chaos",
                r.spire.internal_switch().stats().frames_dropped_chaos},
               {"int_dropped_dedup", r.daemons(in, &DaemonStats::dropped_dedup)},
               {"updates_executed",
                r.replicas(&prime::ReplicaStats::updates_executed)},
               {"view_changes", r.replicas(&prime::ReplicaStats::view_changes)},
               {"versions_displayed", r.spire.hmi(0).stats().versions_displayed}}};
}

/// A host-model attempt: nothing crosses the network.
Ledger no_traffic(const Trial&) { return {}; }

/// Suspicions and rejections at the correct replicas, and the subverted
/// replica's forgeries.
Ledger byzantine_ledger(const Trial& t) {
  if (!t.cluster) return {};
  const ByzCluster& c = *t.cluster;
  using S = prime::ReplicaStats;
  return {{},
          {{"turnaround_suspects", c.correct(&S::turnaround_suspects)},
           {"equivocation_suspects", c.correct(&S::equivocation_suspects)},
           {"withheld_aru_suspects", c.correct(&S::withheld_aru_suspects)},
           {"dropped_bad_signature", c.correct(&S::dropped_bad_signature)},
           {"view_changes", c.correct(&S::view_changes)},
           {"byz_merkle_paths_forged",
            c.replica(c.byzantine).stats().byz_merkle_paths_forged}}};
}

Ledger front_door_ledger(const Trial& t) {
  if (!t.door) return {};
  const scada::FrontDoorStats& s = t.door->stats();
  return {{}, {{"admitted", s.admitted},
               {"admitted_critical", s.admitted_critical},
               {"shed_rate", s.shed_rate},
               {"shed_overload", s.shed_overload},
               {"shed_critical", s.shed_critical}}};
}

// ---- attacks on the operations network (E3, E10, R1, E8) -------------------

/// Attacker `who` sweeps UDP ports [first, last] of replica `target`,
/// then the rig runs `duration`. "Reached" means probes got past the
/// firewall to unbound ports (dropped_no_handler).
auto scan(std::size_t who, std::uint32_t target, std::uint16_t first,
          std::uint16_t last, sim::Time pace, sim::Time duration) {
  return [=](Trial& t) -> Outcome {
    t.rig->attacker(who).port_scan(t.rig->replica(target).ip(1), first, last,
                                   pace);
    t.rig->run_for(duration);
    return {.landed = t.moved("dropped_no_handler") > 100};
  };
}
const auto port_scan =
    scan(0, 0, 8000, 8400, 1 * sim::kMillisecond, 2 * sim::kSecond);

/// `count` gratuitous replies `interval` apart telling the HMI host that
/// replica 0's external address (or, with `every`, each replica's) lives
/// at the attacker's MAC.
void poison(Rig& r, bool every, int count, sim::Time interval) {
  net::Host& hmi = r.hmi_host();
  for (std::uint32_t i = 0; i < (every ? r.spire.n() : 1); ++i) {
    r.attacker().arp_poison(hmi.ip(0), hmi.mac(0), r.replica(i).ip(1), count,
                            interval);
  }
}

/// Thirty replies per replica address: blinding the HMI needs it cut off
/// from every replica, since the overlay reroutes around any single
/// poisoned path.
Outcome arp_poison(Trial& t) {
  poison(*t.rig, true, 30, 50 * sim::kMillisecond);
  t.rig->run_for(2 * sim::kSecond);
  const auto binding = t.rig->hmi_host().arp_lookup(t.rig->replica(0).ip(1));
  return {.landed = binding && *binding == t.rig->attacker().host().mac(0)};
}

/// A corrective gratuitous ARP restoring replica 0's true binding at the
/// HMI host after a poisoning row: the claimed sender matches the
/// trained binding, so it re-steers the cache without a new alert.
void restore_arp(Rig& r) {
  net::Host& from = r.attacker().host();
  net::Host& victim = r.hmi_host();
  net::ArpPacket reply;
  reply.op = net::ArpOp::kReply;
  reply.sender_mac = r.replica(0).mac(1);
  reply.sender_ip = r.replica(0).ip(1);
  reply.target_mac = victim.mac(0);
  reply.target_ip = victim.ip(0);
  ++r.arp_restores;
  from.send_frame_raw(0, net::EthernetFrame{from.mac(0), victim.mac(0),
                                            net::EtherType::kArp,
                                            reply.encode()});
}

/// A man in the middle on whatever poisoning steers to the attacker for
/// `duration`: it drops everything (`blackhole`) or relays it. With
/// `refreshes`, it keeps replica 0's binding poisoned every 500 ms, as
/// every real tool must, and restores it afterwards. Lands if the HMI
/// display froze.
auto mitm(bool blackhole, int refreshes, sim::Time duration) {
  return [=](Trial& t) -> Outcome {
    Rig& r = *t.rig;
    r.attacker().start_mitm([&r, blackhole](const net::Datagram& d) {
      ++(blackhole ? r.mitm_dropped : r.mitm_relayed);
      return blackhole ? std::nullopt : std::optional<net::Datagram>(d);
    });
    if (refreshes > 0) poison(r, false, refreshes, 500 * sim::kMillisecond);
    const std::uint64_t version = r.hmi_version();
    r.run_for(duration);
    r.attacker().stop_mitm();
    const bool frozen = r.hmi_version() == version;
    if (refreshes > 0) {
      restore_arp(r);
      r.run_for(1 * sim::kSecond);
    }
    return {.landed = frozen};
  };
}

/// `frames` frames toward replica 0's daemon, forged from replica 1's
/// addresses or from `ip` / `mac`, then `duration`. The attack fails
/// only if the switch binding, the host firewall or Spines
/// authentication counted every frame; one none of them counted reached
/// the daemon's parser.
auto spoof(int frames, sim::Time duration, std::optional<net::IpAddress> ip,
           net::MacAddress mac = {}) {
  return [=](Trial& t) -> Outcome {
    Rig& r = *t.rig;
    r.attacker().ip_spoof_burst(ip.value_or(r.replica(1).ip(1)),
                                ip ? mac : r.replica(1).mac(1),
                                r.replica(0).ip(1), r.replica(0).mac(1),
                                scada::kExternalDaemonPort, frames);
    r.run_for(duration);
    const std::uint64_t dropped = t.moved("frames_dropped_binding") +
                                  t.moved("dropped_firewall_in") +
                                  t.moved("dropped_auth");
    return {.landed = dropped < static_cast<std::uint64_t>(frames),
            .detail = std::to_string(dropped) + "/" + std::to_string(frames) +
                      " dropped"};
  };
}

/// 50 spoofed frames; lands if the switch forwarded any of them.
Outcome mac_spoof(Trial& t) {
  spoof(50, 1 * sim::kSecond, std::nullopt)(t);
  return {.landed = t.moved("frames_dropped_binding") < 50};
}

/// 2000 pps of 1200-byte datagrams at every replica's daemon for 2 s;
/// lands if the HMI displays nothing new for 4 s.
Outcome dos_bursts(Trial& t) {
  Rig& r = *t.rig;
  const std::uint64_t version = r.hmi_version();
  for (std::uint32_t i = 0; i < r.spire.n(); ++i) {
    r.attacker().dos_flood(r.replica(i).ip(1), r.replica(i).mac(1),
                           scada::kExternalDaemonPort, 2000, 2 * sim::kSecond,
                           1200);
  }
  r.run_for(4 * sim::kSecond);
  return {.landed = r.hmi_version() <= version};
}

/// After the campaign: two supervisory commands, HMI to PLC and back.
Outcome scada_down(Trial& t) {
  const bool ok = t.rig->round_trip(1, 4 * sim::kSecond) &&
                  t.rig->round_trip(2, 4 * sim::kSecond);
  return {.landed = !ok};
}

/// Kills the real ext1 daemon, then keeps its link "alive" at ext0 with
/// 60 forged plaintext hellos, 100 ms apart.
Outcome member_impersonation(Trial& t) {
  Rig& r = *t.rig;
  r.spire.external_overlay().daemon("ext1").stop();
  for (int i = 0; i < 60; ++i) {
    r.sim.schedule_after(
        static_cast<sim::Time>(i) * 100 * sim::kMillisecond, [&r, i] {
          const spines::InnerPacket hello{
              spines::PacketType::kHello,
              1000000 + static_cast<std::uint64_t>(i),
              spines::HelloBody{static_cast<std::uint64_t>(i)}.encode()};
          const spines::LinkEnvelope env{"ext1", false, hello.encode()};
          // Forged at every layer the firewall checks: the datagram
          // claims ext1's address and daemon port, so only the link
          // sealing can tell it is not ext1. (The frame carries the
          // attacker's own MAC, so static port bindings pass it.)
          const net::Datagram dgram{r.replica(1).ip(1), r.replica(0).ip(1),
                                    scada::kExternalDaemonPort,
                                    scada::kExternalDaemonPort, 64,
                                    env.encode()};
          net::Host& rogue = r.attacker().host();
          rogue.send_frame_raw(
              0, net::EthernetFrame{rogue.mac(0), r.replica(0).mac(1),
                                    net::EtherType::kIpv4, dgram.encode()});
        });
  }
  r.run_for(6 * sim::kSecond);
  // With sealed links the forged hellos are rejected and the link goes
  // down; without them the dead daemon still looks alive.
  return {.landed = r.spire.external_overlay().daemon("ext0").link_up("ext1")};
}

Outcome os_escalation(Trial& t) {
  return {.landed = attack::try_privilege_escalation(t.rig->replica(1)) !=
                    attack::EscalationResult::kFailedPatchedOs};
}

// ---- staged compromise of replica 1 (E4) -----------------------------------
// Each stage lands if a supervisory command no longer round-trips.

Outcome stop_daemons(Trial& t) {
  Rig& r = *t.rig;
  r.spire.internal_overlay().daemon("int1").stop();
  r.spire.external_overlay().daemon("ext1").stop();
  r.run_for(2 * sim::kSecond);
  return {.landed = !r.round_trip(0, 6 * sim::kSecond),
          .detail = "system tolerates loss of any one replica"};
}

/// The red team's recompiled open-source daemon lacks the deployment's
/// keys; the legitimate binary is reinstalled afterwards.
Outcome keyless_daemon(Trial& t) {
  Rig& r = *t.rig;
  spines::Daemon& int1 = r.spire.internal_overlay().daemon("int1");
  int1.corrupt_link_keys();
  int1.start();
  r.spire.external_overlay().daemon("ext1").start();
  r.run_for(2 * sim::kSecond);
  const bool rejected =
      !r.spire.internal_overlay().daemon("int0").link_up("int1");
  const bool ok = r.round_trip(1, 6 * sim::kSecond) && rejected;
  int1.restore_link_keys();
  r.run_for(2 * sim::kSecond);
  return {.landed = !ok, .detail = "encryption keeps the modified daemon out"};
}

/// Known-CVE root escalation against the replica host, and against a
/// default desktop install for contrast.
Outcome kernel_exploits(Trial& t) {
  Rig& r = *t.rig;
  const auto escalation = attack::try_privilege_escalation(r.replica(1));
  net::Host& soft_host = r.spire.network().add_host("contrast-ubuntu");
  soft_host.os() = net::OsProfile::default_ubuntu();
  const auto contrast = attack::try_privilege_escalation(soft_host);
  return {.landed = escalation != attack::EscalationResult::kFailedPatchedOs ||
                    contrast == attack::EscalationResult::kFailedPatchedOs,
          .detail = "replica: " + std::string(attack::to_string(escalation)) +
                    "; default ubuntu: " +
                    std::string(attack::to_string(contrast))};
}

/// The patched binary IS a valid member: it seals the legacy debug
/// opcode under the real int1 -> int0 direction key.
Outcome debug_path(Trial& t) {
  Rig& r = *t.rig;
  crypto::SecureChannel channel(spines::link_direction_key(
      r.spire.keyring().link_key("int1", "int0"), "int1"));
  const spines::LinkEnvelope env{
      "int1", true,
      channel.seal(util::Bytes{spines::kDebugPacketType, 0x01, 0x02})};
  r.replica(1).send_udp(r.replica(0).ip(0), scada::kInternalDaemonPort,
                        scada::kInternalDaemonPort, env.encode());
  r.run_for(1 * sim::kSecond);
  const bool ok = t.moved("debug_packets_ignored") >= 1 &&
                  t.moved("debug_packets_honoured") == 0 &&
                  r.round_trip(2, 6 * sim::kSecond);
  return {.landed = !ok,
          .detail = "code path disabled in intrusion-tolerant mode"};
}

/// Root + source: replica 1 runs as a stale leader while its daemon
/// floods the overlay as a trusted member.
Outcome insider_blast(Trial& t) {
  Rig& r = *t.rig;
  r.spire.replica(1).set_behavior(prime::ReplicaBehavior::kStaleLeader);
  for (int i = 0; i < 3000; ++i) {
    r.spire.internal_overlay().daemon("int1").session_send(
        9999, spines::kBroadcastDst, 9999, util::Bytes(1200, 0xEE),
        spines::Priority::kHigh);
  }
  r.run_for(3 * sim::kSecond);
  return {.landed = !r.round_trip(3, 8 * sim::kSecond),
          .detail = "fairness + BFT absorb the insider"};
}

// ---- scripted Byzantine replicas and the front door (R1) -------------------

/// A compromised relay: a non-leader replica's internal daemon keeps its
/// links but forwards nothing, while a link degrade drops 5% of the
/// internal switch's frames for the whole row. Every one of ten field
/// transitions must reach the HMI (inline bound: 0 missed) and the
/// replicas must keep ordering.
Outcome withholding_relay(Trial& t) {
  Rig& r = *t.rig;
  std::uint32_t traitor = 0;
  while (r.spire.replica(traitor).is_leader()) ++traitor;
  spines::Daemon& relay =
      r.spire.internal_overlay().daemon("int" + std::to_string(traitor));
  constexpr sim::Time kRowBound = 60 * sim::kSecond;
  sim::ChaosHooks hooks;
  hooks.set_link_quality = [&r](double loss) {
    r.spire.internal_switch().set_chaos(loss);
  };
  sim::ChaosInjector chaos(r.sim, std::move(hooks));
  chaos.add({.kind = sim::ChaosEvent::Kind::kLinkDegrade,
             .at = r.sim.now(),
             .duration = kRowBound,
             .loss = 0.05});
  chaos.arm();
  relay.withhold_relaying(true);

  Outcome o;
  auto& plc = r.spire.plc("plc-phys");
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t breaker = i % plc.breakers().size();
    const bool want = !plc.breakers().closed(breaker);
    r.spire.flip_breaker_at_plc("plc-phys", breaker, want);
    const sim::Time deadline = r.sim.now() + 3 * sim::kSecond;
    while (r.sim.now() < deadline &&
           r.spire.hmi(0).display().breaker("plc-phys", breaker) != want) {
      r.run_for(5 * sim::kMillisecond);
    }
    if (r.spire.hmi(0).display().breaker("plc-phys", breaker) != want) {
      o.missed++;
    }
  }
  relay.withhold_relaying(false);
  chaos.stop();
  const std::uint64_t executed = t.moved("updates_executed");
  o.landed = o.missed > 0 || executed == 0;
  o.detail = "replica " + std::to_string(traitor) + " withheld, " +
             std::to_string(t.moved("frames_dropped_chaos")) +
             " frames lost, " + std::to_string(executed) + " updates ordered";
  return o;
}

/// A malicious leader delays Pre-Prepares 500 ms (under the turnaround
/// bound) and reorders them: it must NOT be evicted, and the p99 of ten
/// updates stays bounded.
Outcome leader_delay_under(Trial& t) {
  ByzCluster& c = *(t.cluster = std::make_unique<ByzCluster>(t.sim));
  prime::ByzantineConfig byz;
  byz.preprepare_delay = 500 * sim::kMillisecond;
  byz.reorder_preprepares = true;
  c.replica(0).set_byzantine(byz);
  c.run_for(200 * sim::kMillisecond);
  Outcome o;
  std::vector<double> latency_ms;
  for (int i = 0; i < 10; ++i) {
    const sim::Time t0 = c.sim().now();
    c.submit();
    if (c.executed_everywhere(c.client_seq, t0 + 5 * sim::kSecond)) {
      latency_ms.push_back(static_cast<double>(c.sim().now() - t0) / 1000.0);
    } else {
      o.missed++;
    }
  }
  // An update that never executed has no latency: the p99 is then a
  // timeout, not the p99 of the updates that did.
  const double p99 = bench::latency_stats(latency_ms).p99_ms;
  if (o.missed == 0) o.reaction = p99;
  o.landed = !c.view_stable() || o.missed > 0 || c.first_divergence();
  o.detail = c.view_stable() ? "no false suspicion, p99 " + bench::fmt_ms(p99)
                             : "FALSELY EVICTED under-threshold leader";
  return o;
}

/// Runs `byz` on the leader, submitting traffic every 100 ms until a
/// correct replica reaches view 1 (the reaction, or none after 10 s), then
/// optionally five follow-up updates 100 ms apart that must execute
/// everywhere within 5 s. `evidence` names the suspicion counter that
/// must convict the leader.
Outcome evicted(Trial& t, const prime::ByzantineConfig& byz,
                const char* evidence, bool follow_up, const char* convicted,
                const char* unconvicted) {
  ByzCluster& c = *(t.cluster = std::make_unique<ByzCluster>(t.sim));
  c.replica(0).set_byzantine(byz);
  const sim::Time t0 = c.sim().now();
  Outcome o;
  for (sim::Time next_submit = t0; c.sim().now() < t0 + 10 * sim::kSecond;
       c.run_for(10 * sim::kMillisecond)) {
    if (c.sim().now() >= next_submit) {
      c.submit();
      next_submit = c.sim().now() + 100 * sim::kMillisecond;
    }
    if (std::any_of(c.replicas().begin() + 1, c.replicas().end(),
                    [](const auto& r) { return r->view() >= 1; })) {
      o.reaction = static_cast<double>(c.sim().now() - t0) / 1000.0;
      break;
    }
  }
  const bool proven = evidence == nullptr || t.moved(evidence) >= 1;
  if (follow_up) {
    const std::size_t before = c.client_seq;
    for (int i = 0; i < 5; ++i) {
      c.submit();
      c.run_for(100 * sim::kMillisecond);
    }
    const sim::Time deadline = c.sim().now() + 5 * sim::kSecond;
    o.missed = c.executed_everywhere(before + 5, deadline) ? 0 : 1;
  }
  o.landed = !o.reaction || !proven || o.missed > 0 || c.first_divergence();
  o.detail = !o.reaction ? "leader never evicted"
             : proven    ? convicted
                         : unconvicted;
  return o;
}

/// Pre-Prepare delay 1200 ms, past the bound: followers measure the
/// leader's turnaround and rotate.
Outcome leader_delay_over(Trial& t) {
  prime::ByzantineConfig byz;
  byz.preprepare_delay = 1200 * sim::kMillisecond;
  return evicted(t, byz, nullptr, true, "evicted via turnaround measurement",
                 "");
}

/// Divergent matrices to different peers; f+1 conflicting Prepares
/// convict the leader.
Outcome equivocation(Trial& t) {
  prime::ByzantineConfig byz;
  byz.equivocate = true;
  return evicted(t, byz, "equivocation_suspects", true,
                 "convicted by f+1 divergent Prepares",
                 "view changed without an equivocation conviction");
}

/// The leader leaves replica 2's PO-ARU rows out of its proposals;
/// peer-row aging turns the starvation into suspicion.
Outcome withheld_aru(Trial& t) {
  prime::ByzantineConfig byz;
  byz.withhold_victims = {2};
  return evicted(t, byz, "withheld_aru_suspects", false,
                 "withheld rows aged into suspicion",
                 "view changed without a withheld-ARU suspect");
}

/// A non-leader replica that preorders for the client (only those seal
/// multi-unit, forgeable batches) corrupts every Merkle inclusion
/// proof: receivers drop the noise with no suspects and no view change,
/// since unauthenticated bytes are unattributable.
Outcome merkle_forger(Trial& t) {
  ByzCluster& c = *(t.cluster = std::make_unique<ByzCluster>(t.sim));
  std::vector<std::uint64_t> po_before;
  for (const auto& replica : c.replicas()) {
    po_before.push_back(replica->stats().po_requests_sent);
  }
  for (int i = 0; i < 3; ++i) {
    c.submit();
    c.run_for(60 * sim::kMillisecond);
  }
  for (prime::ReplicaId i = 1; i < c.n(); ++i) {
    if (c.replica(i).stats().po_requests_sent > po_before[i]) c.byzantine = i;
  }
  if (c.byzantine == 0) {
    return {.landed = true,
            .detail = "no non-leader preordering replica found"};
  }
  prime::ByzantineConfig byz;
  byz.forge_merkle_rate = 1.0;
  c.replica(c.byzantine).set_byzantine(byz);
  for (int i = 0; i < 10; ++i) {
    // Land each submit just before a 20 ms boundary so the PO-Request
    // flush shares a (batch-signed) send with the PO-ARU tick.
    const sim::Time grid = 20 * sim::kMillisecond;
    c.sim().run_until(((c.sim().now() / grid) + 2) * grid -
                      6 * sim::kMillisecond);
    c.submit();
  }
  c.run_for(3 * sim::kSecond);
  Outcome o;
  for (const auto& app : c.apps()) {
    if (app->log().size() < c.client_seq) o.missed++;
  }
  const std::uint64_t forged = t.moved("byz_merkle_paths_forged");
  const std::uint64_t dropped = t.moved("dropped_bad_signature");
  o.landed = forged == 0 || dropped == 0 || !c.view_stable() || o.missed > 0 ||
             c.first_divergence();
  o.detail = "forged " + std::to_string(forged) + ", dropped " +
             std::to_string(dropped) +
             (c.view_stable() ? ", no suspects" : ", SPURIOUS VIEW CHANGE");
  return o;
}

/// A diversity-keyed exploit lands on the running deployment's leader
/// mid-soak and installs the 1200 ms delay attack; the full stack must
/// rotate and keep the HMI truthful.
Outcome mid_soak_compromise(Trial& t) {
  Rig& r = *t.rig;
  // Diversity check first: an exploit crafted against the leader's
  // MultiCompiler variant must not land on a different variant.
  const attack::Exploit exploit =
      attack::craft_exploit_against(r.spire.replica(0));
  prime::ByzantineConfig equivocator;
  equivocator.equivocate = true;
  const bool cross_variant_blocked =
      r.spire.replica(1).variant() == r.spire.replica(0).variant() ||
      !attack::apply_exploit(r.spire.replica(1), exploit, equivocator);
  prime::ByzantineConfig delay_attack;
  delay_attack.preprepare_delay = 1200 * sim::kMillisecond;
  const bool exploited =
      attack::apply_exploit(r.spire.replica(0), exploit, delay_attack);

  const sim::Time t0 = r.sim.now();
  while (r.sim.now() < t0 + 15 * sim::kSecond &&
         r.spire.replica(1).view() == 0) {
    r.run_for(20 * sim::kMillisecond);
  }
  const bool rotated = r.spire.replica(1).view() >= 1;
  Outcome o;
  if (rotated) o.reaction = static_cast<double>(r.sim.now() - t0) / 1000.0;
  // Post-rotation soak; the HMI display must converge back onto the
  // field-device ground truth.
  r.run_for(4 * sim::kSecond);
  const std::uint64_t version = r.hmi_version();
  r.run_for(2 * sim::kSecond);
  const bool hmi_live = r.hmi_version() > version;
  for (const auto& device : r.spire.config().scenario.devices) {
    for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
      if (r.spire.hmi(0).display().breaker(device.name, b) !=
          r.spire.plc(device.name).breakers().closed(b)) {
        o.missed++;
      }
    }
  }
  o.landed = !exploited || !cross_variant_blocked || !rotated || !hmi_live ||
             o.missed > 0;
  o.detail = !exploited               ? "exploit failed against its own variant"
             : !cross_variant_blocked ? "exploit landed across variants"
             : !rotated               ? "compromised leader never evicted"
             : !hmi_live              ? "HMI stalled after rotation"
                                      : "leader evicted, HMI truthful";
  return o;
}

/// E3's port scan and ARP poisoning against the hardened deployment,
/// then a command round trip.
Outcome network_stage(Trial& t) {
  const bool scan_blocked = !port_scan(t).landed;
  const bool arp_held = !arp_poison(t).landed;
  const bool operational = t.rig->round_trip(1, 4 * sim::kSecond);
  return {.landed = !scan_blocked || !arp_held || !operational,
          .missed = operational ? 0u : 1u,
          .detail =
              std::string(scan_blocked ? "scan blocked" : "SCAN REACHED") +
              ", " + (arp_held ? "ARP held" : "ARP POISONED") + ", " +
              (operational ? "round-trip ok" : "ROUND TRIP FAILED")};
}

/// 2 simulated seconds of a 5000/s telemetry flood at a fleet front
/// door with a 50 Hz critical stream riding through; the queue drains
/// 64 deltas per 10 ms flush window.
Outcome frontdoor_dos(Trial& t) {
  scada::FrontDoorConfig config;
  config.rate_per_sec = 100;
  config.burst = 50;
  config.queue_capacity = 256;
  config.shed_watermark = 192;
  scada::FrontDoor& door =
      *(t.door = std::make_unique<scada::FrontDoor>(config));
  std::size_t queued = 0;
  std::uint64_t criticals_sent = 0;
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
      if (door.admit(scada::DeltaPriority::kCritical, now, queued)) ++queued;
    }
  }
  const std::uint64_t shed = t.moved("shed_rate") + t.moved("shed_overload");
  const std::uint64_t shed_critical = t.moved("shed_critical");
  const std::uint64_t criticals_admitted = t.moved("admitted_critical");
  return {.landed = shed_critical > 0 || criticals_admitted != criticals_sent ||
                    shed <= 8000,
          .missed = criticals_sent - criticals_admitted + shed_critical,
          .detail = "shed " + std::to_string(shed) + "/10000 telemetry, " +
                    std::to_string(criticals_admitted) + "/" +
                    std::to_string(criticals_sent) + " criticals admitted"};
}

// ---- MANA's scored campaign (E8) -------------------------------------------
// A scored row's verdict is MANA's: the runner reads it off the
// scoreboard once the campaign is over.

/// Fifteen replies steal replica 0's binding at the HMI host; a
/// corrective announce restores it.
Outcome poison_once(Trial& t) {
  poison(*t.rig, false, 15, 50 * sim::kMillisecond);
  t.rig->run_for(5 * sim::kSecond);
  restore_arp(*t.rig);
  t.rig->run_for(1 * sim::kSecond);
  return {};
}

/// Attacker `who` floods replica 0's daemon at `pps` for `length`, then
/// the rig runs `duration`.
auto flood(std::size_t who, std::uint32_t pps, sim::Time length,
           std::size_t bytes, sim::Time duration) {
  return [=](Trial& t) -> Outcome {
    Rig& r = *t.rig;
    r.attacker(who).dos_flood(r.replica(0).ip(1), r.replica(0).mac(1),
                              scada::kExternalDaemonPort, pps, length, bytes);
    r.run_for(duration);
    return {};
  };
}

// ---- the table -------------------------------------------------------------

struct Experiment {
  const char* id;
  const char* artifact;
  const char* claim;
  /// Rows share one rig of this spec per column, in order; nullptr gives
  /// each row a fresh rig (or its own fixture).
  const RigSpec* shared;
  std::vector<const char*> headers;  ///< row label, then one per column
  std::vector<Column> columns;       ///< for rows that name none
  Words cells;                       ///< defeated / landed
  std::vector<Row> rows;
  const char* unit = "ms";           ///< of the rows' reaction times
  const char* missed_key = nullptr;  ///< baseline bound on missed updates
};

const scada::HardeningOptions kAllOn = scada::HardeningOptions::all_on();

/// E10: defeated with every measure on, lands with `measure` alone off.
std::vector<Column> without(bool scada::HardeningOptions::*measure) {
  scada::HardeningOptions weakened = kAllOn;
  weakened.*measure = false;
  return {{kAllOn, Verdict::kDefeated}, {weakened, Verdict::kLands}};
}

std::vector<Experiment> experiments() {
  using H = scada::HardeningOptions;
  using K = AlertKind;
  const std::vector<Column> hardened = {{kAllOn, Verdict::kDefeated}};
  return {
      {.id = "E3",
       .artifact = "Fig. 3 + §IV-B",
       .claim = "With the §III-B hardening, none of the red team's network "
                "attacks (scanning, ARP poisoning, spoofing, DoS) disrupt "
                "Spire; MANA surfaces the activity",
       .shared = &kCampaignRig,
       .headers = {"attack", "unhardened Spire", "hardened Spire (SIII-B)"},
       .columns = {{H::all_off(), Verdict::kLands},
                   {kAllOn, Verdict::kDefeated}},
       .cells = {"defeated", "ATTACK SUCCEEDED"},
       .rows = {
           {"port scan of replica hosts", "UDP sweep 8000-8400 @ 1 ms",
            port_scan, probe_ledger, {}, {}, nullptr, "defeated (firewalls)"},
           {"ARP poisoning of HMI host",
            "30 gratuitous replies per replica address", arp_poison,
            probe_ledger, {}, {}, nullptr, "defeated (static ARP/ports)"},
           {"MITM blackout of HMI updates",
            "blackhole all intercepted traffic, 5 s",
            mitm(true, 0, 5 * sim::kSecond),
            probe_ledger, {}, {}, nullptr, "defeated"},
           {"IP spoofing at replication endpoints",
            "200 frames as replica 1 to replica 0's daemon",
            spoof(200, 2 * sim::kSecond, std::nullopt),
            frame_ledger, {}, {}, nullptr, "defeated (Spines auth)"},
           {"DoS bursts at replicas", "2000 pps x 1200 B at every daemon, 2 s",
            dos_bursts, frame_ledger, {}, {}, nullptr, "defeated"},
           {"SCADA operational after campaign",
            "two breaker-command round trips", scada_down, member_ledger, {},
            {}, nullptr, "yes", false, &kYesNo},
       }},
      {.id = "E4",
       .artifact = "§IV-B excursion",
       .claim = "Gradually escalating compromise of one replica — user "
                "level, modified daemons, OS exploits, patched binaries, "
                "full root — never disrupts Spire's operation",
       .shared = &kRedTeamRig,
       .headers = {"stage", "effect on Spire"},
       .columns = hardened,
       .cells = {"none", "DISRUPTED"},
       .rows = {
           {"1", "stop Spines daemons on replica 1 (user level)",
            stop_daemons, member_ledger, {}, {}, nullptr, "no effect"},
           {"2", "run rebuilt open-source daemon lacking the new keys",
            keyless_daemon, member_ledger, {}, {}, nullptr,
            "no effect (new encryption rejected it)"},
           {"3", "dirtycow + sshd exploits for root", kernel_exploits,
            no_traffic, {}, {}, nullptr, "failed (latest minimal CentOS)"},
           {"4", "patched binary triggers legacy debug exploit path",
            debug_path, member_ledger, {}, {}, nullptr,
            "no effect (exploit in disabled code)"},
           {"5", "root + source: Byzantine replica, insider traffic blast",
            insider_blast, member_ledger, {}, {}, nullptr,
            "no effect (could not disrupt operation)"},
       }},
      {.id = "E10",
       .artifact = "§III-B / §VI-A",
       .claim = "Each low-level hardening measure is individually necessary: "
                "the attack it guards against succeeds if (and only if) that "
                "one measure is disabled",
       .shared = nullptr,
       .headers = {"defense under test", "all defenses ON", "this defense OFF"},
       .columns = {},
       .cells = {"defeated", "ATTACK SUCCEEDS"},
       .rows = {
           {"default-deny firewalls", "UDP sweep 8000-8400 @ 1 ms", port_scan,
            probe_ledger, without(&H::firewalls)},
           {"static ARP tables", "30 gratuitous replies per replica address",
            arp_poison, probe_ledger, without(&H::static_arp)},
           {"static MAC<->port bindings",
            "50 frames with replica 1's source MAC", mac_spoof, frame_ledger,
            without(&H::static_switch_ports)},
           {"sealed Spines links", "forged plaintext hellos for a dead member",
            member_impersonation, member_ledger, without(&H::sealed_links)},
           {"hardened OS profile", "known-CVE root escalation", os_escalation,
            no_traffic, without(&H::hardened_os)},
       }},
      {.id = "R1",
       .artifact = "SSIV red-team campaign (adversary v2)",
       .claim = "Every scripted Byzantine-replica and network-stage attack is "
                "detected and survived within its reaction SLO with zero "
                "missed updates",
       .shared = nullptr,
       .headers = {"scenario", "hardened"},
       .columns = hardened,
       .cells = {"defeated", "ATTACK LANDED"},
       .rows = {
           {"leader_delay_under", "leader delays Pre-Prepares 500 ms, reorders",
            leader_delay_under, byzantine_ledger, {}, {},
            "delay_under_p99_ms_max", nullptr, true},
           {"leader_delay_over", "leader delays Pre-Prepares 1200 ms",
            leader_delay_over, byzantine_ledger, {}, {},
            "leader_delay_over_reaction_ms_max", nullptr, true},
           {"equivocation", "leader sends divergent matrices to peers",
            equivocation, byzantine_ledger, {}, {},
            "equivocation_reaction_ms_max", nullptr, true},
           {"withheld_aru", "leader withholds replica 2's PO-ARU rows",
            withheld_aru, byzantine_ledger, {}, {},
            "withheld_aru_reaction_ms_max", nullptr, true},
           {"merkle_forger", "preordering non-leader forges every Merkle path",
            merkle_forger, byzantine_ledger, {}, {}, nullptr, nullptr, true},
           {"mid_soak_compromise",
            "variant-keyed exploit installs a 1200 ms leader delay",
            mid_soak_compromise, member_ledger, {}, {},
            "compromise_reaction_ms_max"},
           {"withholding_relay",
            "non-leader's internal daemon relays nothing; 5% internal loss",
            withholding_relay, relay_ledger},
           {"network_stage", "E3's port scan and ARP poisoning, then a command",
            network_stage, probe_ledger},
           {"frontdoor_dos", "5000/s telemetry flood + 50 Hz criticals, 2 s",
            frontdoor_dos, front_door_ledger, {}, {}, nullptr, nullptr, true},
       },
       .missed_key = "missed_updates_max"},
      {.id = "E8",
       .artifact = "§II / §III-C / §IV",
       .claim = "Streaming MANA detects every red-team scenario against its "
                "ground-truth label, with precision / recall / detection "
                "latency scored on arrival",
       .shared = &kScoredRig,
       .headers = {"scenario", "detected"},
       .columns = hardened,
       .cells = {"yes", "MISSED"},
       .rows = {
           {"port_scan_fast", "400 ports @ 2 ms",
            scan(0, 0, 8000, 8400, 2 * sim::kMillisecond,
                 6 * sim::kSecond), probe_ledger, {},
            {K::kPortScan, K::kNewSourceMac, K::kArpBindingChange,
             K::kTrafficFlood, K::kSubstationFlood, K::kAnomalousWindow},
            "port_scan_fast_latency_s_max"},
           {"port_scan_slow", "100 ports @ 50 ms",
            scan(0, 1, 8000, 8100, 50 * sim::kMillisecond,
                 10 * sim::kSecond), probe_ledger, {},
            {K::kPortScan, K::kArpBindingChange, K::kAnomalousWindow},
            "port_scan_slow_latency_s_max"},
           {"arp_poison", "15 replies, then a restore", poison_once,
            probe_ledger, {}, {K::kArpBindingChange, K::kAnomalousWindow},
            "arp_poison_latency_s_max"},
           {"mitm", "relay + 18 poison refreshes @ 500 ms",
            mitm(false, 18, 10 * sim::kSecond),
            probe_ledger, {},
            {K::kArpBindingChange, K::kNewSourceMac, K::kAnomalousWindow},
            "mitm_latency_s_max"},
           {"dos_flood", "5000 pps x 1200 B, 3 s",
            flood(0, 5000, 3 * sim::kSecond, 1200, 8 * sim::kSecond),
            frame_ledger, {},
            {K::kTrafficFlood, K::kSubstationFlood, K::kAnomalousWindow},
            "dos_flood_latency_s_max"},
           {"dos_low", "150 pps x 256 B from 10.9.9.0/24, 5 s",
            flood(1, 150, 5 * sim::kSecond, 256, 9 * sim::kSecond),
            frame_ledger, {},
            {K::kSubstationFlood, K::kTrafficFlood, K::kNewSourceMac,
             K::kArpBindingChange, K::kAnomalousWindow},
            "dos_low_latency_s_max"},
           {"ip_spoof_burst", "200 frames, forged IP and MAC",
            spoof(200, 5 * sim::kSecond, net::IpAddress::make(10, 77, 0, 13),
                  net::MacAddress::from_id(0xDEAD)),
            frame_ledger, {},
            {K::kNewSourceMac, K::kSubstationFlood, K::kTrafficFlood,
             K::kAnomalousWindow},
            "ip_spoof_burst_latency_s_max"},
           {"rogue_probe", "6 ports @ 200 ms from a fresh host",
            scan(2, 1, 9000, 9005, 200 * sim::kMillisecond,
                 5 * sim::kSecond),
            probe_ledger, {},
            {K::kNewSourceMac, K::kArpBindingChange, K::kAnomalousWindow},
            "rogue_probe_latency_s_max"},
       },
       .unit = "s"},
  };
}

// ---- the runner ------------------------------------------------------------

/// One row's outcome and counter deltas under each of its columns.
struct RowResult {
  std::vector<Outcome> outcomes;
  std::vector<Ledger> moved;
};

void run_row(const Row& row, Trial& t, RowResult& out) {
  t.before = row.accounting.read(t);
  out.outcomes.push_back(row.run(t));
  Ledger after = row.accounting.read(t);
  for (auto* side : {&after.sent, &after.seen}) {
    for (Count& c : *side) {
      c.value -= Trial::value(t.before, c.name).value_or(0);
    }
  }
  out.moved.push_back(std::move(after));
}

/// Closes MANA's books on a shared rig. E3 reports its alerts by kind
/// and requires at least one; E8 takes every row's verdict and detection
/// latency off the scoreboard, reports each detector's scores and checks
/// the ensemble's precision and recall floors.
void close_mana(Rig& rig, const Experiment& e, std::size_t column,
                bool scored, const std::string& trace_path,
                std::vector<RowResult>& results, bench::Report& report) {
  const std::string p = std::string(e.id) + " MANA ";
  if (!scored) {
    rig.ids->flush_until(rig.sim.now());
    std::map<std::string, int> counts;
    for (const auto& a : rig.ids->alerts()) {
      counts[std::string(mana::to_string(a.kind))]++;
    }
    const std::string col = p + "[" + e.headers[column + 1] + "] ";
    for (const auto& [kind, count] : counts) report.add(col + kind, count);
    report.require(col + "raised an alert", !counts.empty());
    return;
  }
  rig.run_for(5 * sim::kSecond);  // drain the last row's windows
  rig.ids->flush_until(rig.sim.now());
  rig.board.finalize(rig.sim.now());
  for (const auto& outcome : rig.board.outcomes()) {
    for (std::size_t i = 0; i < e.rows.size(); ++i) {
      if (outcome.name != e.rows[i].name) continue;
      Outcome& o = results[i].outcomes.back();
      o.landed = !outcome.detected;
      if (outcome.detected) {
        o.reaction = static_cast<double>(outcome.latency) / sim::kSecond;
        o.detail = std::string(mana::to_string(outcome.first_kind));
      }
    }
  }
  const char* names[] = {"kmeans", "ocsvm", "rules", "ensemble"};
  for (int d = 0; d < 4; ++d) {
    const auto id = static_cast<mana::DetectorId>(d);
    const mana::DetectorScore& s = rig.board.score(id);
    const std::string detector = p + names[d] + " ";
    report.add(detector + "TP", static_cast<double>(s.true_positives));
    report.add(detector + "FP", static_cast<double>(s.false_positives));
    if (id == mana::DetectorId::kEnsemble) {
      report.check(detector + "precision", s.precision(), bench::Cmp::kGe,
                   bench::BaselineKey{"precision_min"});
      report.check(detector + "recall", s.recall(), bench::Cmp::kGe,
                   bench::BaselineKey{"recall_min"});
    } else {
      report.add(detector + "precision", s.precision());
      report.add(detector + "recall", s.recall());
    }
    report.add(detector + "F1", s.f1());
  }
  report.add(p + "quiet-phase windows", static_cast<double>(rig.quiet_windows));
  report.add(p + "quiet-phase alerts", static_cast<double>(rig.quiet_alerts));
  report.add(p + "campaign alerts",
             static_cast<double>(rig.board.alerts_seen()));
  report.add(p + "mean detection latency", rig.board.mean_latency_us() / 1e6,
             "s");
  if (rig.tracer && rig.tracer->tracer().write_jsonl(trace_path)) {
    std::printf("wrote trace %s\n", trace_path.c_str());
  }
}

/// Reports the counters a row moved and, when its ledger has a sent
/// side, checks that the seen side explains every frame sent.
void add_ledger_rows(bench::Report& report, const std::string& prefix,
                     const Ledger& l) {
  double unexplained = 0;
  const auto add = [&](const std::vector<Count>& side, double sign) {
    for (const Count& c : side) {
      if (c.value != 0) {
        report.add(prefix + " " + c.name, static_cast<double>(c.value));
      }
      unexplained += sign * static_cast<double>(c.value);
    }
  };
  add(l.sent, 1);
  add(l.seen, -1);
  if (!l.sent.empty()) {
    report.check(prefix + " unexplained", unexplained, bench::Cmp::kEq, 0);
  }
}

/// Runs every row of `e` under each of its columns and declares, per
/// row and column, the expected verdict, the reaction SLO and the
/// counter deltas as report rows.
std::vector<RowResult> run(const Experiment& e, const std::string& trace_path,
                           bench::Report& report) {
  std::vector<RowResult> results(e.rows.size());
  const auto columns = [&](const Row& row) -> const std::vector<Column>& {
    return row.columns.empty() ? e.columns : row.columns;
  };
  const bool scored = std::any_of(e.rows.begin(), e.rows.end(), [](auto& r) {
    return !r.alerts.empty();
  });
  for (std::size_t c = 0; c < columns(e.rows.front()).size(); ++c) {
    if (e.shared != nullptr) {
      Rig rig(*e.shared, e.columns[c].hardening,
              scored && !trace_path.empty());
      for (std::size_t i = 0; i < e.rows.size(); ++i) {
        if (i > 0) rig.run_for(rig.spec.gap);
        if (scored) rig.arm(e.rows[i].name, e.rows[i].alerts);
        Trial t{.rig = &rig, .accounting = e.rows[i].accounting};
        run_row(e.rows[i], t, results[i]);
        rig.close_label();
      }
      if (rig.ids) {
        close_mana(rig, e, c, scored, trace_path, results, report);
      }
      continue;
    }
    for (std::size_t i = 0; i < e.rows.size(); ++i) {
      const Row& row = e.rows[i];
      std::unique_ptr<Rig> rig;
      if (!row.own_fixture) {
        rig = std::make_unique<Rig>(kRedTeamRig, columns(row)[c].hardening,
                                    false);
      }
      Trial t{.rig = rig.get(), .accounting = row.accounting};
      run_row(row, t, results[i]);
    }
  }
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < e.rows.size(); ++i) {
    const Row& row = e.rows[i];
    const Words& words = row.words != nullptr ? *row.words : e.cells;
    for (std::size_t c = 0; c < results[i].outcomes.size(); ++c) {
      const Outcome& o = results[i].outcomes[c];
      const bool lands = columns(row)[c].expect == Verdict::kLands;
      const std::string p = std::string(e.id) + " " + row.name + " [" +
                            e.headers[c + 1] + "]";
      report.require(p + " = " + (lands ? words.bad : words.good),
                     o.landed == lands);
      if (row.slo != nullptr) {
        if (o.reaction) {
          report.check(p + " reaction", *o.reaction, bench::Cmp::kLe,
                       bench::BaselineKey{row.slo}, e.unit);
        } else {
          report.require(p + " reaction (timed out)", false);
        }
      }
      add_ledger_rows(report, p, results[i].moved[c]);
      missed += o.missed;
    }
  }
  if (e.missed_key != nullptr) {
    report.check(std::string(e.id) + " missed updates",
                 static_cast<double>(missed), bench::Cmp::kLe,
                 bench::BaselineKey{e.missed_key});
  }
  return results;
}

/// The paper's view of one experiment: each attack, its primitive, one
/// outcome cell per hardening set and what the paper reports.
void print(const Experiment& e, const std::vector<RowResult>& results) {
  const bool paper = std::any_of(
      e.rows.begin(), e.rows.end(), [](const Row& r) { return r.paper; });
  std::vector<std::string> headers = {e.headers[0], "primitive"};
  headers.insert(headers.end(), e.headers.begin() + 1, e.headers.end());
  if (paper) headers.push_back("paper");

  bench::Table table(headers);
  for (std::size_t i = 0; i < e.rows.size(); ++i) {
    const Row& row = e.rows[i];
    std::vector<std::string> cells = {row.name, row.attack};
    const Words& words = row.words != nullptr ? *row.words : e.cells;
    for (const Outcome& o : results[i].outcomes) {
      cells.push_back(std::string(o.landed ? words.bad : words.good) +
                      (o.detail.empty() ? "" : " (" + o.detail + ")"));
    }
    if (paper) cells.push_back(row.paper ? row.paper : "");
    table.row(cells);
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::Report report(
      "attacks",
      "every red-team attack gets its expected verdict under each hardening "
      "set, within its committed reaction bound, and every frame it sent is "
      "accounted for");
  if (!report.load_baseline(argc, argv, "bench/baseline_attacks.json")) {
    return 1;
  }
  const std::string trace_path =
      bench::flag_value(argc, argv, "--trace-out", "");

  const std::vector<Experiment> table = experiments();
  // Every bound is read before anything runs: a missing key exits 1 now.
  for (const Experiment& e : table) {
    for (const Row& row : e.rows) {
      if (row.slo != nullptr) (void)report.baseline(row.slo);
    }
    if (e.missed_key != nullptr) (void)report.baseline(e.missed_key);
  }
  (void)report.baseline("precision_min");
  (void)report.baseline("recall_min");

  for (const Experiment& e : table) {
    bench::print_header(e.id, e.artifact, e.claim);
    print(e, run(e, trace_path, report));
    std::printf("\n");
  }
  return report.finish(argc, argv);
}
