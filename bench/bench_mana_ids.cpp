// Experiment E8 — §II, §III-C, §IV (streaming MANA + detection-quality
// scoreboard, DESIGN.md §13).
//
// Two phases, both gated against bench/baseline_mana.json:
//
//   Phase 1 (line rate): a synthetic 10,000-device fleet streams
//   through the CaptureTap ring into the full scoring pipeline
//   (summaries → flat feature accumulators → three detectors). The
//   gate is wall-clock throughput plus the overload-accounting
//   identity: every mirrored frame is drained, queued, folded into a
//   sampling weight, or counted as dropped — zero unaccounted frames,
//   even through a 100k-frame burst that forces 1-in-N sampling.
//
//   Phase 2 (detection quality): the hardened deployment runs with
//   MANA tapping the operations network, trains on a baseline capture,
//   and then faces eight red-team scenarios. Attack primitives publish
//   ground-truth labels through attack::Attacker's LabelSink, a glue
//   adapter folds them into mana::ScoreBoard intervals, and every
//   alert is scored on arrival. Gates: ensemble precision and recall
//   (quiet gaps between scenarios count toward precision) and a
//   per-scenario detection-latency SLO.
//
// Run:  bench_mana_ids [--json=PATH] [--baseline=PATH]
//                      [--trace-out=PATH]
//
// --trace-out writes the obs::Tracer JSONL including attack-begin /
// attack-end / alert markers, so the attack → alert chain is visible
// next to the deployment's spans.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "attack/attacker.hpp"
#include "bench_util.hpp"
#include "mana/mana.hpp"
#include "mana/scoreboard.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Gates {
  double soak_mframes_per_sec_min = 0.5;
  double precision_min = 0.9;
  double recall_min = 0.9;
  double unaccounted_frames_max = 0.0;
  double port_scan_fast_latency_s_max = 2.0;
  double port_scan_slow_latency_s_max = 3.0;
  double arp_poison_latency_s_max = 1.5;
  double mitm_latency_s_max = 2.0;
  double dos_flood_latency_s_max = 2.5;
  double dos_low_latency_s_max = 2.5;
  double ip_spoof_burst_latency_s_max = 2.0;
  double rogue_probe_latency_s_max = 1.5;
};

// ---- Phase 1: line-rate soak ------------------------------------------------

struct SoakResult {
  std::uint64_t measured_frames = 0;
  double wall_seconds = 0;
  double mframes_per_sec = 0;
  std::uint64_t mirrored = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sampled_out = 0;
  std::uint64_t sampling_entered = 0;
  std::uint64_t unaccounted = 0;
  std::uint64_t windows_scored = 0;
  std::uint64_t sampled_windows = 0;
  std::uint64_t alerts = 0;
  bool pass = false;
};

/// 10k devices across fifty /24 "substations", every device polling a
/// master twice a second. Frames are prebuilt so the measured loop is
/// the capture pipeline (summarize + ring + features + rules), not
/// datagram encoding.
SoakResult run_soak(const Gates& gates) {
  constexpr std::size_t kDevices = 10000;
  constexpr std::size_t kPerSubstation = 200;
  constexpr std::size_t kFramesPerTick = 2000;  // 100 ms tick → 20k fps
  const sim::Time kTick = 100 * sim::kMillisecond;

  mana::ManaConfig cfg;
  cfg.network = "fleet-soak";
  cfg.features.max_src_macs = 1 << 15;
  cfg.features.max_flows = 1 << 15;
  cfg.features.max_port_pairs = 1 << 15;
  cfg.features.max_src_counters = 1 << 15;
  cfg.rules.max_tracked_sources = 1 << 15;
  cfg.rules.max_substations = 1 << 10;
  mana::Mana ids(cfg);

  const net::MacAddress master_mac = net::MacAddress::from_id(1);
  const net::IpAddress master_ip = net::IpAddress::make(172, 31, 0, 1);
  std::vector<net::EthernetFrame> frames;
  frames.reserve(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    const std::uint32_t sub = static_cast<std::uint32_t>(i / kPerSubstation);
    net::Datagram d;
    d.src_ip = net::IpAddress::make(
        172, static_cast<std::uint8_t>(16 + (sub >> 8)),
        static_cast<std::uint8_t>(sub & 0xFF),
        static_cast<std::uint8_t>(1 + (i % kPerSubstation)));
    d.dst_ip = master_ip;
    d.src_port = 20000;
    d.dst_port = 9999;
    d.payload.assign(48 + (i % 4) * 16, 0xAB);
    frames.push_back(net::EthernetFrame{
        net::MacAddress::from_id(static_cast<std::uint32_t>(0x100000 + i)),
        master_mac, net::EtherType::kIpv4, d.encode()});
  }

  sim::Time now = 0;
  std::size_t cursor = 0;
  const auto pump = [&](std::size_t ticks) {
    for (std::size_t t = 0; t < ticks; ++t) {
      now += kTick;
      for (std::size_t i = 0; i < kFramesPerTick; ++i) {
        ids.tap().capture(now, frames[cursor]);
        if (++cursor == frames.size()) cursor = 0;
      }
      ids.poll(now);
    }
  };

  // Train on 20 s of steady fleet traffic.
  pump(200);
  ids.flush_until(now);
  ids.finish_training();

  // Measured soak: 60 s of line-rate traffic through the full pipeline.
  const auto t0 = Clock::now();
  pump(600);
  const double wall = seconds_since(t0);

  // Burst: 100k frames land between polls — far past the ring's high
  // watermark, forcing sampling (weight folding) and counted drops.
  now += kTick;
  for (std::size_t i = 0; i < 100000; ++i) {
    ids.tap().capture(now, frames[cursor]);
    if (++cursor == frames.size()) cursor = 0;
  }
  ids.poll(now);
  pump(50);  // settle and flush the post-burst windows
  ids.flush_until(now);

  const auto& ts = ids.tap_stats();
  SoakResult r;
  r.measured_frames = 600 * kFramesPerTick;
  r.wall_seconds = wall;
  r.mframes_per_sec =
      wall > 0 ? static_cast<double>(r.measured_frames) / wall / 1e6 : 0;
  r.mirrored = ts.frames_mirrored;
  r.dropped = ts.frames_dropped;
  r.sampled_out = ts.frames_sampled_out;
  r.sampling_entered = ts.sampling_entered;
  const std::uint64_t accounted = ids.stats().frames_processed +
                                  ids.tap().queued_weight() +
                                  ids.tap().pending_weight() + ts.frames_dropped;
  r.unaccounted = ts.frames_mirrored - accounted;
  r.windows_scored = ids.stats().windows_scored;
  r.sampled_windows = ids.stats().sampled_windows_scored;
  r.alerts = ids.stats().alerts_total;
  r.pass = r.mframes_per_sec >= gates.soak_mframes_per_sec_min &&
           static_cast<double>(r.unaccounted) <= gates.unaccounted_frames_max &&
           r.sampling_entered > 0 && r.sampled_out > 0 &&
           r.sampled_windows > 0;
  return r;
}

// ---- Phase 2: scored red-team campaign --------------------------------------

struct ScenarioResult {
  std::string name;
  bool detected = false;
  double latency_s = 0;
  double slo_s = 0;
  std::string first_kind;
  bool pass = false;
};

struct CampaignResult {
  std::vector<ScenarioResult> scenarios;
  mana::DetectorScore kmeans, ocsvm, rules, ensemble;
  std::uint64_t alerts_seen = 0;
  std::uint64_t quiet_alerts = 0;
  std::size_t quiet_windows = 0;
  double mean_latency_s = 0;
  bool pass = false;
};

/// Folds the per-primitive labels one scenario emits (a MITM scenario
/// emits both "mitm" and its refresh "arp-poison" intervals) into a
/// single scoreboard attack named after the scenario, so recall counts
/// scenarios, not primitives. Open-ended labels (end == 0) stay open
/// until the primitive re-announces its real end or the bench closes
/// the scenario.
struct ScenarioGlue {
  mana::ScoreBoard* board = nullptr;
  std::string scenario;
  std::vector<mana::AlertKind> expected;
  bool open = false;
  sim::Time last_end = 0;

  void arm(std::string name, std::vector<mana::AlertKind> kinds) {
    scenario = std::move(name);
    expected = std::move(kinds);
    open = false;
    last_end = 0;
  }
  void on_label(std::string_view /*primitive*/, sim::Time start,
                sim::Time end) {
    if (board == nullptr || scenario.empty()) return;
    if (!open) {
      board->attack_begin(scenario, start, expected);
      open = true;
    }
    last_end = std::max(last_end, end);
  }
  void close(sim::Time now) {
    if (!open) return;
    board->attack_end(scenario, last_end > 0 ? last_end : now);
    open = false;
  }
};

/// A corrective gratuitous ARP restoring the true binding after a
/// poisoning scenario: the claimed sender matches the trained binding,
/// so it re-steers the victim's cache without raising a new alert.
void restore_arp(net::Host& from, std::size_t iface, net::IpAddress ip,
                 net::MacAddress true_mac, net::Host& victim) {
  net::ArpPacket reply;
  reply.op = net::ArpOp::kReply;
  reply.sender_mac = true_mac;
  reply.sender_ip = ip;
  reply.target_mac = victim.mac(0);
  reply.target_ip = victim.ip(0);
  net::EthernetFrame frame{from.mac(iface), victim.mac(0), net::EtherType::kArp,
                           reply.encode()};
  from.send_frame_raw(iface, frame);
}

CampaignResult run_campaign(const Gates& gates, const std::string& trace_path) {
  using mana::AlertKind;

  sim::Simulator sim;
  std::unique_ptr<obs::ScopedTracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<obs::ScopedTracer>(
        [&sim] { return static_cast<std::uint64_t>(sim.now()); });
  }

  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment spire_sys(sim, config);

  mana::ManaConfig mana_config;
  mana_config.network = "operations-spire";
  mana::Mana ids(mana_config);
  mana::ScoreBoard board;
  board.bind_metrics("mana.scoreboard");
  ids.set_alert_sink([&board](const mana::Alert& a) { board.on_alert(a); });

  spire_sys.start();
  // Per §IV-A the training capture starts only once the networks are
  // set up and finalized — after the deployment's startup transient.
  sim.run_until(5 * sim::kSecond);
  spire_sys.external_switch().add_capture_tap(&ids.tap());

  const auto run_for = [&](sim::Time duration) {
    const sim::Time step = 100 * sim::kMillisecond;
    const sim::Time until = sim.now() + duration;
    while (sim.now() < until) {
      sim.run_until(std::min(until, sim.now() + step));
      ids.poll(sim.now());
    }
  };

  // Training capture, then a quiet phase (false-positive floor).
  run_for(60 * sim::kSecond);
  ids.flush_until(sim.now());
  ids.finish_training();

  run_for(30 * sim::kSecond);
  ids.flush_until(sim.now());
  CampaignResult out;
  out.quiet_windows = ids.windows_scored();
  out.quiet_alerts = ids.stats().alerts_total;

  // Attack hosts join after training: their MACs are not in baseline.
  net::Host& rogue = bench::add_rogue_host(spire_sys, "redteam", 0xBAD,
                                           net::IpAddress::make(10, 2, 0, 66));
  attack::Attacker attacker(sim, rogue);
  attack::Attacker strayman(
      sim, bench::add_rogue_host(spire_sys, "stray", 0x57A4,
                                 net::IpAddress::make(10, 9, 9, 5)));
  attack::Attacker lurk(
      sim, bench::add_rogue_host(spire_sys, "lurker", 0xFEED,
                                 net::IpAddress::make(10, 2, 0, 77)));

  ScenarioGlue glue;
  glue.board = &board;
  const auto sink = [&glue](std::string_view name, sim::Time start,
                            sim::Time end) { glue.on_label(name, start, end); };
  attacker.set_label_sink(sink);
  strayman.set_label_sink(sink);
  lurk.set_label_sink(sink);

  net::Host& victim = spire_sys.network().host("hmi0");
  net::Host& replica0 = spire_sys.replica_host(0);
  net::Host& replica1 = spire_sys.replica_host(1);
  const sim::Time gap = 8 * sim::kSecond;
  int step = 0;
  const auto done = [&](const char* name) {
    glue.close(sim.now());
    std::printf("[%d/8] %s done\n", ++step, name);
  };

  // 1. Fast port scan: 400 ports at 2 ms — crosses the fan-out
  //    threshold in tens of milliseconds and floods its /24. The
  //    scanner's own ARP reply (a binding absent from baseline) is
  //    part of the attack's footprint, so it counts as attribution.
  glue.arm("port_scan_fast",
           {AlertKind::kPortScan, AlertKind::kNewSourceMac,
            AlertKind::kArpBindingChange, AlertKind::kTrafficFlood,
            AlertKind::kSubstationFlood, AlertKind::kAnomalousWindow});
  attacker.port_scan(replica0.ip(1), 8000, 8400, 2 * sim::kMillisecond);
  run_for(6 * sim::kSecond);
  done("port_scan_fast");
  run_for(gap);

  // 2. Slow port scan: 100 ports at 50 ms — low volume, but still
  //    ~20 distinct ports per window, over the fan-out threshold.
  glue.arm("port_scan_slow",
           {AlertKind::kPortScan, AlertKind::kArpBindingChange,
            AlertKind::kAnomalousWindow});
  attacker.port_scan(replica1.ip(1), 8000, 8100, 50 * sim::kMillisecond);
  run_for(10 * sim::kSecond);
  done("port_scan_slow");
  run_for(gap);

  // 3. ARP poisoning: gratuitous replies steal a replica's binding;
  //    a corrective announce afterwards restores the victim's cache.
  glue.arm("arp_poison",
           {AlertKind::kArpBindingChange, AlertKind::kAnomalousWindow});
  attacker.arp_poison(victim.ip(0), victim.mac(0), replica0.ip(1), 15);
  run_for(5 * sim::kSecond);
  restore_arp(rogue, 0, replica0.ip(1), replica0.mac(1), victim);
  run_for(1 * sim::kSecond);
  done("arp_poison");
  run_for(gap);

  // 4. Full MITM: interception plus the periodic poison refresh every
  //    real tool needs to keep the victim's cache steered — each
  //    refresh is another binding-change alert.
  glue.arm("mitm", {AlertKind::kArpBindingChange, AlertKind::kNewSourceMac,
                    AlertKind::kAnomalousWindow});
  attacker.start_mitm([](const net::Datagram& d) { return d; });
  attacker.arp_poison(victim.ip(0), victim.mac(0), replica0.ip(1), 18,
                      500 * sim::kMillisecond);
  run_for(10 * sim::kSecond);
  attacker.stop_mitm();
  restore_arp(rogue, 0, replica0.ip(1), replica0.mac(1), victim);
  run_for(1 * sim::kSecond);
  done("mitm");
  run_for(gap);

  // 5. DoS flood: 5000 pps for 3 s — global and per-substation flood.
  glue.arm("dos_flood",
           {AlertKind::kTrafficFlood, AlertKind::kSubstationFlood,
            AlertKind::kAnomalousWindow});
  attacker.dos_flood(replica0.ip(1), replica0.mac(1),
                     scada::kExternalDaemonPort, 5000, 3 * sim::kSecond, 1200);
  run_for(8 * sim::kSecond);
  done("dos_flood");
  run_for(gap);

  // 6. Low-and-slow flood from an address block absent in baseline:
  //    150 pps rides under the global radar's scale but crosses the
  //    minimum ceiling every unknown /24 gets.
  glue.arm("dos_low",
           {AlertKind::kSubstationFlood, AlertKind::kTrafficFlood,
            AlertKind::kNewSourceMac, AlertKind::kArpBindingChange,
            AlertKind::kAnomalousWindow});
  strayman.dos_flood(replica0.ip(1), replica0.mac(1),
                     scada::kExternalDaemonPort, 150, 5 * sim::kSecond, 256);
  run_for(9 * sim::kSecond);
  done("dos_low");
  run_for(gap);

  // 7. IP spoofing burst: 200 frames under a forged source address and
  //    a never-seen MAC, all inside one window.
  glue.arm("ip_spoof_burst",
           {AlertKind::kNewSourceMac, AlertKind::kSubstationFlood,
            AlertKind::kTrafficFlood, AlertKind::kAnomalousWindow});
  attacker.ip_spoof_burst(net::IpAddress::make(10, 77, 0, 13),
                          net::MacAddress::from_id(0xDEAD), replica0.ip(1),
                          replica0.mac(1), scada::kExternalDaemonPort, 200);
  run_for(5 * sim::kSecond);
  done("ip_spoof_burst");
  run_for(gap);

  // 8. Rogue probe: a handful of probes from a fresh host, deliberately
  //    below the port-scan threshold — only the MAC allowlist sees it.
  glue.arm("rogue_probe",
           {AlertKind::kNewSourceMac, AlertKind::kArpBindingChange,
            AlertKind::kAnomalousWindow});
  lurk.port_scan(replica1.ip(1), 9000, 9005, 200 * sim::kMillisecond);
  run_for(5 * sim::kSecond);
  done("rogue_probe");

  run_for(5 * sim::kSecond);
  ids.flush_until(sim.now());
  board.finalize(sim.now());

  const struct {
    const char* name;
    double slo_s;
  } slos[] = {
      {"port_scan_fast", gates.port_scan_fast_latency_s_max},
      {"port_scan_slow", gates.port_scan_slow_latency_s_max},
      {"arp_poison", gates.arp_poison_latency_s_max},
      {"mitm", gates.mitm_latency_s_max},
      {"dos_flood", gates.dos_flood_latency_s_max},
      {"dos_low", gates.dos_low_latency_s_max},
      {"ip_spoof_burst", gates.ip_spoof_burst_latency_s_max},
      {"rogue_probe", gates.rogue_probe_latency_s_max},
  };
  out.pass = true;
  for (const auto& outcome : board.outcomes()) {
    ScenarioResult r;
    r.name = outcome.name;
    r.detected = outcome.detected;
    r.latency_s = static_cast<double>(outcome.latency) / sim::kSecond;
    r.slo_s = 0;
    for (const auto& slo : slos) {
      if (r.name == slo.name) r.slo_s = slo.slo_s;
    }
    r.first_kind =
        outcome.detected ? std::string(mana::to_string(outcome.first_kind)) : "-";
    r.pass = r.detected && r.latency_s <= r.slo_s;
    out.pass = out.pass && r.pass;
    out.scenarios.push_back(std::move(r));
  }

  out.kmeans = board.score(mana::DetectorId::kKMeans);
  out.ocsvm = board.score(mana::DetectorId::kOcSvm);
  out.rules = board.score(mana::DetectorId::kRules);
  out.ensemble = board.ensemble();
  out.alerts_seen = board.alerts_seen();
  out.mean_latency_s = board.mean_latency_us() / 1e6;
  out.pass = out.pass && out.ensemble.precision() >= gates.precision_min &&
             out.ensemble.recall() >= gates.recall_min;

  if (tracer && tracer->tracer().write_jsonl(trace_path)) {
    std::printf("wrote trace %s\n", trace_path.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E8", "§II / §III-C / §IV",
      "Streaming MANA: line-rate capture with explicit overload "
      "accounting, and an eight-scenario red-team campaign scored for "
      "precision / recall / detection latency");

  Gates gates;
  const std::string baseline_path =
      bench::flag_value(argc, argv, "--baseline", "");
  if (!baseline_path.empty()) {
    const auto baseline = bench::Baseline::load(baseline_path);
    if (!baseline) return 1;
    gates.soak_mframes_per_sec_min = (*baseline)["soak_mframes_per_sec_min"];
    gates.precision_min = (*baseline)["precision_min"];
    gates.recall_min = (*baseline)["recall_min"];
    gates.unaccounted_frames_max = (*baseline)["unaccounted_frames_max"];
    gates.port_scan_fast_latency_s_max =
        (*baseline)["port_scan_fast_latency_s_max"];
    gates.port_scan_slow_latency_s_max =
        (*baseline)["port_scan_slow_latency_s_max"];
    gates.arp_poison_latency_s_max = (*baseline)["arp_poison_latency_s_max"];
    gates.mitm_latency_s_max = (*baseline)["mitm_latency_s_max"];
    gates.dos_flood_latency_s_max = (*baseline)["dos_flood_latency_s_max"];
    gates.dos_low_latency_s_max = (*baseline)["dos_low_latency_s_max"];
    gates.ip_spoof_burst_latency_s_max =
        (*baseline)["ip_spoof_burst_latency_s_max"];
    gates.rogue_probe_latency_s_max = (*baseline)["rogue_probe_latency_s_max"];
  }

  std::printf("phase 1: 10k-device line-rate soak...\n");
  const SoakResult soak = run_soak(gates);
  std::printf(
      "  %.2f Mframes/s (min %.2f), mirrored %llu, dropped %llu, "
      "sampled-out %llu, sampling entered %llux, sampled windows %llu, "
      "unaccounted %llu → %s\n\n",
      soak.mframes_per_sec, gates.soak_mframes_per_sec_min,
      static_cast<unsigned long long>(soak.mirrored),
      static_cast<unsigned long long>(soak.dropped),
      static_cast<unsigned long long>(soak.sampled_out),
      static_cast<unsigned long long>(soak.sampling_entered),
      static_cast<unsigned long long>(soak.sampled_windows),
      static_cast<unsigned long long>(soak.unaccounted),
      soak.pass ? "PASS" : "FAIL");

  std::printf("phase 2: scored red-team campaign...\n");
  const std::string trace_path =
      bench::flag_value(argc, argv, "--trace-out", "");
  const CampaignResult camp = run_campaign(gates, trace_path);

  bench::Table table(
      {"scenario", "detected", "first kind", "latency", "SLO", "verdict"});
  for (const auto& r : camp.scenarios) {
    char latency[32];
    char slo[32];
    if (r.detected) {
      std::snprintf(latency, sizeof(latency), "%.2f s", r.latency_s);
    } else {
      std::snprintf(latency, sizeof(latency), "-");
    }
    std::snprintf(slo, sizeof(slo), "%.1f s", r.slo_s);
    table.row({r.name, r.detected ? "yes" : "MISSED", r.first_kind, latency,
               slo, r.pass ? "PASS" : "FAIL"});
  }
  table.print();

  bench::Table detectors(
      {"detector", "TP", "FP", "precision", "recall", "F1"});
  const struct {
    const char* name;
    const mana::DetectorScore* s;
  } rows[] = {{"kmeans", &camp.kmeans},
              {"ocsvm", &camp.ocsvm},
              {"rules", &camp.rules},
              {"ensemble", &camp.ensemble}};
  for (const auto& row : rows) {
    char p[16], r[16], f[16];
    std::snprintf(p, sizeof(p), "%.3f", row.s->precision());
    std::snprintf(r, sizeof(r), "%.3f", row.s->recall());
    std::snprintf(f, sizeof(f), "%.3f", row.s->f1());
    detectors.row({row.name, std::to_string(row.s->true_positives),
                   std::to_string(row.s->false_positives), p, r, f});
  }
  detectors.print();

  std::printf(
      "\nquiet phase: %zu windows, %llu alerts; campaign: %llu alerts, "
      "mean detection latency %.2f s\n",
      camp.quiet_windows, static_cast<unsigned long long>(camp.quiet_alerts),
      static_cast<unsigned long long>(camp.alerts_seen), camp.mean_latency_s);
  std::printf("ensemble precision %.3f (min %.2f), recall %.3f (min %.2f)\n",
              camp.ensemble.precision(), gates.precision_min,
              camp.ensemble.recall(), gates.recall_min);

  const bool all_pass = soak.pass && camp.pass;

  const std::string json_path = bench::flag_value(argc, argv, "--json", "");
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out != nullptr) {
      std::fprintf(out,
                   "{\"bench\":\"bench_mana_ids\",\"schema_version\":1,"
                   "\"soak\":{\"mframes_per_sec\":%.3f,\"mirrored\":%llu,"
                   "\"dropped\":%llu,\"sampled_out\":%llu,"
                   "\"sampling_entered\":%llu,\"sampled_windows\":%llu,"
                   "\"unaccounted\":%llu,\"pass\":%s},",
                   soak.mframes_per_sec,
                   static_cast<unsigned long long>(soak.mirrored),
                   static_cast<unsigned long long>(soak.dropped),
                   static_cast<unsigned long long>(soak.sampled_out),
                   static_cast<unsigned long long>(soak.sampling_entered),
                   static_cast<unsigned long long>(soak.sampled_windows),
                   static_cast<unsigned long long>(soak.unaccounted),
                   soak.pass ? "true" : "false");
      std::fprintf(out, "\"detectors\":{");
      for (std::size_t i = 0; i < 4; ++i) {
        const auto& row = rows[i];
        std::fprintf(out,
                     "%s\"%s\":{\"true_positives\":%llu,"
                     "\"false_positives\":%llu,\"precision\":%.4f,"
                     "\"recall\":%.4f,\"f1\":%.4f}",
                     i == 0 ? "" : ",", row.name,
                     static_cast<unsigned long long>(row.s->true_positives),
                     static_cast<unsigned long long>(row.s->false_positives),
                     row.s->precision(), row.s->recall(), row.s->f1());
      }
      std::fprintf(out, "},\"scenarios\":{");
      for (std::size_t i = 0; i < camp.scenarios.size(); ++i) {
        const auto& r = camp.scenarios[i];
        std::fprintf(out,
                     "%s\"%s\":{\"detected\":%s,\"latency_s\":%.3f,"
                     "\"first_kind\":\"%s\",\"pass\":%s}",
                     i == 0 ? "" : ",", r.name.c_str(),
                     r.detected ? "true" : "false", r.latency_s,
                     r.first_kind.c_str(), r.pass ? "true" : "false");
      }
      std::fprintf(out, "},\"all_pass\":%s}\n", all_pass ? "true" : "false");
      std::fclose(out);
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  std::printf("\nstreaming MANA: %s\n",
              all_pass ? "ALL GATES PASS" : "GATE FAILURES");
  return all_pass ? 0 : 1;
}
