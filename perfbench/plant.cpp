// `plant` and `wan_chaos`: the §V deployment built by scada::SpireDeployment.
//
// plant      n=6 (f=1, k=1) at one site, power-plant scenario, 3 HMIs,
//            1 Hz cycler, 200 ms proxy polls, all §III-B hardening,
//            proactive recovery every 15 s, one MANA per switch tap, and
//            E7's measurement device flipping one breaker every 1.5 s.
// wan_chaos  the same system spread over 2 control centers + 2 data
//            centers with 20 ms WAN links, under a seeded schedule of
//            replica partitions, link degrades and one data-center cut.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "crypto/keyring.hpp"
#include "mana/mana.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"
#include "sim/chaos.hpp"
#include "sim/rng.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spire;
using Counters = std::map<std::string, double>;

constexpr sim::Time kPoll = 1 * sim::kSecond;  ///< MANA window = poll period
constexpr sim::Time kQuiesce = 3 * sim::kSecond;

struct Shape {
  bool wan = false;
  sim::Time recovery_at;  ///< proactive recovery starts here
  sim::Time warm_end;     ///< measured phase starts here
  sim::Time settle;
};

constexpr Shape kPlant{false, 3 * sim::kSecond, 38 * sim::kSecond,
                       8 * sim::kSecond};
constexpr Shape kWan{true, 4 * sim::kSecond, 6 * sim::kSecond,
                     12 * sim::kSecond};

double elapsed_s(std::uint64_t from_ns) {
  return static_cast<double>(now_ns() - from_ns) / 1e9;
}

std::vector<net::Switch*> site_switches(scada::SpireDeployment& sys) {
  std::vector<net::Switch*> out;
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    out.push_back(&sys.internal_site_switch(s));
    out.push_back(&sys.external_site_switch(s));
  }
  return out;
}

/// Per-layer counters, read from the components' public stats.
Counters snapshot(scada::SpireDeployment& sys, const sim::Simulator& sim,
                  const std::vector<std::unique_ptr<mana::Mana>>& manas) {
  Counters c;
  c["sim.events"] = static_cast<double>(sim.events_executed());
  for (net::Switch* sw : site_switches(sys)) {
    c["net.frames"] += static_cast<double>(sw->stats().frames_forwarded +
                                           sw->stats().frames_flooded);
  }
  for (spines::Overlay* overlay :
       {&sys.internal_overlay(), &sys.external_overlay()}) {
    for (const auto& id : overlay->node_ids()) {
      const spines::DaemonStats& s = overlay->daemon(id).stats();
      c["spines.data_delivered"] += static_cast<double>(s.data_delivered);
      c["spines.data_forwarded"] += static_cast<double>(s.data_forwarded);
      c["spines.dedup_drops"] += static_cast<double>(s.dropped_dedup);
      c["spines.retransmits"] += static_cast<double>(s.data_retransmits);
      c["spines.queue_drops"] += static_cast<double>(s.dropped_queue_full);
      c["spines.route_recomputes"] += static_cast<double>(s.route_recomputes);
      c["spines.spf_full"] += static_cast<double>(s.spf_full);
      c["spines.control_bytes"] +=
          static_cast<double>(s.lsu_bytes_sent + s.summary_bytes_sent);
    }
  }
  for (std::uint32_t r = 0; r < sys.n(); ++r) {
    const prime::ReplicaStats& s = sys.replica(r).stats();
    const std::string id = std::to_string(r);
    c["prime.updates_executed/" + id] = static_cast<double>(s.updates_executed);
    c["prime.view_changes/" + id] = static_cast<double>(s.view_changes);
    c["prime.preprepares"] += static_cast<double>(s.preprepares_sent);
    c["prime.verify_cache_hits"] += static_cast<double>(s.verify_cache_hits);
    c["prime.state_transfer_bytes"] +=
        static_cast<double>(s.state_transfer_bytes);
    c["scada.reports_applied/" + id] =
        static_cast<double>(sys.master(r).reports_applied());
  }
  for (const auto& m : manas) {
    c["mana.frames"] += static_cast<double>(m->stats().frames_processed);
    c["mana.alerts"] += static_cast<double>(m->stats().alerts_total);
    c["mana.tap_drops"] += static_cast<double>(m->tap_stats().frames_dropped);
  }
  return c;
}

/// end - start, with per-replica series ("name/<r>") folded to their max.
Counters delta(const Counters& start, const Counters& end) {
  Counters d;
  for (const auto& [name, v] : end) {
    const auto it = start.find(name);
    const double diff = v - (it == start.end() ? 0.0 : it->second);
    const std::size_t slash = name.find('/');
    if (slash == std::string::npos) {
      d[name] = diff;
    } else {
      double& folded = d[name.substr(0, slash)];
      folded = std::max(folded, diff);
    }
  }
  return d;
}

/// Plaintext length of a sealed Spines link datagram, or 0 for any other
/// frame. Link envelope: [str sender][bool sealed][blob nonce||ct||tag].
std::uint32_t sealed_plaintext(const net::EthernetFrame& frame) {
  if (frame.ethertype != net::EtherType::kIpv4) return 0;
  const auto dgram = net::Datagram::decode(frame.payload);
  if (!dgram || (dgram->dst_port != scada::kInternalDaemonPort &&
                 dgram->dst_port != scada::kExternalDaemonPort)) {
    return 0;
  }
  try {
    util::ByteReader r(dgram->payload);
    const std::uint32_t sender = r.u32();
    r.raw(sender);
    if (!r.boolean()) return 0;
    const std::uint32_t body = r.u32();
    return body >= crypto::SecureChannel::kOverhead
               ? body - static_cast<std::uint32_t>(
                            crypto::SecureChannel::kOverhead)
               : 0;
  } catch (const std::exception&) {
    return 0;
  }
}

/// Seeded fault schedule inside the f=1, k=1 envelope: one disturbed
/// replica at a time on top of one recovery. Partitions target replicas
/// 2..5 only: replicas 0 and 1 are the WAN border hosts of the two
/// control centers, and cutting one would also cut its site-mate.
void schedule_chaos(sim::ChaosInjector& chaos, std::uint64_t seed,
                    sim::Time from, sim::Time until) {
  sim::Rng rng(seed ^ 0xC4A05'5EEDULL);
  sim::Time t = from;
  while (true) {
    t += rng.uniform(1000, 3000) * sim::kMillisecond;
    const sim::Time duration = rng.uniform(2000, 4000) * sim::kMillisecond;
    if (t + duration > until) break;
    sim::ChaosEvent ev;
    ev.at = t;
    ev.duration = duration;
    if (rng.chance(0.5)) {
      ev.kind = sim::ChaosEvent::Kind::kPartition;
      ev.node = static_cast<std::uint32_t>(rng.uniform(2, 5));
    } else {
      ev.kind = sim::ChaosEvent::Kind::kLinkDegrade;
      ev.loss = 0.01 * static_cast<double>(rng.uniform(1, 5));
      ev.jitter = rng.uniform(0, 5) * sim::kMillisecond;
    }
    chaos.add(ev);
    t += duration;
  }
  chaos.arm();
}

/// The §V measurement device as E7 reproduces it
/// (bench/bench_plant_reaction_time.cpp): breaker 0 of the first device
/// (plc-plant/0) flipped locally at the PLC. E7's device waits for the
/// display, then 1.5 s, so its period is 1.5 s plus one reaction time
/// (0.05-0.2 s). Here it runs open loop: the seed draws the period from
/// [1.5 s, 1.7 s) and the starting phase, so each seed's flips walk
/// through the 200 ms proxy polls at their own phases.
///
/// The seed also sets the 1 Hz cycler's phase against the polls, which
/// in the plant run on independent clocks: the deployment starts the
/// cycler 2 s after start(), at a whole second; it is stopped after its
/// first command and restarted at a seeded point of the next second.
///
/// The cycler commands the probe's breaker once per round (its first
/// target, every 61 s); flips from 2 s before to 5 s after that command
/// are skipped, so the two never land inside one poll.
void schedule_field(sim::Simulator& sim, scada::SpireDeployment& sys,
                    std::uint64_t seed, sim::Time from, sim::Time until) {
  sim::Rng rng(seed ^ 0xF11D'F11DULL);
  const auto draw = [&rng](sim::Time below) {
    return static_cast<sim::Time>(
        rng.uniform(0, static_cast<std::uint64_t>(below - 1)));
  };
  const scada::DeploymentConfig& config = sys.config();
  scada::AutoCycler* cycler = sys.cycler();
  const sim::Time first = 2 * sim::kSecond;
  sim.schedule_at(first + config.cycler_interval / 2,
                  [cycler] { cycler->stop(); });
  // After the stopped cycler's pending tick, so no second tick chain.
  sim.schedule_at(first + config.cycler_interval + 1 +
                      draw(config.cycler_interval - 1),
                  [cycler] { cycler->start(); });

  const sim::Time period =
      1500 * sim::kMillisecond + draw(200 * sim::kMillisecond);
  const std::string device = config.scenario.devices.front().name;
  sim::Time round = 0;
  for (const auto& d : config.scenario.devices) {
    round += static_cast<sim::Time>(d.breaker_names.size()) *
             config.cycler_interval;
  }
  for (sim::Time t = from + draw(period); t < until; t += period) {
    sim.schedule_at(t, [&sys, cycler, device, round, t] {
      const auto& commands = cycler->history();
      if (!commands.empty()) {
        // When the cycler's round began, i.e. it commanded this breaker.
        const sim::Time origin =
            commands.back().at -
            static_cast<sim::Time>(commands.size() - 1) *
                sys.config().cycler_interval;
        const sim::Time phase = (t - origin) % round;
        if (phase < 5 * sim::kSecond || round - phase < 2 * sim::kSecond) {
          return;
        }
      }
      sys.flip_breaker_at_plc(device, 0, !sys.plc(device).breakers().closed(0));
    });
  }
}

Episode run_deployment(const EpisodeConfig& cfg, const Shape& shape) {
  Episode ep;
  SpanRecorder* spans = cfg.spans;
  const std::uint32_t run_layer = spans ? spans->layer("sim.run") : 0;
  const std::uint32_t mana_layer = spans ? spans->layer("mana.poll") : 0;

  sim::Simulator sim;
  auto sim_time = [&sim] { return static_cast<std::uint64_t>(sim.now()); };

  // Scopes first, then MANA (its taps must outlive the switches), then
  // the deployment, so teardown runs in the reverse order.
  std::uint64_t t0 = now_ns();
  obs::ScopedRegistry registry(sim_time);
  std::unique_ptr<obs::ScopedTracer> tracer;
  if (spans != nullptr) tracer = std::make_unique<obs::ScopedTracer>(sim_time);

  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 1;
  config.scenario = scada::ScenarioSpec::power_plant();
  config.hmi_count = 3;
  config.cycler_interval = 1 * sim::kSecond;
  config.proxy_poll_interval = 200 * sim::kMillisecond;
  config.hardening = scada::HardeningOptions::all_on();
  config.seed = cfg.seed;
  if (shape.wan) config.sites = scada::SiteTopology::two_cc_two_dc();

  std::vector<std::unique_ptr<mana::Mana>> manas;
  if (!shape.wan) {
    for (const char* label : {"spines-internal", "spines-external"}) {
      mana::ManaConfig mc;
      mc.network = label;
      mc.window = kPoll;
      manas.push_back(std::make_unique<mana::Mana>(mc));
    }
  }
  auto sys = std::make_unique<scada::SpireDeployment>(sim, config);

  const sim::Time m0 = shape.warm_end;
  const sim::Time m1 = m0 + cfg.measured;
  std::size_t per_device = 0;
  for (const auto& d : config.scenario.devices) {
    per_device = std::max(per_device, d.breaker_names.size());
  }
  DisplayLedger ledger(config.hmi_count, per_device);
  for (const auto& device : config.scenario.devices) {
    const std::string name = device.name;
    sys->plc(name).breakers().add_observer(
        [&ledger, name, m0, m1](std::size_t index, bool closed, sim::Time at) {
          ledger.field_change(name, index, closed, at, at >= m0 && at < m1);
        });
  }
  schedule_field(sim, *sys, cfg.seed, shape.recovery_at, m1);
  for (std::size_t j = 0; j < config.hmi_count; ++j) {
    sys->hmi(j).set_display_observer(
        [&ledger, j](const std::string& device, std::size_t index, bool closed,
                     sim::Time at) {
          ledger.displayed(j, device, index, closed, at);
        });
  }
  bool capturing = false;
  if (cfg.capture) {
    for (net::Switch* sw : site_switches(*sys)) {
      sw->add_tap("perfbench", [&ep, &capturing](const net::PcapRecord& rec) {
        if (!capturing) return;
        if (const std::uint32_t n = sealed_plaintext(rec.frame); n > 0) {
          ep.sealed_plaintext.push_back(n);
        }
      });
    }
  }
  ep.build_s = elapsed_s(t0);

  t0 = now_ns();
  sys->start();
  auto recovery = sys->make_recovery(
      prime::RecoveryConfig{15 * sim::kSecond, 1 * sim::kSecond});
  ep.start_s = elapsed_s(t0);

  // MANA watches warm-up (training) and the measured phase; the settle
  // phase after the load stops is a drain, not traffic it should judge.
  auto run_for = [&](sim::Time duration, bool watch) {
    const sim::Time until = sim.now() + duration;
    while (sim.now() < until) {
      {
        SpanRecorder::Scope s(spans, run_layer);
        sim.run_until(std::min(until, sim.now() + kPoll));
      }
      for (auto& m : manas) {
        if (!watch || sim.now() % kPoll != 0) break;
        SpanRecorder::Scope s(spans, mana_layer);
        m->poll(sim.now());
      }
    }
  };

  // Warm-up: overlay and ordering settle, recovery starts, and MANA
  // trains on the benign traffic it will then watch: the cycler, the
  // probe's flips and two proactive recoveries (each replaces the
  // then-current leader).
  t0 = now_ns();
  run_for(shape.recovery_at, false);
  recovery->start();
  if (!manas.empty()) {
    sys->internal_switch().add_capture_tap(&manas[0]->tap());
    sys->external_switch().add_capture_tap(&manas[1]->tap());
  }
  run_for(shape.warm_end - sim.now(), true);
  for (auto& m : manas) {
    m->flush_until(sim.now());
    m->finish_training();
  }
  ep.warmup_s = elapsed_s(t0);

  std::unique_ptr<sim::ChaosInjector> chaos;
  std::uint32_t cut_site = 0;
  if (shape.wan) {
    chaos = sys->make_chaos();
    schedule_chaos(*chaos, cfg.seed, m0, m0 + cfg.measured * 55 / 100);
    cut_site = 2 + static_cast<std::uint32_t>(cfg.seed % 2);  // a data center
    scada::SpireDeployment* s = sys.get();
    sim.schedule_at(m0 + cfg.measured * 60 / 100,
                    [s, cut_site] { s->partition_site(cut_site, true); });
    sim.schedule_at(m0 + cfg.measured * 80 / 100,
                    [s, cut_site] { s->partition_site(cut_site, false); });
  }

  // Measured phase.
  const Counters c0 = snapshot(*sys, sim, manas);
  capturing = true;
  t0 = now_ns();
  run_for(cfg.measured, true);
  ep.measure_s = elapsed_s(t0);
  capturing = false;
  ep.measured_sim_s =
      static_cast<double>(cfg.measured) / static_cast<double>(sim::kSecond);
  ep.counts = delta(c0, snapshot(*sys, sim, manas));

  // Settle: stop the load and the faults, let everything drain.
  sys->cycler()->stop();
  if (chaos) chaos->stop();
  recovery->stop();
  run_for(shape.settle, false);
  // Then stop the proxies' polls too, so ordering goes quiet and replicas
  // still catching up over the WAN reach the same final state.
  for (const auto& device : config.scenario.devices) {
    sys->proxy(device.name).stop();
  }
  run_for(kQuiesce, false);

  // --- correctness ------------------------------------------------------
  ledger.tally(ep.field_to_hmi_ms, ep.attempted, ep.failed);
  ep.counts["scada.displays"] = static_cast<double>(ledger.displays());
  if (ep.failed > 0) {
    ep.failures.push_back(std::to_string(ep.failed) +
                          " field transitions not displayed on every HMI");
  }
  for (std::size_t j = 0; j < config.hmi_count; ++j) {
    for (const auto& device : config.scenario.devices) {
      const auto& bank = sys->plc(device.name).breakers();
      for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
        if (sys->hmi(j).display().breaker(device.name, b) != bank.closed(b)) {
          ep.failures.push_back("HMI " + std::to_string(j) + " shows " +
                                device.name + "/" + std::to_string(b) +
                                " unlike the field");
        }
      }
    }
  }
  std::vector<crypto::Digest> digests;
  for (std::uint32_t r = 0; r < sys->n(); ++r) {
    if (sys->replica(r).running() && !sys->replica(r).recovering()) {
      digests.push_back(sys->master(r).state().digest());
    }
  }
  if (digests.size() < 2 * config.f + config.k + 1 ||
      std::adjacent_find(digests.begin(), digests.end(),
                         std::not_equal_to<>()) != digests.end()) {
    ep.failures.push_back("live replicas' SCADA state digests disagree");
  }
  if (recovery->stats().in_flight_high_water > config.k) {
    ep.failures.push_back("recovery in-flight high-water above k");
  }
  if (recovery->recoveries_completed() == 0) {
    ep.failures.push_back("no proactive recovery completed");
  }
  // MANA alerts on this benign traffic are false positives. They are
  // reported (mana.alerts), not checked: MANA runs in its default
  // configuration, and how often it false-alarms is a measurement, not
  // something the benchmark can promise for every seed.
  for (const auto& m : manas) {
    ep.counts["mana.frames_all"] +=
        static_cast<double>(m->stats().frames_processed);
  }
  if (chaos) {
    const sim::ChaosStats& cs = chaos->stats();
    ep.counts["chaos.episodes"] = static_cast<double>(cs.injected);
    if (cs.injected == 0 || cs.healed < cs.injected || chaos->fault_active()) {
      ep.failures.push_back("chaos schedule did not inject and heal");
    }
  }
  ep.counts["prime.recoveries"] =
      static_cast<double>(recovery->recoveries_completed());

  if (tracer) {
    const obs::Tracer& tr = tracer->tracer();
    for (auto& leg : tr.breakdown()) ep.legs_ms[leg.name] = std::move(leg.samples_ms);
    std::vector<double>& s2e = ep.legs_ms["submit->execute"];
    for (const obs::Span& span : tr.spans()) {
      if (span.parent == obs::Span::kNoParent &&
          span.has(obs::Stage::kSubmit) && span.has(obs::Stage::kExecute)) {
        s2e.push_back(static_cast<double>(span.time(obs::Stage::kExecute) -
                                          span.time(obs::Stage::kSubmit)) /
                      1000.0);
      }
    }
  }
  recovery.reset();
  chaos.reset();
  sys.reset();
  return ep;
}

}  // namespace

Episode run_plant(const EpisodeConfig& config) {
  return run_deployment(config, kPlant);
}

Episode run_wan_chaos(const EpisodeConfig& config) {
  return run_deployment(config, kWan);
}

}  // namespace perfbench
