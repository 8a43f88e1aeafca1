// Experiment FL1 — fleet-scale field layer (10k devices, 1k HMIs).
//
// Custom pipeline — deliberately NOT SpireDeployment, which builds one
// emulated network host per PLC (right for a seventeen-device
// substation, hopeless at 10k devices):
//
//   EmulatedFleet → FleetProxy (front door + delta batcher, one Prime
//   client) → 4 Prime replicas on a LoopbackFabric, each hosting a
//   ScadaMaster over the sharded device image → N HMIs voting f+1 on
//   delta-first StateUpdates.
//
// The zero-missed-deltas gate is a conservation chain, not sampling:
//   fleet reports emitted == proxy deltas offered
//   == front-door admits (when no rate limit / shedding)
//   == device reports submitted (batcher stop() flushes the tail)
//   == constituent reports applied by every master
//   == tracer per-delta chains complete (deltas_complete == expected)
// plus every HMI's final displayed breaker image must equal the
// fleet's ground truth, device by device.
//
// Batching efficiency gate: constituent device deltas per ordered
// Prime update (master reports_applied / version) must clear the
// committed floor.
//
// --curve=1000,5000,10000 runs the scaling curve in one process and
// gates p99(last)/p99(first) (flat within the committed ratio).
// --baseline (default bench/baseline_fleet.json; run from the repo
// root) holds the batch-ratio floor, the absolute p99 ceiling and the
// curve ratio.
//
// Chaos (--chaos): deterministic episodes that either mute one
// non-leader replica's client-facing output (HMIs must keep voting
// f+1 from the rest) or black out every delivery to one HMI (it must
// catch up via rate-limited resync once healed). Episodes end before
// the settle tail so the conservation gates are checked fault-free.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plc/fleet.hpp"
#include "prime/loopback_cluster.hpp"
#include "scada/fleet_proxy.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace spire;

constexpr sim::Time kClientLatency = sim::kMillisecond;  ///< client<->replica

struct Options {
  std::size_t devices = 1000;   ///< total, split across instances
  std::size_t hmis = 50;        ///< total, split across instances
  std::size_t instances = 1;    ///< independent pipelines
  unsigned workers = 1;         ///< threads the instances run on
  sim::Time duration = 15 * sim::kSecond;
  sim::Time tail = 5 * sim::kSecond;  ///< fault-free settle after stop()
  sim::Time batch_window = 20 * sim::kMillisecond;
  std::size_t max_batch = 256;
  std::uint64_t rate = 0;   ///< front-door tokens/sec per client, 0 = off
  std::uint64_t burst = 64;
  sim::Time report_interval = 500 * sim::kMillisecond;
  bool chaos = false;
  std::uint64_t chaos_seed = 0x464c4545'54424348ULL;
  std::string prefix;  ///< row prefix when sweeping a curve
};

// One full pipeline with its own simulator and observability scope.
// The simulator and scopes are declared before the components so
// reverse member destruction tears the pipeline down while the
// registry its Binders tombstone into is still alive.
struct Instance {
  sim::Simulator sim;
  std::unique_ptr<obs::ScopedRegistry> registry_scope;
  std::unique_ptr<obs::ScopedTracer> tracer_scope;
  std::unique_ptr<crypto::Keyring> keyring;
  std::unique_ptr<prime::LoopbackCluster<scada::ScadaMaster>> cluster;
  std::unique_ptr<scada::FleetProxy> proxy;
  std::vector<std::unique_ptr<scada::Hmi>> hmis;
  std::unique_ptr<plc::EmulatedFleet> fleet;

  // Master broadcast loops hand the same util::Bytes to output_() once
  // per recipient; sharing one heap copy across the in-flight delivery
  // closures keeps a 1k-HMI publication from doing 1k payload copies.
  struct ShareCache {
    const util::Bytes* last_addr = nullptr;
    std::shared_ptr<const util::Bytes> cached;
    std::shared_ptr<const util::Bytes> share(const util::Bytes& data) {
      if (&data != last_addr || cached == nullptr || *cached != data) {
        cached = std::make_shared<const util::Bytes>(data);
        last_addr = &data;
      }
      return cached;
    }
  };
  std::vector<ShareCache> share;  ///< one per replica

  // Chaos state (read by the delivery router).
  int mute_replica = -1;  ///< outputs from this replica are dropped
  int mute_hmi = -1;      ///< deliveries to this HMI are dropped
  std::uint64_t chaos_episodes = 0;
  std::uint64_t outputs_dropped = 0;
};

std::string hmi_identity(std::size_t j) {
  return "client/hmi-" + std::to_string(j);
}

/// Runs one pipeline set and declares its rows; returns the
/// submit -> f+1 display p99 in ms.
double run_fleet(const Options& opt, bench::Report& report) {
  if (!opt.prefix.empty()) {
    std::printf("\n=== fleet run: devices=%zu hmis=%zu instances=%zu "
                "workers=%u window=%llums chaos=%d ===\n",
                opt.devices, opt.hmis, opt.instances, opt.workers,
                static_cast<unsigned long long>(opt.batch_window /
                                                sim::kMillisecond),
                opt.chaos ? 1 : 0);
  }
  const std::size_t per_devices =
      std::max<std::size_t>(1, opt.devices / opt.instances);
  const std::size_t per_hmis = std::max<std::size_t>(1, opt.hmis / opt.instances);
  constexpr std::uint32_t kF = 1;
  constexpr std::uint32_t kN = 4;  // 3f+1, red-team style cluster

  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(opt.instances);
  for (std::size_t i = 0; i < opt.instances; ++i) {
    auto in = std::make_unique<Instance>();
    sim::Simulator& sim = in->sim;
    auto sim_time = [&sim = in->sim] {
      return static_cast<std::uint64_t>(sim.now());
    };
    in->registry_scope = std::make_unique<obs::ScopedRegistry>(sim_time);
    in->tracer_scope = std::make_unique<obs::ScopedTracer>(sim_time);
    in->keyring =
        std::make_unique<crypto::Keyring>("fleet-bench-" + std::to_string(i));
    Instance& inst = *in;

    prime::PrimeConfig pc;
    pc.f = kF;
    pc.k = 0;
    pc.client_identities.push_back("client/proxy-fleet");
    for (std::size_t j = 0; j < per_hmis; ++j) {
      pc.client_identities.push_back(hmi_identity(j));
    }

    crypto::Verifier replica_verifier;
    for (std::uint32_t r = 0; r < kN; ++r) {
      replica_verifier.add_identity(
          prime::replica_identity(r),
          in->keyring->identity_key(prime::replica_identity(r)));
    }

    // client identity -> delivery target (-1 = fleet proxy, else HMI j).
    auto target_of = [](const std::string& client) -> int {
      if (client.rfind("client/hmi-", 0) == 0) {
        return std::atoi(client.c_str() + 11);
      }
      return -1;
    };

    in->share.resize(kN);
    auto make_master = [&](prime::ReplicaId r) {
      scada::MasterConfig mc;
      mc.replica_id = r;
      mc.scenario = scada::ScenarioSpec::fleet(per_devices);
      for (std::size_t j = 0; j < per_hmis; ++j) {
        mc.hmis.push_back(hmi_identity(j));
      }
      auto output = [&inst, r, target_of](const std::string& client,
                                          const util::Bytes& data) {
        if (inst.mute_replica == static_cast<int>(r)) {
          ++inst.outputs_dropped;
          return;
        }
        const int target = target_of(client);
        if (target >= 0 && inst.mute_hmi == target) {
          ++inst.outputs_dropped;
          return;
        }
        auto shared = inst.share[r].share(data);
        inst.sim.schedule_after(kClientLatency, [&inst, shared, target] {
          if (target < 0) {
            inst.proxy->on_master_output(*shared);
          } else if (static_cast<std::size_t>(target) < inst.hmis.size()) {
            inst.hmis[target]->on_master_output(*shared);
          }
        });
      };
      return std::make_unique<scada::ScadaMaster>(std::move(mc), *in->keyring,
                                                  output);
    };
    in->cluster = std::make_unique<prime::LoopbackCluster<scada::ScadaMaster>>(
        sim, pc, *in->keyring, 0x50524d'0 + i, make_master);
    in->cluster->start();

    // Clients submit to every replica with one shared payload copy.
    auto submit = [&inst](const util::Bytes& envelope) {
      auto shared = std::make_shared<const util::Bytes>(envelope);
      for (prime::ReplicaId r = 0; r < inst.cluster->n(); ++r) {
        inst.sim.schedule_after(kClientLatency, [&inst, shared, r] {
          inst.cluster->replica(r).on_message(*shared);
        });
      }
    };

    scada::FleetProxyConfig fpc;
    fpc.identity = "client/proxy-fleet";
    fpc.f = kF;
    fpc.front_door.rate_per_sec = opt.rate;
    fpc.front_door.burst = opt.burst;
    fpc.batch.window = opt.batch_window;
    fpc.batch.max_batch = opt.max_batch;
    in->proxy = std::make_unique<scada::FleetProxy>(
        sim, std::move(fpc), *in->keyring, replica_verifier, submit);

    for (std::size_t j = 0; j < per_hmis; ++j) {
      scada::HmiConfig hc;
      hc.identity = hmi_identity(j);
      hc.f = kF;
      in->hmis.push_back(std::make_unique<scada::Hmi>(
          sim, std::move(hc), *in->keyring, replica_verifier, submit));
    }

    plc::FleetConfig fc;
    fc.devices = per_devices;
    fc.report_interval = opt.report_interval;
    fc.seed ^= i;  // distinct (still deterministic) workload per instance
    in->fleet = std::make_unique<plc::EmulatedFleet>(
        sim, fc,
        [&inst](const std::string& device, std::vector<bool> breakers,
                std::vector<std::uint16_t> readings, bool critical) {
          inst.proxy->ingest(device, std::move(breakers), std::move(readings),
                             critical ? scada::DeltaPriority::kCritical
                                      : scada::DeltaPriority::kTelemetry);
        });
    for (std::size_t d = 0; d < in->fleet->device_count(); ++d) {
      in->proxy->register_device(in->fleet->device_name(d));
    }
    in->fleet->start();
    instances.push_back(std::move(in));
  }

  // Chaos schedule: deterministic episodes, all healed before the
  // settle tail so the conservation gates run fault-free.
  if (opt.chaos) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = *instances[i];
      sim::Simulator& sim = inst.sim;
      sim::Rng chaos_rng(opt.chaos_seed + i);
      sim::Time t = 2 * sim::kSecond;
      const sim::Time chaos_end =
          opt.duration > 6 * sim::kSecond ? opt.duration - 2 * sim::kSecond : 0;
      while (true) {
        t += chaos_rng.uniform(2, 4) * sim::kSecond;
        const sim::Time dur = chaos_rng.uniform(1, 2) * sim::kSecond;
        if (t + dur >= chaos_end) break;
        const bool mute_replica = chaos_rng.chance(0.5);
        // Non-leader replicas only: ordering liveness stays untouched,
        // output voting must absorb the silent replica.
        const int victim =
            mute_replica
                ? static_cast<int>(chaos_rng.uniform(1, kN - 1))
                : static_cast<int>(
                      chaos_rng.uniform(0, instances[i]->hmis.size() - 1));
        sim.schedule_at(t, [&inst, mute_replica, victim] {
          ++inst.chaos_episodes;
          (mute_replica ? inst.mute_replica : inst.mute_hmi) = victim;
        });
        sim.schedule_at(t + dur, [&inst, mute_replica] {
          (mute_replica ? inst.mute_replica : inst.mute_hmi) = -1;
        });
        t += dur;
      }
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  bench::run_instances(opt.instances, opt.workers, [&](std::size_t i) {
    Instance& inst = *instances[i];
    obs::UseRegistry use_registry(inst.registry_scope->registry());
    obs::UseTracer use_tracer(inst.tracer_scope->tracer());
    inst.sim.run_until(opt.duration);
    // Stop the field layer and flush the batchers: nothing admitted may
    // be dropped (fleet_test covers the unit property; this is the
    // at-scale version of the same gate).
    inst.fleet->stop();
    inst.proxy->stop();
    inst.sim.run_until(opt.duration + opt.tail);
  });
  const auto wall_end = std::chrono::steady_clock::now();

  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::uint64_t events = 0;
  for (const auto& in : instances) events += in->sim.events_executed();

  using bench::Cmp;
  const std::string& rp = opt.prefix;
  std::vector<double> e2e_ms;      // client submit -> f+1 HMI display
  std::vector<double> field_ms;    // field change -> f+1 HMI display
  std::uint64_t reports_applied_total = 0, versions_total = 0;
  std::uint64_t emitted = 0, sent = 0, shed_total = 0, batches = 0;
  std::uint64_t deltas_complete = 0, chaos_episodes = 0, muted = 0,
                resyncs = 0;
  double image_bytes_per_device = 0;  // largest HMI image, any instance

  for (std::size_t i = 0; i < instances.size(); ++i) {
    Instance& inst = *instances[i];
    const auto& ps = inst.proxy->stats();
    const auto& door = inst.proxy->front_door_stats();
    const auto& fleet_stats = inst.fleet->stats();
    const std::string p =
        rp + (instances.size() > 1 ? "instance " + std::to_string(i) + ": "
                                   : "");

    // --- conservation chain -------------------------------------------
    const std::uint64_t admitted = door.admitted;  // includes criticals
    const std::uint64_t shed =
        door.shed_rate + door.shed_overload + door.shed_critical;
    report.check(p + "fleet reports reaching the front door",
                 static_cast<double>(ps.deltas_offered), Cmp::kEq,
                 static_cast<double>(fleet_stats.reports_emitted));
    report.add(p + "front door admitted", static_cast<double>(admitted));
    if (opt.rate == 0) {
      report.check(p + "front door shed (no rate limit)",
                   static_cast<double>(shed), Cmp::kEq, 0);
    } else {
      report.add(p + "front door shed", static_cast<double>(shed));
    }
    report.check(p + "front door admitted + shed",
                 static_cast<double>(admitted + shed), Cmp::kEq,
                 static_cast<double>(ps.deltas_offered));
    report.check(p + "critical deltas shed",
                 static_cast<double>(door.shed_critical), Cmp::kEq, 0);
    report.check(p + "batcher reports sent after stop()",
                 static_cast<double>(ps.reports_sent), Cmp::kEq,
                 static_cast<double>(admitted));
    for (prime::ReplicaId r = 0; r < inst.cluster->n(); ++r) {
      report.check(p + "master " + std::to_string(r) + " reports applied",
                   static_cast<double>(inst.cluster->app(r).reports_applied()),
                   Cmp::kEq, static_cast<double>(ps.reports_sent));
    }

    emitted += fleet_stats.reports_emitted;
    sent += ps.reports_sent;
    shed_total += shed;
    batches += ps.batches_sent;
    reports_applied_total += inst.cluster->app(0).reports_applied();
    versions_total += inst.cluster->app(0).version();
    chaos_episodes += inst.chaos_episodes;
    muted += inst.outputs_dropped;
    for (const auto& hmi : inst.hmis) {
      resyncs += hmi->stats().resyncs_requested;
      const scada::TopologyState& image = hmi->display();
      if (image.device_count() > 0) {
        image_bytes_per_device = std::max(
            image_bytes_per_device,
            static_cast<double>(image.memory_bytes()) /
                static_cast<double>(image.device_count()));
      }
    }

    // --- per-delta trace completeness ---------------------------------
    const obs::Tracer& tracer = inst.tracer_scope->tracer();
    const auto completeness = tracer.completeness();
    deltas_complete += completeness.deltas_complete;
    report.check(p + "device deltas expected",
                 static_cast<double>(completeness.deltas_expected), Cmp::kGt,
                 0);
    report.check(p + "device deltas with complete chains",
                 static_cast<double>(completeness.deltas_complete), Cmp::kEq,
                 static_cast<double>(completeness.deltas_expected));
    report.check(p + "executed updates with complete chains",
                 static_cast<double>(completeness.executed_complete),
                 Cmp::kEq, static_cast<double>(completeness.executed));

    // --- every HMI displays the fleet's ground truth ------------------
    // With no rate limit every device's image must match. Under a rate
    // limit, telemetry for a never-flipped device can be starved
    // (deterministic bucket exhaustion sheds the same sweep positions),
    // so the gate narrows to the front door's actual guarantee: every
    // breaker movement is critical, never shed, and must display.
    std::size_t displaying_truth = 0;
    for (const auto& hmi : inst.hmis) {
      std::size_t idx = 0;
      bool ok = true;
      hmi->display().for_each(
          [&](const std::string&, const scada::DeviceState& st) {
            // Registration order is fd0..fdN-1, same as fleet indices.
            if (idx >= inst.fleet->device_count()) {
              ok = false;
            } else if (opt.rate == 0 || inst.fleet->flips(idx) > 0) {
              ok = ok && st.breakers == inst.fleet->breakers(idx);
            }
            ++idx;
          });
      if (ok && idx == inst.fleet->device_count()) ++displaying_truth;
    }
    report.check(p + "HMIs displaying field ground truth",
                 static_cast<double>(displaying_truth), Cmp::kEq,
                 static_cast<double>(inst.hmis.size()));

    // --- latency samples ----------------------------------------------
    for (const auto& span : tracer.spans()) {
      if (span.parent != obs::Span::kNoParent) {
        // Member = one device delta inside a batch: field latency.
        if (span.has(obs::Stage::kPlcChange) &&
            span.has(obs::Stage::kHmiDisplay)) {
          field_ms.push_back(static_cast<double>(
                                 span.time(obs::Stage::kHmiDisplay) -
                                 span.time(obs::Stage::kPlcChange)) /
                             1000.0);
        }
        continue;
      }
      if (span.has(obs::Stage::kSubmit) && span.has(obs::Stage::kHmiDisplay)) {
        e2e_ms.push_back(static_cast<double>(span.time(obs::Stage::kHmiDisplay) -
                                             span.time(obs::Stage::kSubmit)) /
                         1000.0);
      }
    }
  }

  // --- batching efficiency and latency ----------------------------------
  // What was simulated: the totals round down to a multiple of the
  // instance count, and every instance builds at least one HMI.
  report.add(rp + "devices",
             static_cast<double>(per_devices * opt.instances));
  report.add(rp + "HMIs", static_cast<double>(per_hmis * opt.instances));
  report.check(rp + "deltas per ordered update",
               versions_total > 0 ? static_cast<double>(reports_applied_total) /
                                        static_cast<double>(versions_total)
                                  : 0.0,
               Cmp::kGe, bench::BaselineKey{"batch_ratio_min"});
  const bench::LatencyStats e2e =
      report.latency.add(rp + "update submit->f+1 display", std::move(e2e_ms));
  report.latency.add(rp + "field delta->f+1 display", std::move(field_ms));
  report.add(rp + "submit->display p50", e2e.median_ms, "ms");
  report.check(rp + "submit->display p99", e2e.p99_ms, Cmp::kLe,
               bench::BaselineKey{"p99_ms_max"}, "ms");
  report.add(rp + "submit->display samples", static_cast<double>(e2e.samples));
  // Every HMI holds a whole image (it shows a state only once f+1
  // replicas delivered it), so HMI memory is this times devices times
  // HMIs. Deterministic for a given device count.
  report.check(rp + "HMI image bytes per device", image_bytes_per_device,
               Cmp::kLe, bench::BaselineKey{"hmi_image_bytes_per_device_max"},
               "B");
  report.add(rp + "reports emitted", static_cast<double>(emitted));
  report.add(rp + "reports sent", static_cast<double>(sent));
  report.add(rp + "reports shed", static_cast<double>(shed_total));
  report.add(rp + "batches sent", static_cast<double>(batches));
  report.add(rp + "device deltas complete", static_cast<double>(deltas_complete));
  report.add(rp + "chaos episodes", static_cast<double>(chaos_episodes));
  report.add(rp + "outputs muted by chaos", static_cast<double>(muted));
  report.add(rp + "HMI resyncs", static_cast<double>(resyncs));
  report.add(rp + "kernel workers", opt.workers);
  report.add(rp + "events executed", static_cast<double>(events));
  report.add(rp + "wall", wall_seconds, "s");
  report.add(rp + "events per wall second",
             wall_seconds > 0 ? static_cast<double>(events) / wall_seconds
                              : 0.0);

  // Newest-first so each scope restores the exact previous current().
  while (!instances.empty()) instances.pop_back();
  return e2e.p99_ms;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);

  Options opt;
  opt.devices = std::strtoul(
      bench::flag_value(argc, argv, "--devices", "1000"), nullptr, 10);
  opt.hmis =
      std::strtoul(bench::flag_value(argc, argv, "--hmis", "50"), nullptr, 10);
  opt.instances = std::strtoul(
      bench::flag_value(argc, argv, "--instances", "1"), nullptr, 10);
  opt.workers = static_cast<unsigned>(std::strtoul(
      bench::flag_value(argc, argv, "--workers", "1"), nullptr, 10));
  opt.duration =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--duration-seconds", "15"), nullptr,
          10)) *
      sim::kSecond;
  opt.batch_window =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--batch-window-ms", "20"), nullptr,
          10)) *
      sim::kMillisecond;
  opt.max_batch = std::strtoul(
      bench::flag_value(argc, argv, "--max-batch", "256"), nullptr, 10);
  opt.rate =
      std::strtoull(bench::flag_value(argc, argv, "--rate", "0"), nullptr, 10);
  opt.burst = std::strtoull(bench::flag_value(argc, argv, "--burst", "64"),
                            nullptr, 10);
  opt.report_interval =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--report-interval-ms", "500"),
          nullptr, 10)) *
      sim::kMillisecond;
  opt.chaos = bench::has_flag(argc, argv, "--chaos");
  if (bench::has_flag(argc, argv, "--chaos-seed")) {
    opt.chaos = true;
    opt.chaos_seed = std::strtoull(
        bench::flag_value(argc, argv, "--chaos-seed", "0"), nullptr, 10);
  }
  if (opt.instances == 0) opt.instances = 1;
  if (opt.workers == 0) opt.workers = 1;

  // --curve=1000,5000,10000 sweeps total device counts (same HMI count
  // and duration) and gates p99 flatness across the curve.
  std::vector<std::size_t> curve;
  for (const char* p = bench::flag_value(argc, argv, "--curve", ""); *p != '\0';) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(p, &end, 10);
    if (end == p) break;
    if (n > 0) curve.push_back(n);
    p = (*end == ',') ? end + 1 : end;
  }
  if (curve.empty()) curve.push_back(opt.devices);

  bench::print_header(
      "FL1", "fleet-scale field layer (DESIGN.md §9)",
      "Sharded device image + delta batching + proxy front door sustain "
      "10k devices and 1k HMIs with zero missed deltas and flat p99");
  bench::Report report("fleet_field",
                       "fleet-scale field layer with zero missed deltas and "
                       "flat p99");
  if (!report.load_baseline(argc, argv, "bench/baseline_fleet.json")) return 1;

  std::vector<double> p99_ms;
  for (const std::size_t devices : curve) {
    Options run_opt = opt;
    run_opt.devices = devices;
    if (curve.size() > 1) {
      run_opt.prefix = "devices=" + std::to_string(devices) + ": ";
    }
    p99_ms.push_back(run_fleet(run_opt, report));
  }
  if (curve.size() > 1) {
    report.check("p99 ratio, largest vs smallest curve point",
                 p99_ms.front() > 0 ? p99_ms.back() / p99_ms.front() : 1.0,
                 bench::Cmp::kLe, bench::BaselineKey{"curve_p99_ratio_max"},
                 "x");
  }
  report.latency.print("fleet latency");
  std::printf("\n");
  return report.finish(argc, argv);
}
