// Fleet-scale field layer bench (ISSUE: 10k devices, 1k HMIs).
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
// Prime update (master reports_applied / version) must clear
// --min-batch-ratio (the ISSUE's ≥3x at 10k).
//
// --curve=1000,5000,10000 runs the scaling curve in one process and
// gates p99(last)/p99(first) ≤ --max-p99-ratio (flat within 2x).
// --baseline=bench/baseline_fleet.json gates absolute p99 and ratio
// against the committed baseline in CI.
//
// Chaos (--chaos): deterministic episodes that either mute one
// non-leader replica's client-facing output (HMIs must keep voting
// f+1 from the rest) or black out every delivery to one HMI (it must
// catch up via rate-limited resync once healed). Episodes end before
// the settle tail so the conservation gates are checked fault-free.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
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
  std::size_t instances = 1;    ///< independent pipelines (one shard each)
  unsigned workers = 1;
  sim::Time duration = 15 * sim::kSecond;
  sim::Time tail = 5 * sim::kSecond;  ///< fault-free settle after stop()
  sim::Time batch_window = 20 * sim::kMillisecond;
  std::size_t max_batch = 256;
  std::uint64_t rate = 0;   ///< front-door tokens/sec per client, 0 = off
  std::uint64_t burst = 64;
  // Every visible batch publishes (min 1): a >1 throttle could leave
  // the final flip of the run unpublished, since nothing arrives after
  // the stop() flush to push the version past the threshold.
  std::uint64_t publish_min = 1;
  sim::Time report_interval = 500 * sim::kMillisecond;
  bool chaos = false;
  std::uint64_t chaos_seed = 0x464c4545'54424348ULL;
  double min_batch_ratio = 3.0;
  bool banner = false;
};

struct RunResult {
  bool shape = true;
  std::size_t devices = 0;
  double p99_ms = 0.0, p50_ms = 0.0;
  std::size_t latency_samples = 0;
  double batch_ratio = 0.0;  ///< device deltas per ordered update
  std::uint64_t reports_emitted = 0, reports_sent = 0, reports_shed = 0;
  std::uint64_t deltas_expected = 0, deltas_complete = 0;
  std::uint64_t resyncs = 0, chaos_episodes = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  sim::KernelStats kernel;
};

// One full pipeline with its own observability scope. Scopes are
// declared before the components so reverse member destruction tears
// the pipeline down while the registry its Binders tombstone into is
// still alive.
struct Instance {
  sim::ShardId shard = sim::kMainShard;
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

struct TracerRouterCtx {
  const sim::Simulator* sim = nullptr;
  std::vector<obs::Tracer*> by_shard;
};

obs::Tracer* route_tracer(void* ctx_raw) {
  auto* ctx = static_cast<TracerRouterCtx*>(ctx_raw);
  const sim::ShardId shard = ctx->sim->current_shard();
  return shard < ctx->by_shard.size() ? ctx->by_shard[shard] : nullptr;
}

std::string hmi_identity(std::size_t j) {
  return "client/hmi-" + std::to_string(j);
}

RunResult run_fleet(const Options& opt) {
  if (opt.banner) {
    std::printf("\n=== fleet run: devices=%zu hmis=%zu instances=%zu "
                "workers=%u window=%llums chaos=%d ===\n",
                opt.devices, opt.hmis, opt.instances, opt.workers,
                static_cast<unsigned long long>(opt.batch_window /
                                                sim::kMillisecond),
                opt.chaos ? 1 : 0);
  }
  sim::Simulator sim;
  sim.set_workers(opt.workers);
  auto sim_time = [&sim] { return static_cast<std::uint64_t>(sim.now()); };

  const std::size_t per_devices =
      std::max<std::size_t>(1, opt.devices / opt.instances);
  const std::size_t per_hmis = std::max<std::size_t>(1, opt.hmis / opt.instances);
  constexpr std::uint32_t kF = 1;
  constexpr std::uint32_t kN = 4;  // 3f+1, red-team style cluster

  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(opt.instances);
  for (std::size_t i = 0; i < opt.instances; ++i) {
    auto in = std::make_unique<Instance>();
    in->shard = opt.instances == 1
                    ? sim::kMainShard
                    : sim.register_shard("fleet." + std::to_string(i));
    sim::ShardScope scope(sim, in->shard);
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
      mc.publish_min_versions = opt.publish_min;
      for (std::size_t j = 0; j < per_hmis; ++j) {
        mc.hmis.push_back(hmi_identity(j));
      }
      auto output = [&inst, &sim, r, target_of](const std::string& client,
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
        sim.schedule_after(kClientLatency, [&inst, shared, target] {
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
    auto submit = [&inst, &sim](const util::Bytes& envelope) {
      auto shared = std::make_shared<const util::Bytes>(envelope);
      for (prime::ReplicaId r = 0; r < inst.cluster->n(); ++r) {
        sim.schedule_after(kClientLatency, [&inst, shared, r] {
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

  TracerRouterCtx router_ctx;
  if (opt.instances > 1) {
    router_ctx.sim = &sim;
    router_ctx.by_shard.assign(sim.shard_count(), nullptr);
    for (const auto& in : instances) {
      router_ctx.by_shard[in->shard] = &in->tracer_scope->tracer();
    }
    obs::Tracer::set_router(&route_tracer, &router_ctx);
  }

  // Chaos schedule: deterministic episodes, all healed before the
  // settle tail so the conservation gates run fault-free.
  if (opt.chaos) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = *instances[i];
      sim::ShardScope scope(sim, inst.shard);
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
  const std::uint64_t events_start = sim.events_executed();
  sim.run_until(opt.duration);

  // Stop the field layer and flush the batchers: nothing admitted may
  // be dropped (fleet_test covers the unit property; this is the
  // at-scale version of the same gate).
  for (auto& in : instances) {
    sim::ShardScope scope(sim, in->shard);
    in->fleet->stop();
    in->proxy->stop();
  }
  sim.run_until(opt.duration + opt.tail);
  const auto wall_end = std::chrono::steady_clock::now();

  RunResult result;
  result.devices = opt.devices;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = sim.events_executed() - events_start;
  result.kernel = sim.kernel_stats();

  bench::Table table({"gate", "value", "expectation", "ok"});
  std::vector<double> e2e_ms;      // client submit -> f+1 HMI display
  std::vector<double> field_ms;    // field change -> f+1 HMI display
  std::uint64_t reports_applied_total = 0, versions_total = 0;

  for (std::size_t i = 0; i < instances.size(); ++i) {
    Instance& inst = *instances[i];
    const auto& ps = inst.proxy->stats();
    const auto& door = inst.proxy->front_door_stats();
    const auto& fleet_stats = inst.fleet->stats();

    // --- conservation chain -------------------------------------------
    const std::uint64_t admitted = door.admitted;  // includes criticals
    const std::uint64_t shed =
        door.shed_rate + door.shed_overload + door.shed_critical;
    const bool offered_ok = ps.deltas_offered == fleet_stats.reports_emitted;
    const bool door_ok = admitted + shed == ps.deltas_offered;
    const bool no_shed_ok = opt.rate != 0 || shed == 0;
    const bool sent_ok = ps.reports_sent == admitted;
    bool applied_ok = true;
    for (const auto& master : inst.cluster->apps()) {
      applied_ok = applied_ok && master->reports_applied() == ps.reports_sent;
    }
    const bool critical_ok = door.shed_critical == 0;

    result.reports_emitted += fleet_stats.reports_emitted;
    result.reports_sent += ps.reports_sent;
    result.reports_shed += shed;
    reports_applied_total += inst.cluster->app(0).reports_applied();
    versions_total += inst.cluster->app(0).version();
    result.chaos_episodes += inst.chaos_episodes;
    for (const auto& hmi : inst.hmis) {
      result.resyncs += hmi->stats().resyncs_requested;
    }

    // --- per-delta trace completeness ---------------------------------
    const obs::Tracer& tracer = inst.tracer_scope->tracer();
    const auto completeness = tracer.completeness();
    result.deltas_expected += completeness.deltas_expected;
    result.deltas_complete += completeness.deltas_complete;
    const bool chains_ok =
        completeness.deltas_expected > 0 &&
        completeness.deltas_complete == completeness.deltas_expected &&
        completeness.executed_complete == completeness.executed;

    // --- every HMI displays the fleet's ground truth ------------------
    // With no rate limit every device's image must match. Under a rate
    // limit, telemetry for a never-flipped device can be starved
    // (deterministic bucket exhaustion sheds the same sweep positions),
    // so the gate narrows to the front door's actual guarantee: every
    // breaker movement is critical, never shed, and must display.
    bool display_ok = true;
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
      display_ok = display_ok && ok && idx == inst.fleet->device_count();
    }

    if (instances.size() > 1) {
      table.row({"instance " + std::to_string(i), "", "", ""});
    }
    auto gate = [&](const char* name, const std::string& value,
                    const char* expect, bool ok) {
      table.row({name, value, expect, ok ? "yes" : "NO"});
      result.shape = result.shape && ok;
    };
    gate("fleet reports offered",
         std::to_string(ps.deltas_offered) + "/" +
             std::to_string(fleet_stats.reports_emitted),
         "all emitted reach the door", offered_ok);
    gate("front door accounting",
         std::to_string(admitted) + "+" + std::to_string(shed),
         "admitted+shed == offered", door_ok && no_shed_ok);
    gate("critical never shed", std::to_string(door.shed_critical), "0",
         critical_ok);
    gate("batcher conservation", std::to_string(ps.reports_sent),
         "sent == admitted after stop()", sent_ok);
    gate("masters applied",
         std::to_string(inst.cluster->app(0).reports_applied()),
         "every master applies every report", applied_ok);
    gate("per-delta chains",
         std::to_string(completeness.deltas_complete) + "/" +
             std::to_string(completeness.deltas_expected),
         "all complete", chains_ok);
    gate("HMI displays == ground truth",
         std::to_string(inst.hmis.size()) + " HMIs", "byte-equal breakers",
         display_ok);

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

  // --- batching efficiency --------------------------------------------
  result.batch_ratio =
      versions_total > 0 ? static_cast<double>(reports_applied_total) /
                               static_cast<double>(versions_total)
                         : 0.0;
  const bool ratio_ok = result.batch_ratio >= opt.min_batch_ratio;
  char ratio_buf[32], want_buf[32];
  std::snprintf(ratio_buf, sizeof ratio_buf, "%.1f", result.batch_ratio);
  std::snprintf(want_buf, sizeof want_buf, ">= %.1f", opt.min_batch_ratio);
  table.row({"deltas per ordered update", ratio_buf, want_buf,
             ratio_ok ? "yes" : "NO"});
  result.shape = result.shape && ratio_ok;

  const bench::LatencyStats e2e = bench::latency_stats(e2e_ms);
  result.p99_ms = e2e.p99_ms;
  result.p50_ms = e2e.median_ms;
  result.latency_samples = e2e.samples;
  table.print();

  bench::LatencyReporter latency;
  latency.add("update submit->f+1 display", e2e_ms);
  latency.add("field delta->f+1 display", field_ms);
  latency.print("fleet latency");

  std::printf("fleet: %llu reports emitted, %llu shed, %llu batches, "
              "%llu chaos episodes (%llu outputs muted), %llu resyncs\n",
              static_cast<unsigned long long>(result.reports_emitted),
              static_cast<unsigned long long>(result.reports_shed),
              static_cast<unsigned long long>(
                  [&] {
                    std::uint64_t b = 0;
                    for (const auto& in : instances) {
                      b += in->proxy->stats().batches_sent;
                    }
                    return b;
                  }()),
              static_cast<unsigned long long>(result.chaos_episodes),
              static_cast<unsigned long long>([&] {
                std::uint64_t d = 0;
                for (const auto& in : instances) d += in->outputs_dropped;
                return d;
              }()),
              static_cast<unsigned long long>(result.resyncs));
  if (opt.instances > 1 || opt.workers > 1) {
    const sim::KernelStats& ks = result.kernel;
    std::printf("kernel: shards=%u workers=%u parallel_windows=%llu "
                "mails_routed=%llu events=%llu wall=%.2fs\n",
                ks.shards, ks.workers,
                static_cast<unsigned long long>(ks.parallel_windows),
                static_cast<unsigned long long>(ks.mails_routed),
                static_cast<unsigned long long>(result.events),
                result.wall_seconds);
  }

  if (opt.instances > 1) obs::Tracer::set_router(nullptr, nullptr);
  // Newest-first so each scope restores the exact previous current().
  while (!instances.empty()) instances.pop_back();
  return result;
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
  opt.publish_min = std::strtoull(
      bench::flag_value(argc, argv, "--publish-min", "1"), nullptr, 10);
  opt.report_interval =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--report-interval-ms", "500"),
          nullptr, 10)) *
      sim::kMillisecond;
  opt.min_batch_ratio = std::strtod(
      bench::flag_value(argc, argv, "--min-batch-ratio", "3.0"), nullptr);
  opt.chaos = bench::has_flag(argc, argv, "--chaos");
  if (bench::has_flag(argc, argv, "--chaos-seed")) {
    opt.chaos = true;
    opt.chaos_seed = std::strtoull(
        bench::flag_value(argc, argv, "--chaos-seed", "0"), nullptr, 10);
  }
  if (opt.instances == 0) opt.instances = 1;
  if (opt.workers == 0) opt.workers = 1;
  const double max_p99_ratio = std::strtod(
      bench::flag_value(argc, argv, "--max-p99-ratio", "2.0"), nullptr);

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
      "E9", "fleet-scale field layer (DESIGN.md §9)",
      "Sharded device image + delta batching + proxy front door sustain "
      "10k devices and 1k HMIs with zero missed deltas and flat p99");

  std::vector<RunResult> runs;
  bool shape = true;
  for (const std::size_t devices : curve) {
    Options run_opt = opt;
    run_opt.devices = devices;
    run_opt.banner = curve.size() > 1;
    runs.push_back(run_fleet(run_opt));
    shape = shape && runs.back().shape;
  }

  double p99_ratio = 1.0;
  if (runs.size() > 1 && runs.front().p99_ms > 0) {
    p99_ratio = runs.back().p99_ms / runs.front().p99_ms;
    const bool flat = p99_ratio <= max_p99_ratio;
    std::printf("\np99 scaling %zu->%zu devices: %.1f ms -> %.1f ms "
                "(ratio %.2f, max %.2f): %s\n",
                runs.front().devices, runs.back().devices, runs.front().p99_ms,
                runs.back().p99_ms, p99_ratio, max_p99_ratio,
                flat ? "FLAT" : "VIOLATED");
    shape = shape && flat;
  }

  // Committed-baseline gate (CI): absolute bounds from the repo.
  const char* baseline_path = bench::flag_value(argc, argv, "--baseline", "");
  if (baseline_path[0] != '\0') {
    const auto baseline = bench::Baseline::load(baseline_path);
    if (!baseline) {
      shape = false;
    } else {
      const double p99_max = (*baseline)["p99_ms_max"];
      const double batch_min = (*baseline)["batch_ratio_min"];
      const double ratio_max = (*baseline)["curve_p99_ratio_max"];
      const double worst_p99 =
          std::max_element(runs.begin(), runs.end(),
                           [](const RunResult& a, const RunResult& b) {
                             return a.p99_ms < b.p99_ms;
                           })
              ->p99_ms;
      bool ok = worst_p99 <= p99_max;
      std::printf("baseline p99: %.1f ms (max %.1f ms): %s\n", worst_p99,
                  p99_max, ok ? "OK" : "REGRESSED");
      shape = shape && ok;
      const double worst_batch =
          std::min_element(runs.begin(), runs.end(),
                           [](const RunResult& a, const RunResult& b) {
                             return a.batch_ratio < b.batch_ratio;
                           })
              ->batch_ratio;
      ok = worst_batch >= batch_min;
      std::printf("baseline batch ratio: %.1f (min %.1f): %s\n", worst_batch,
                  batch_min, ok ? "OK" : "REGRESSED");
      shape = shape && ok;
      if (runs.size() > 1) {
        ok = p99_ratio <= ratio_max;
        std::printf("baseline curve p99 ratio: %.2f (max %.2f): %s\n",
                    p99_ratio, ratio_max, ok ? "OK" : "REGRESSED");
        shape = shape && ok;
      }
    }
  }

  if (bench::has_flag(argc, argv, "--json")) {
    const char* json_path =
        bench::flag_value(argc, argv, "--json", "FLEET_summary.json");
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fleet_field\",\n  \"hmis\": " << opt.hmis
        << ",\n  \"chaos\": " << (opt.chaos ? "true" : "false")
        << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      char line[512];
      std::snprintf(
          line, sizeof line,
          "    {\"devices\": %zu, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
          "\"samples\": %zu, \"batch_ratio\": %.2f, \"reports\": %llu, "
          "\"shed\": %llu, \"deltas_complete\": %llu, \"resyncs\": %llu, "
          "\"chaos_episodes\": %llu, \"events_per_sec\": %.0f, "
          "\"wall_seconds\": %.3f, \"shape\": %s}%s\n",
          r.devices, r.p50_ms, r.p99_ms, r.latency_samples, r.batch_ratio,
          static_cast<unsigned long long>(r.reports_sent),
          static_cast<unsigned long long>(r.reports_shed),
          static_cast<unsigned long long>(r.deltas_complete),
          static_cast<unsigned long long>(r.resyncs),
          static_cast<unsigned long long>(r.chaos_episodes),
          r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                             : 0.0,
          r.wall_seconds, r.shape ? "true" : "false",
          i + 1 < runs.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    std::printf("wrote fleet summary to %s\n", json_path);
  }

  std::printf("\nShape check: fleet-scale field layer with zero missed "
              "deltas: %s\n", shape ? "HOLDS" : "VIOLATED");
  return shape ? 0 : 1;
}
