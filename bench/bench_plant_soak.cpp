// Experiment E6 — §V (power-plant continuous test deployment).
//
// "Spire and MANA were continuously deployed without interruption or
// adverse effects on the plant systems for six days", with six diverse
// replicas, proactive recovery, the real 3-breaker topology plus 16
// emulated PLCs, and HMIs in three plant locations.
//
// Time substitution (DESIGN.md §3): the six wall-clock days scale to
// five simulated minutes with proportionally scaled recovery periods —
// the system still crosses every recovery boundary many times, which is
// what the soak actually exercises. Measured invariants:
//   * zero missed breaker transitions on every HMI,
//   * the HMI version advances throughout (no blackout window),
//   * proactive recovery cycles through all replicas repeatedly,
//   * replica application states stay byte-identical.
//
// Parallel-kernel options (DESIGN.md §8):
//   * --workers=N      run the sim kernel with N worker threads. The
//                      single-plant soak lives entirely on shard 0, so
//                      its results are byte-identical at any N.
//   * --fleet=F        stand up F independent plant deployments, one
//                      per parallel shard, each with its own metrics
//                      registry and tracer (hooks are routed per shard
//                      via Tracer::set_router). Shard 0 stays a pure
//                      driver. Same seed + different worker counts must
//                      produce identical metrics and traces per plant —
//                      that is the kernel's determinism regression.
//   * --soak-minutes=M scale the soak length (shape gates scale too).
//   * --workers-list=1,2,4  run the soak once per worker count and
//                      record the scaling curve in the --json summary.
// The flagless run takes the exact legacy single-shard path.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

struct SoakOptions {
  bool chaos = false;
  std::uint64_t chaos_seed = 0xC7A05;
  unsigned workers = 1;
  std::size_t fleet = 1;
  sim::Time soak = 5 * sim::kMinute;
  bool want_metrics = false;
  bool want_trace = false;
  const char* metrics_path = "SOAK_metrics.json";
  const char* trace_path = "SOAK_trace.jsonl";
  bool banner = false;  // printed when scanning multiple worker counts
};

struct SoakResult {
  bool shape = true;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t recoveries = 0;
  sim::KernelStats kernel;
};

// One plant deployment with its own observability scope. The scopes
// are declared (and constructed) before the deployment so reverse
// member destruction tears the deployment down while the registry its
// Binders tombstone into is still alive.
struct Instance {
  sim::ShardId shard = sim::kMainShard;
  std::unique_ptr<obs::ScopedRegistry> registry_scope;
  std::unique_ptr<obs::ScopedTracer> tracer_scope;
  std::unique_ptr<scada::SpireDeployment> sys;
  std::unique_ptr<prime::ProactiveRecovery> recovery;
  std::unique_ptr<sim::ChaosInjector> chaos;
  std::map<std::pair<std::string, std::size_t>, int> field_transitions;
  std::vector<std::map<std::pair<std::string, std::size_t>, int>>
      hmi_transitions;
  std::vector<std::uint64_t> version_samples;
  sim::Time max_stale_window = 0;
  sim::Time stale_since = 0;
  std::uint64_t last_version = 0;
};

// Fleet tracer routing: hooks fired from a plant's shard resolve to
// that plant's tracer. Called from worker threads; reads only.
struct TracerRouterCtx {
  const sim::Simulator* sim = nullptr;
  std::vector<obs::Tracer*> by_shard;
};

obs::Tracer* route_tracer(void* ctx_raw) {
  auto* ctx = static_cast<TracerRouterCtx*>(ctx_raw);
  const sim::ShardId shard = ctx->sim->current_shard();
  return shard < ctx->by_shard.size() ? ctx->by_shard[shard] : nullptr;
}

SoakResult run_soak(const SoakOptions& opt) {
  if (opt.banner) {
    std::printf("\n=== soak run: workers=%u fleet=%zu ===\n", opt.workers,
                opt.fleet);
  }
  sim::Simulator sim;
  sim.set_workers(opt.workers);
  auto sim_time = [&sim] { return static_cast<std::uint64_t>(sim.now()); };

  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 1;
  config.scenario = scada::ScenarioSpec::power_plant();
  config.cycler_interval = 1 * sim::kSecond;
  config.hmi_count = 3;  // three locations throughout the plant

  // Observability is always on for the soak: every component binds its
  // stats into a scoped registry and every update is traced PLC→HMI.
  // The scopes must open before each deployment is built (registration
  // happens in constructors), and each instance's scopes stay current
  // exactly until the next instance's shadow them — so every component
  // binds into its own plant's registry and tracer.
  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(opt.fleet);
  for (std::size_t i = 0; i < opt.fleet; ++i) {
    auto in = std::make_unique<Instance>();
    // The single-plant soak stays on the main shard (the kernel's
    // legacy fast path); a fleet pins each plant to its own parallel
    // shard and leaves shard 0 as a pure driver.
    in->shard = opt.fleet == 1
                    ? sim::kMainShard
                    : sim.register_shard("plant." + std::to_string(i));
    sim::ShardScope scope(sim, in->shard);
    in->registry_scope = std::make_unique<obs::ScopedRegistry>(sim_time);
    in->tracer_scope = std::make_unique<obs::ScopedTracer>(sim_time);
    in->sys = std::make_unique<scada::SpireDeployment>(sim, config);
    Instance& inst = *in;
    inst.hmi_transitions.resize(config.hmi_count);

    // Per-HMI transition tracking against field ground truth.
    for (const auto& device : config.scenario.devices) {
      const std::string name = device.name;
      inst.sys->plc(name).breakers().add_observer(
          [&inst, name](std::size_t index, bool, sim::Time) {
            inst.field_transitions[{name, index}]++;
          });
    }
    for (std::size_t j = 0; j < config.hmi_count; ++j) {
      inst.sys->hmi(j).set_display_observer(
          [&inst, j](const std::string& device, std::size_t index, bool,
                     sim::Time) { inst.hmi_transitions[j][{device, index}]++; });
    }

    inst.sys->start();
    inst.recovery = inst.sys->make_recovery(
        prime::RecoveryConfig{15 * sim::kSecond, 1 * sim::kSecond});
    instances.push_back(std::move(in));
  }

  TracerRouterCtx router_ctx;
  if (opt.fleet > 1) {
    router_ctx.sim = &sim;
    router_ctx.by_shard.assign(sim.shard_count(), nullptr);
    for (const auto& in : instances) {
      router_ctx.by_shard[in->shard] = &in->tracer_scope->tracer();
    }
    obs::Tracer::set_router(&route_tracer, &router_ctx);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t events_start = sim.events_executed();
  sim.run_until(3 * sim::kSecond);
  for (auto& in : instances) {
    sim::ShardScope scope(sim, in->shard);
    in->recovery->start();
  }

  // The soak: 5 simulated minutes standing in for 6 days (scaled by
  // --soak-minutes), sampled every 10 s to find the largest HMI
  // staleness window.
  const sim::Time soak = opt.soak;
  const sim::Time soak_end = sim.now() + soak;

  // Optional chaos: randomized partitions and link degradation layered
  // on top of the recovery cycle. Crash-restarts stay off so chaos plus
  // one in-flight rejuvenation stays within the f=1,k=1 envelope; the
  // schedule ends 30 s before the soak does, leaving the settle window
  // fault-free. Fleet instances perturb their seed by index so the
  // plants see distinct (still deterministic) fault schedules.
  if (opt.chaos) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = *instances[i];
      sim::ShardScope scope(sim, inst.shard);
      inst.chaos = inst.sys->make_chaos();
      inst.chaos->add_random_schedule(
          sim::Rng(opt.chaos_seed + i), sim.now() + 10 * sim::kSecond,
          soak_end - 30 * sim::kSecond,
          /*mean_gap=*/20 * sim::kSecond,
          /*min_duration=*/2 * sim::kSecond,
          /*max_duration=*/6 * sim::kSecond, inst.sys->n(),
          /*include_crashes=*/false);
      inst.chaos->arm();
      if (opt.fleet > 1) std::printf("plant %zu ", i);
      std::printf("chaos mode: %zu scheduled fault episodes (seed %llu)\n",
                  inst.chaos->scheduled(),
                  static_cast<unsigned long long>(opt.chaos_seed + i));
    }
  }

  for (auto& in : instances) {
    in->stale_since = sim.now();
    in->last_version = in->sys->hmi(0).displayed_version();
  }
  while (sim.now() < soak_end) {
    sim.run_until(sim.now() + 10 * sim::kSecond);
    for (auto& in : instances) {
      const std::uint64_t v = in->sys->hmi(0).displayed_version();
      in->version_samples.push_back(v);
      if (v != in->last_version) {
        in->last_version = v;
        in->stale_since = sim.now();
      } else {
        in->max_stale_window =
            std::max(in->max_stale_window, sim.now() - in->stale_since);
      }
    }
  }

  // Settle, then tally.
  for (auto& in : instances) {
    sim::ShardScope scope(sim, in->shard);
    in->sys->cycler()->stop();
    if (in->chaos) in->chaos->stop();
    in->recovery->stop();
  }
  sim.run_until(sim.now() + 8 * sim::kSecond);
  const auto wall_end = std::chrono::steady_clock::now();

  // Shape gates scale with the soak length; the constants reproduce the
  // legacy thresholds (recoveries >= 2n, field transitions > 200) at
  // the default 5-minute soak with n=6 and a 1 Hz cycler.
  const std::uint64_t soak_seconds = soak / sim::kSecond;
  const std::uint64_t min_recoveries =
      std::max<std::uint64_t>(2, soak_seconds / 15 * 3 / 5);
  const int min_field = static_cast<int>(soak_seconds * 2 / 3);

  SoakResult result;
  std::uint64_t total_recoveries = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    Instance& inst = *instances[i];
    scada::SpireDeployment& spire_sys = *inst.sys;
    prime::ProactiveRecovery& recovery = *inst.recovery;
    obs::Tracer& tracer = inst.tracer_scope->tracer();
    if (opt.fleet > 1) std::printf("\n--- plant instance %zu ---\n", i);

    int total_field = 0;
    std::vector<int> missed(config.hmi_count, 0);
    for (const auto& [key, count] : inst.field_transitions) {
      total_field += count;
      for (std::size_t j = 0; j < config.hmi_count; ++j) {
        missed[j] += std::max(0, count - inst.hmi_transitions[j][key]);
      }
    }

    // Replica state agreement at the end.
    std::map<crypto::Digest, int> digests;
    int live = 0;
    for (std::uint32_t r = 0; r < spire_sys.n(); ++r) {
      if (!spire_sys.replica(r).running() || spire_sys.replica(r).recovering()) {
        continue;
      }
      ++live;
      ++digests[spire_sys.master(r).state().digest()];
    }
    int max_agree = 0;
    for (const auto& [digest, count] : digests) {
      max_agree = std::max(max_agree, count);
    }

    bench::Table table({"metric", "measured", "paper expectation"});
    table.row({"soak length (simulated)",
               std::to_string(soak / sim::kMinute) + " min (scaled 6 days)",
               "6 days continuous"});
    table.row({"breaker transitions in the field", std::to_string(total_field),
               "continuous cycling workload"});
    for (std::size_t j = 0; j < config.hmi_count; ++j) {
      table.row({"HMI " + std::to_string(j) + " missed transitions",
                 std::to_string(missed[j]), "0 (no interruption)"});
    }
    table.row({"largest HMI staleness window",
               std::to_string(inst.max_stale_window / sim::kSecond) + " s",
               "none beyond normal update cadence"});
    table.row({"proactive recoveries completed",
               std::to_string(recovery.recoveries_completed()),
               "periodic rejuvenation of all replicas"});
    table.row({"in-flight recoveries high-water",
               std::to_string(recovery.stats().in_flight_high_water) + " (k=" +
                   std::to_string(config.k) + ")",
               "never exceeds k simultaneous"});
    table.row({"live replicas with byte-identical state",
               std::to_string(max_agree) + "/" + std::to_string(live),
               "all (consistent replication)"});
    // Trace completeness: every executed update must carry the full
    // ordered chain (submit → replica recv → PO-Request → Pre-Prepare →
    // Commit → execute, non-decreasing in time).
    const obs::Tracer::Completeness completeness = tracer.completeness();
    table.row({"updates executed (traced)",
               std::to_string(completeness.executed), "continuous ordering"});
    table.row({"… with complete ordered span chain",
               std::to_string(completeness.executed_complete) + "/" +
                   std::to_string(completeness.executed),
               "all (every stage observed, in order)"});
    table.row({"updates displayed on an HMI (traced)",
               std::to_string(completeness.displayed_complete) + "/" +
                   std::to_string(completeness.displayed) + " complete chains",
               "full PLC→HMI spans"});
    // Count by constituent device delta, not by ordered update: a
    // batched update that lost one of its member deltas would still
    // pass the per-update gates above.
    table.row({"device deltas with complete chains",
               std::to_string(completeness.deltas_complete) + "/" +
                   std::to_string(completeness.deltas_expected),
               "all (zero missed deltas)"});
    table.print();

    // Per-stage latency breakdown over every traced update (the paper's
    // Fig. 2 path, plus the two summary legs).
    std::printf("\nPer-stage latency breakdown (%zu spans):\n",
                tracer.spans().size());
    bench::LatencyReporter stage_report;
    for (auto& leg : tracer.breakdown()) {
      if (!leg.samples_ms.empty()) {
        stage_report.add(leg.name, std::move(leg.samples_ms));
      }
    }
    stage_report.print("pipeline stage");

    if (opt.want_metrics) {
      const std::string path =
          opt.fleet == 1 ? std::string(opt.metrics_path)
                         : std::string(opt.metrics_path) + "." +
                               std::to_string(i);
      std::ofstream out(path);
      out << inst.registry_scope->registry().snapshot_json();
      std::printf("wrote metrics snapshot to %s\n", path.c_str());
    }
    if (opt.want_trace) {
      const std::string path =
          opt.fleet == 1 ? std::string(opt.trace_path)
                         : std::string(opt.trace_path) + "." +
                               std::to_string(i);
      if (tracer.write_jsonl(path)) {
        std::printf("wrote %zu trace spans to %s\n", tracer.spans().size(),
                    path.c_str());
      }
    }

    bool shape = recovery.recoveries_completed() >= min_recoveries &&
                 completeness.executed > 0 &&
                 completeness.executed_complete == completeness.executed &&
                 completeness.deltas_expected > 0 &&
                 completeness.deltas_complete == completeness.deltas_expected &&
                 completeness.displayed > 0 &&
                 recovery.stats().in_flight_high_water <= config.k &&
                 max_agree == live && live >= 5 && total_field > min_field &&
                 inst.max_stale_window <= 20 * sim::kSecond;
    for (std::size_t j = 0; j < config.hmi_count; ++j) {
      shape = shape && missed[j] == 0;
    }
    std::printf("\n");
    bench::print_overlay_stats("internal", spire_sys.internal_overlay());
    bench::print_overlay_stats("external", spire_sys.external_overlay());
    bench::print_switch_drops(spire_sys);
    bench::print_recovery_stats("soak", recovery.stats());
    if (inst.chaos) {
      bench::print_chaos_stats(inst.chaos->stats());
      shape = shape && inst.chaos->stats().injected > 0 &&
              inst.chaos->stats().healed >= inst.chaos->stats().injected &&
              !inst.chaos->fault_active();
    }
    total_recoveries += recovery.recoveries_completed();
    result.shape = result.shape && shape;
  }

  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = sim.events_executed() - events_start;
  result.recoveries = total_recoveries;
  result.kernel = sim.kernel_stats();
  if (opt.fleet > 1 || opt.workers > 1) {
    const sim::KernelStats& ks = result.kernel;
    std::printf("\nkernel: shards=%u workers=%u parallel_windows=%llu "
                "exclusive_batches=%llu mails_routed=%llu "
                "lookahead_violations=%llu events=%llu wall=%.2fs\n",
                ks.shards, ks.workers,
                static_cast<unsigned long long>(ks.parallel_windows),
                static_cast<unsigned long long>(ks.exclusive_batches),
                static_cast<unsigned long long>(ks.mails_routed),
                static_cast<unsigned long long>(ks.lookahead_violations),
                static_cast<unsigned long long>(result.events),
                result.wall_seconds);
  }

  std::printf("\nShape check vs paper: uninterrupted operation across the "
              "scaled soak, through %llu proactive recoveries, with all "
              "three HMIs tracking perfectly: %s\n",
              static_cast<unsigned long long>(total_recoveries),
              result.shape ? "HOLDS" : "VIOLATED");

  if (opt.fleet > 1) obs::Tracer::set_router(nullptr, nullptr);
  // Instances must go down newest-first so each ScopedRegistry /
  // ScopedTracer restores the exact previous current() on its way out.
  while (!instances.empty()) instances.pop_back();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      opt.chaos = true;
    } else if (std::strncmp(argv[i], "--chaos-seed=", 13) == 0) {
      opt.chaos = true;
      opt.chaos_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    }
  }
  opt.workers = static_cast<unsigned>(
      std::strtoul(bench::flag_value(argc, argv, "--workers", "1"), nullptr, 10));
  opt.fleet = static_cast<std::size_t>(
      std::strtoul(bench::flag_value(argc, argv, "--fleet", "1"), nullptr, 10));
  if (opt.workers == 0) opt.workers = 1;
  if (opt.fleet == 0) opt.fleet = 1;
  opt.soak = static_cast<sim::Time>(std::strtoul(
                 bench::flag_value(argc, argv, "--soak-minutes", "5"), nullptr,
                 10)) *
             sim::kMinute;
  if (opt.soak < sim::kMinute) opt.soak = sim::kMinute;
  opt.want_metrics = bench::has_flag(argc, argv, "--metrics-json");
  opt.want_trace = bench::has_flag(argc, argv, "--trace-out");
  opt.metrics_path =
      bench::flag_value(argc, argv, "--metrics-json", "SOAK_metrics.json");
  opt.trace_path =
      bench::flag_value(argc, argv, "--trace-out", "SOAK_trace.jsonl");
  const bool want_json = bench::has_flag(argc, argv, "--json");
  const char* json_path =
      bench::flag_value(argc, argv, "--json", "SOAK_summary.json");

  // --workers-list=1,2,4 runs the soak once per worker count (same seed
  // and fleet) and records the scaling curve in the --json summary.
  std::vector<unsigned> worker_counts;
  const char* list = bench::flag_value(argc, argv, "--workers-list", "");
  for (const char* p = list; *p != '\0';) {
    char* end = nullptr;
    const unsigned long w = std::strtoul(p, &end, 10);
    if (end == p) break;
    if (w > 0) worker_counts.push_back(static_cast<unsigned>(w));
    p = (*end == ',') ? end + 1 : end;
  }
  if (worker_counts.empty()) worker_counts.push_back(opt.workers);

  bench::init_logging(argc, argv);
  bench::print_header(
      "E6", "§V (six-day deployment)",
      "Spire runs continuously under workload with proactive recovery and "
      "three HMIs, with no interruption of SCADA service");

  std::vector<std::pair<unsigned, SoakResult>> runs;
  bool shape = true;
  for (const unsigned w : worker_counts) {
    SoakOptions run_opt = opt;
    run_opt.workers = w;
    run_opt.banner = worker_counts.size() > 1;
    runs.emplace_back(w, run_soak(run_opt));
    shape = shape && runs.back().second.shape;
  }

  if (want_json) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"plant_soak\",\n";
    out << "  \"fleet\": " << opt.fleet << ",\n";
    out << "  \"soak_minutes\": " << opt.soak / sim::kMinute << ",\n";
    out << "  \"chaos\": " << (opt.chaos ? "true" : "false") << ",\n";
    out << "  \"runs\": [\n";
    const double base_wall = runs.front().second.wall_seconds;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const SoakResult& r = runs[i].second;
      char line[512];
      std::snprintf(
          line, sizeof line,
          "    {\"workers\": %u, \"wall_seconds\": %.3f, \"events\": %llu, "
          "\"events_per_sec\": %.0f, \"speedup_vs_first\": %.3f, "
          "\"parallel_windows\": %llu, \"exclusive_batches\": %llu, "
          "\"mails_routed\": %llu, \"lookahead_violations\": %llu, "
          "\"shards\": %u, \"recoveries\": %llu, \"shape\": %s}%s\n",
          runs[i].first, r.wall_seconds,
          static_cast<unsigned long long>(r.events),
          r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                             : 0.0,
          r.wall_seconds > 0 ? base_wall / r.wall_seconds : 0.0,
          static_cast<unsigned long long>(r.kernel.parallel_windows),
          static_cast<unsigned long long>(r.kernel.exclusive_batches),
          static_cast<unsigned long long>(r.kernel.mails_routed),
          static_cast<unsigned long long>(r.kernel.lookahead_violations),
          r.kernel.shards, static_cast<unsigned long long>(r.recoveries),
          r.shape ? "true" : "false", i + 1 < runs.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    std::printf("wrote soak summary to %s\n", json_path);
  }
  return shape ? 0 : 1;
}
