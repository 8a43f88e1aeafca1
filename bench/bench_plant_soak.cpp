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
//   * replica application states stay byte-identical,
//   * the external overlay's hellos, its link packets per ordered
//     update, and the event kernel's callback pages stay under count
//     ceilings (default length and seed); the most order slots a
//     replica retained stays under its garbage-collection cap, and
//     peak RSS and the most PO-Requests and PO-Request bytes retained
//     are reported.
//
// Fleet options (DESIGN.md §8):
//   * --fleet=F        stand up F independent plant deployments, each
//                      with its own Simulator, metrics registry and
//                      tracer. Same seed + different worker counts must
//                      produce identical metrics and traces per plant —
//                      the determinism regression for the fleet.
//   * --workers=N      run the plants on N threads (plant i on thread
//                      i mod N). A single plant runs on the calling
//                      thread at any N.
//   * --soak-minutes=M scale the soak length (shape gates scale too).
//   * --workers-list=1,2,4  run the soak once per worker count and
//                      record the scaling curve in the --json report.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

constexpr std::uint64_t kDefaultChaosSeed = 0xC7A05;
constexpr sim::Time kDefaultSoak = 5 * sim::kMinute;

/// Ceilings on what the external overlay sends and on the most callback
/// pages the event kernel held at once, each the count measured on the
/// default-length soak plus 10%. The counts are deterministic for a
/// seed, so crossing one means the overlay's control plane changed or
/// the kernel's memory no longer follows the events pending. They are
/// calibrated for the default length and chaos seed only; other runs
/// report the counts.
struct Ceilings {
  double hellos;
  double packets_per_update;
  double callback_pages;
};
constexpr Ceilings kDefaultCeilings{94575, 88.4, 61.6};
constexpr Ceilings kChaosCeilings{95031, 112.1, 70.4};

struct SoakOptions {
  bool chaos = false;
  std::uint64_t chaos_seed = kDefaultChaosSeed;
  unsigned workers = 1;
  std::size_t fleet = 1;
  sim::Time soak = kDefaultSoak;
  bool want_metrics = false;
  bool want_trace = false;
  const char* metrics_path = "SOAK_metrics.json";
  const char* trace_path = "SOAK_trace.jsonl";
  std::string prefix;  // row prefix when scanning multiple worker counts
};

// One plant deployment with its own simulator and observability
// scope. The simulator comes first and the scopes before the
// deployment, so reverse member destruction tears the deployment down
// while the registry its Binders tombstone into is still alive.
struct Instance {
  sim::Simulator sim;
  std::unique_ptr<obs::ScopedRegistry> registry_scope;
  std::unique_ptr<obs::ScopedTracer> tracer_scope;
  std::unique_ptr<scada::SpireDeployment> sys;
  std::unique_ptr<prime::ProactiveRecovery> recovery;
  std::unique_ptr<sim::ChaosInjector> chaos;
  std::map<std::pair<std::string, std::size_t>, int> field_transitions;
  std::vector<std::map<std::pair<std::string, std::size_t>, int>>
      hmi_transitions;
  sim::Time max_stale_window = 0;
  sim::Time stale_since = 0;
  std::uint64_t last_version = 0;
};

/// Runs one plant's soak on the calling thread: warm-up, proactive
/// recovery, optional chaos, the sampled soak and the settle tail.
void run_plant(const SoakOptions& opt, std::size_t index, Instance& inst) {
  obs::UseRegistry use_registry(inst.registry_scope->registry());
  obs::UseTracer use_tracer(inst.tracer_scope->tracer());
  sim::Simulator& sim = inst.sim;
  sim.run_until(3 * sim::kSecond);
  inst.recovery->start();

  // The soak: 5 simulated minutes standing in for 6 days (scaled by
  // --soak-minutes), sampled every 10 s to find the largest HMI
  // staleness window.
  const sim::Time soak_end = sim.now() + opt.soak;

  // Optional chaos: randomized partitions and link degradation layered
  // on top of the recovery cycle. Crash-restarts stay off so chaos plus
  // one in-flight rejuvenation stays within the f=1,k=1 envelope; the
  // schedule ends 30 s before the soak does, leaving the settle window
  // fault-free. Fleet instances perturb their seed by index so the
  // plants see distinct (still deterministic) fault schedules.
  if (opt.chaos) {
    inst.chaos = inst.sys->make_chaos();
    inst.chaos->add_random_schedule(
        sim::Rng(opt.chaos_seed + index), sim.now() + 10 * sim::kSecond,
        soak_end - 30 * sim::kSecond,
        /*mean_gap=*/20 * sim::kSecond,
        /*min_duration=*/2 * sim::kSecond,
        /*max_duration=*/6 * sim::kSecond, inst.sys->n(),
        /*include_crashes=*/false);
    inst.chaos->arm();
  }

  inst.stale_since = sim.now();
  inst.last_version = inst.sys->hmi(0).displayed_version();
  while (sim.now() < soak_end) {
    sim.run_until(sim.now() + 10 * sim::kSecond);
    const std::uint64_t v = inst.sys->hmi(0).displayed_version();
    if (v != inst.last_version) {
      inst.last_version = v;
      inst.stale_since = sim.now();
    } else {
      inst.max_stale_window =
          std::max(inst.max_stale_window, sim.now() - inst.stale_since);
    }
  }

  // Settle.
  inst.sys->cycler()->stop();
  if (inst.chaos) inst.chaos->stop();
  inst.recovery->stop();
  sim.run_until(sim.now() + 8 * sim::kSecond);
}

/// Runs one soak and declares its rows; returns its wall seconds.
double run_soak(const SoakOptions& opt, bench::Report& report) {
  if (!opt.prefix.empty()) {
    std::printf("=== soak run: workers=%u fleet=%zu ===\n", opt.workers,
                opt.fleet);
  }
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
  // on this thread exactly until the next instance's shadow them — so
  // every component binds into its own plant's registry and tracer.
  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(opt.fleet);
  for (std::size_t i = 0; i < opt.fleet; ++i) {
    auto in = std::make_unique<Instance>();
    auto sim_time = [&sim = in->sim] {
      return static_cast<std::uint64_t>(sim.now());
    };
    in->registry_scope = std::make_unique<obs::ScopedRegistry>(sim_time);
    in->tracer_scope = std::make_unique<obs::ScopedTracer>(sim_time);
    in->sys = std::make_unique<scada::SpireDeployment>(in->sim, config);
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

  const auto wall_start = std::chrono::steady_clock::now();
  bench::run_instances(opt.fleet, opt.workers, [&](std::size_t i) {
    run_plant(opt, i, *instances[i]);
  });
  const auto wall_end = std::chrono::steady_clock::now();

  // Shape gates scale with the soak length; the constants reproduce the
  // legacy thresholds (recoveries >= 2n, field transitions > 200) at
  // the default 5-minute soak with n=6 and a 1 Hz cycler.
  const std::uint64_t soak_seconds = opt.soak / sim::kSecond;
  const std::uint64_t min_recoveries =
      std::max<std::uint64_t>(2, soak_seconds / 15 * 3 / 5);
  const int min_field = static_cast<int>(soak_seconds * 2 / 3);

  using bench::Cmp;
  std::uint64_t total_recoveries = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    Instance& inst = *instances[i];
    scada::SpireDeployment& spire_sys = *inst.sys;
    prime::ProactiveRecovery& recovery = *inst.recovery;
    obs::Tracer& tracer = inst.tracer_scope->tracer();
    const std::string p =
        opt.prefix + (opt.fleet > 1 ? "plant " + std::to_string(i) + ": " : "");

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

    report.add(p + "soak length (simulated, scales 6 days)",
               static_cast<double>(opt.soak / sim::kMinute), "min");
    report.check(p + "breaker transitions in the field", total_field,
                 Cmp::kGt, min_field);
    for (std::size_t j = 0; j < config.hmi_count; ++j) {
      report.check(p + "HMI " + std::to_string(j) + " missed transitions",
                   missed[j], Cmp::kEq, 0);
    }
    report.check(p + "largest HMI staleness window",
                 static_cast<double>(inst.max_stale_window) / sim::kSecond,
                 Cmp::kLe, 20, "s");
    const obs::MetricsRegistry& registry = inst.registry_scope->registry();
    bench::add_recovery_rows(report, p, registry, config.k, min_recoveries);
    report.check(p + "live replicas", live, Cmp::kGe, 5);
    report.check(p + "live replicas with byte-identical state", max_agree,
                 Cmp::kEq, live);
    // Trace completeness: every executed update must carry the full
    // ordered chain (submit → replica recv → PO-Request → Pre-Prepare →
    // Commit → execute, non-decreasing in time), and every displayed one
    // whose reports carry a field change must chain back to the PLC.
    // Deltas are counted by constituent device delta, not by ordered
    // update: a batched update that lost one of its member deltas would
    // still pass the per-update rows.
    const obs::Tracer::Completeness completeness = tracer.completeness();
    report.add(p + "trace spans", static_cast<double>(tracer.spans().size()));
    report.check(p + "updates executed (traced)",
                 static_cast<double>(completeness.executed), Cmp::kGt, 0);
    report.check(p + "executed updates with complete ordered span chain",
                 static_cast<double>(completeness.executed_complete), Cmp::kEq,
                 static_cast<double>(completeness.executed));
    report.check(p + "updates displayed on an HMI (traced)",
                 static_cast<double>(completeness.displayed), Cmp::kGt, 0);
    report.check(p + "displayed updates with complete PLC->HMI chain",
                 static_cast<double>(completeness.displayed_complete),
                 Cmp::kEq, static_cast<double>(completeness.displayed));
    report.check(p + "device deltas expected",
                 static_cast<double>(completeness.deltas_expected), Cmp::kGt,
                 0);
    report.check(p + "device deltas with complete chains",
                 static_cast<double>(completeness.deltas_complete), Cmp::kEq,
                 static_cast<double>(completeness.deltas_expected));
    bench::add_overlay_rows(report, p + "internal",
                            spire_sys.internal_overlay(), registry);
    bench::add_overlay_rows(report, p + "external",
                            spire_sys.external_overlay(), registry);
    spines::Overlay& external = spire_sys.external_overlay();
    const auto hellos = static_cast<double>(
        bench::overlay_metric(registry, external, "hellos_sent"));
    const double packets_per_update =
        completeness.executed > 0
            ? static_cast<double>(
                  bench::overlay_metric(registry, external, "packets_sent")) /
                  static_cast<double>(completeness.executed)
            : 0.0;
    const auto pages =
        static_cast<double>(inst.sim.callback_pages_high_water());
    const std::string hellos_row = p + "external hellos sent";
    const std::string packets_row =
        p + "external link packets per ordered update";
    const std::string pages_row = p + "kernel callback pages high-water";
    if (opt.soak == kDefaultSoak &&
        (!opt.chaos || opt.chaos_seed + i == kDefaultChaosSeed)) {
      const Ceilings& ceiling = opt.chaos ? kChaosCeilings : kDefaultCeilings;
      report.check(hellos_row, hellos, Cmp::kLe, ceiling.hellos);
      report.check(packets_row, packets_per_update, Cmp::kLe,
                   ceiling.packets_per_update);
      report.check(pages_row, pages, Cmp::kLe, ceiling.callback_pages);
    } else {
      report.add(hellos_row, hellos);
      report.add(packets_row, packets_per_update);
      report.add(pages_row, pages);
    }
    // Prime's retained state: the most any replica held at once.
    const auto replica_max = [&](const std::string& metric) {
      std::int64_t most = 0;
      for (std::uint32_t r = 0; r < spire_sys.n(); ++r) {
        most = std::max(most, registry.value("prime.replica" +
                                             std::to_string(r) + "." + metric));
      }
      return static_cast<double>(most);
    };
    // Caps from the garbage-collection rule (DESIGN.md §5 "Retained
    // state"): a replica keeps the slack interval, the interval being
    // filled and at most the 16-slot ordering window past it; under
    // chaos a lagging replica holds up to two intervals more before it
    // state-transfers. Proactive recovery wipes a replica every 90 s,
    // so without the rule the peak (~860 slots) would not grow with
    // soak length; the cap is what catches it.
    report.check(p + "Prime retained slots high-water",
                 replica_max("retained_slots_high_water"), Cmp::kLe,
                 static_cast<double>((opt.chaos ? 5 : 3) *
                                     prime::kCheckpointInterval));
    report.add(p + "Prime retained PO-Requests high-water",
               replica_max("retained_po_envelopes_high_water"));
    report.add(p + "Prime retained PO-Request bytes high-water",
               replica_max("retained_po_bytes_high_water"), "B");
    bench::add_switch_drop_rows(report, p, spire_sys);
    if (inst.chaos) {
      const sim::ChaosStats& cs = inst.chaos->stats();
      report.add(p + "chaos seed", static_cast<double>(opt.chaos_seed + i));
      report.add(p + "chaos episodes scheduled",
                 static_cast<double>(inst.chaos->scheduled()));
      report.check(p + "chaos episodes injected",
                   static_cast<double>(cs.injected), Cmp::kGt, 0);
      report.add(p + "chaos partitions", static_cast<double>(cs.partitions));
      report.add(p + "chaos link degrades",
                 static_cast<double>(cs.link_degrades));
      report.add(p + "chaos crash-restarts",
                 static_cast<double>(cs.crash_restarts));
      report.check(p + "chaos episodes healed", static_cast<double>(cs.healed),
                   Cmp::kGe, static_cast<double>(cs.injected));
      report.add(p + "chaos fault time",
                 static_cast<double>(cs.total_fault_time) / sim::kSecond, "s");
      report.require(p + "no chaos fault active at the end",
                     !inst.chaos->fault_active());
    }

    // Per-stage latency breakdown over every traced update (the paper's
    // Fig. 2 path, plus the two summary legs).
    for (auto& leg : tracer.breakdown()) {
      if (!leg.samples_ms.empty()) {
        report.latency.add(p + leg.name, std::move(leg.samples_ms));
      }
    }

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
    total_recoveries += recovery.recoveries_completed();
  }

  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::uint64_t events = 0;
  for (const auto& in : instances) events += in->sim.events_executed();
  const std::string& p = opt.prefix;
  report.add(p + "recoveries completed, all plants",
             static_cast<double>(total_recoveries));
  report.add(p + "kernel workers", opt.workers);
  report.add(p + "events executed", static_cast<double>(events));
  report.add(p + "wall", wall_seconds, "s");
  report.add(p + "events per wall second",
             wall_seconds > 0 ? static_cast<double>(events) / wall_seconds
                              : 0.0);
  // Process-wide and cumulative: with --workers-list, later runs read
  // the peak of every run so far.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.add(p + "peak RSS", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");

  // Instances must go down newest-first so each ScopedRegistry /
  // ScopedTracer restores the exact previous current() on its way out.
  while (!instances.empty()) instances.pop_back();
  return wall_seconds;
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

  // --workers-list=1,2,4 runs the soak once per worker count (same seed
  // and fleet) and records the scaling curve in the --json report.
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

  bench::Report report(
      "plant_soak",
      "uninterrupted operation across the scaled soak, through proactive "
      "recoveries, with all three HMIs tracking perfectly");
  double first_wall = 0;
  for (const unsigned w : worker_counts) {
    SoakOptions run_opt = opt;
    run_opt.workers = w;
    if (worker_counts.size() > 1) {
      run_opt.prefix = "workers=" + std::to_string(w) + ": ";
    }
    const double wall = run_soak(run_opt, report);
    if (first_wall == 0) first_wall = wall;
    if (worker_counts.size() > 1) {
      report.add(run_opt.prefix + "speedup vs first",
                 wall > 0 ? first_wall / wall : 0.0, "x");
    }
  }
  report.latency.print("pipeline stage");
  std::printf("\n");
  return report.finish(argc, argv);
}
