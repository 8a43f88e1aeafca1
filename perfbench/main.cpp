// perfbench: the repository's benchmark.
//
//   perfbench --workload plant|fleet|wan_chaos --seed N --seconds S --trace 0|1
//
// A run is `kEpisodes` episodes of one workload, each seeded from --seed,
// each with a measured phase whose simulated length is fixed by the
// workload and --seconds (so every simulated result repeats exactly for
// a seed). --trace 0 prints the end-to-end metrics; --trace 1 also runs
// every episode traced, and episode 0 once more with the overlay capture
// tap, and prints the per-layer metrics. See README.md.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "crypto/keyring.hpp"
#include "measure.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using spire::sim::kSecond;
using spire::sim::Time;

constexpr std::size_t kEpisodes = 3;

struct Workload {
  const char* name;
  Episode (*run)(const EpisodeConfig&);
  /// Simulated seconds per host second this workload ran at when the
  /// benchmark was defined; with --seconds it fixes the simulated
  /// length of the measured phase, which then never changes.
  double nominal_speedup;
  Time min_measured;
  bool overlay;  ///< sealed overlay links to capture for the crypto layer
};

const Workload kWorkloads[] = {
    {"plant", &run_plant, 5.5, 20 * kSecond, true},
    {"fleet", &run_fleet, 1.7, 5 * kSecond, false},
    {"wan_chaos", &run_wan_chaos, 9.0, 25 * kSecond, true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: %s needs a value\n", key.c_str());
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  std::uint64_t z = seed * kEpisodes + episode + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Seal + open, through the public SecureChannel, of a plaintext of
/// every captured length. Cost does not depend on content, so the
/// plaintexts are a fixed fill.
double replay_link_crypto(const std::vector<std::uint32_t>& sizes, bool& ok) {
  if (sizes.empty()) return 0.0;
  spire::crypto::Keyring keyring("perfbench-link-replay");
  spire::crypto::SecureChannel channel(keyring.link_key("a", "b"));
  std::uint32_t longest = 0;
  for (const std::uint32_t n : sizes) longest = std::max(longest, n);
  const spire::util::Bytes plain(longest, 0x5A);
  const std::uint64_t t0 = now_ns();
  for (const std::uint32_t n : sizes) {
    const auto sealed =
        channel.seal(std::span<const std::uint8_t>(plain.data(), n));
    const auto opened = channel.open(sealed);
    ok = ok && opened.has_value() && opened->size() == n;
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("  %-40s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  /// A percentile, or a failed check when the rule refuses it.
  void add_percentile(const std::string& name, const std::vector<double>& s,
                      double q, std::vector<std::string>& failures) {
    const Percentile p = percentile(s, q);
    add(name, p.value, "ms",
        "(n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
            " beyond)");
    if (!p.ok) {
      failures.push_back(name + ": only " + std::to_string(p.beyond) +
                         " samples beyond the percentile");
    }
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::vector<double> pooled(const std::vector<Episode>& eps,
                           const std::string& leg) {
  std::vector<double> out;
  for (const Episode& ep : eps) {
    const auto it = ep.legs_ms.find(leg);
    if (it != ep.legs_ms.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

template <typename F>
std::vector<double> each(const std::vector<Episode>& eps, F f) {
  std::vector<double> out;
  for (const Episode& ep : eps) out.push_back(f(ep));
  return out;
}

/// Two runs of one seed must agree on everything simulated.
void check_determinism(const std::vector<Episode>& a,
                       const std::vector<Episode>& b,
                       std::vector<std::string>& failures) {
  for (std::size_t e = 0; e < a.size() && e < b.size(); ++e) {
    const bool same = a[e].field_to_hmi_ms == b[e].field_to_hmi_ms &&
                      a[e].attempted == b[e].attempted &&
                      a[e].failed == b[e].failed && a[e].counts == b[e].counts;
    if (!same) {
      failures.push_back("episode " + std::to_string(e) +
                         ": two runs of one seed differ");
    }
  }
}

/// `capture`: episode 0 run again with the overlay capture tap, or null
/// for a workload with no overlay.
void per_layer(Report& r, const std::vector<Episode>& untraced,
               const std::vector<Episode>& traced, const Episode* capture,
               const SpanRecorder& spans, double field_p50,
               std::vector<std::string>& failures) {
  std::map<std::string, double> c;
  double sim_s = 0;
  for (const Episode& ep : traced) {
    for (const auto& [name, v] : ep.counts) c[name] += v;
    sim_s += ep.measured_sim_s;
  }
  double untraced_host_s = 0, untraced_events = 0;
  for (const Episode& ep : untraced) {
    untraced_host_s += ep.measure_s;
    untraced_events += ep.counts.at("sim.events");
  }
  const double updates = c["prime.updates_executed"];
  const double displays = c["scada.displays"];
  double transitions = c["scada.transitions"];
  double attempted = 0, failed = 0;
  for (const Episode& ep : untraced) {
    attempted += static_cast<double>(ep.attempted);
    failed += static_cast<double>(ep.failed);
  }
  const std::string base_u =
      "(per " + std::to_string(static_cast<long long>(updates)) + " updates)";
  const std::string base_d = "(per " +
                             std::to_string(static_cast<long long>(displays)) +
                             " HMI displays)";

  std::printf("per-layer metrics (measured phase, %zu traced episodes):\n",
              traced.size());
  r.add("sim.events_per_sim_s", ratio(c["sim.events"], sim_s), "1/s");
  r.add("sim.events_per_host_s", ratio(untraced_events, untraced_host_s), "1/s",
        "(untraced)");
  r.add("sim.events_per_update", ratio(c["sim.events"], updates), "count", base_u);
  r.add("sim.events_per_display", ratio(c["sim.events"], displays), "count",
        base_d);

  r.add("net.frames_per_update", ratio(c["net.frames"], updates), "count", base_u);
  r.add("net.frames_per_display", ratio(c["net.frames"], displays), "count",
        base_d);

  // Link crypto, from the capture pass of episode 0 against the untraced
  // run of the same episode.
  const std::vector<std::uint32_t> none;
  const std::vector<std::uint32_t>& sealed =
      capture ? capture->sealed_plaintext : none;
  const double capture_updates =
      capture ? capture->counts.at("prime.updates_executed") : 0.0;
  const double capture_wall_s = untraced.front().measure_s;
  bool replay_ok = true;
  const double replay_s = replay_link_crypto(sealed, replay_ok);
  if (!replay_ok) failures.push_back("link crypto replay failed to open");
  const auto packets = static_cast<double>(sealed.size());
  r.add("crypto.link_packets", packets, "count",
        "(sealed datagrams, episode 0)");
  r.add("crypto.link_packets_per_update", ratio(packets, capture_updates),
        "count",
        "(per " + std::to_string(static_cast<long long>(capture_updates)) +
            " updates, episode 0)");
  r.add("crypto.link_replay_s", replay_s, "s", "(seal + open, replayed)");
  r.add("crypto.link_share", ratio(replay_s, capture_wall_s), "ratio",
        "(of " + std::to_string(capture_wall_s) +
            " s untraced measured wall, episode 0)");

  const double received =
      c["spines.dedup_drops"] + c["spines.data_delivered"] + c["spines.data_forwarded"];
  r.add("spines.dedup_drop_ratio", ratio(c["spines.dedup_drops"], received),
        "ratio", "(of " + std::to_string(static_cast<long long>(received)) +
                     " data packets received)");
  r.add("spines.data_packets_per_update", ratio(received, updates), "count",
        base_u);
  r.add("spines.retransmits", c["spines.retransmits"], "count");
  r.add("spines.queue_drops", c["spines.queue_drops"], "count");
  r.add("spines.route_recomputes", c["spines.route_recomputes"], "count");
  r.add("spines.spf_full_share",
        ratio(c["spines.spf_full"], c["spines.route_recomputes"]), "ratio");
  r.add("spines.control_bytes", c["spines.control_bytes"], "B");
  r.add_percentile("spines.submit_to_replica_p50_ms",
                   pooled(traced, "submit->replica_recv"), 0.5, failures);
  r.add_percentile("spines.publish_to_hmi_p50_ms",
                   pooled(traced, "publish->hmi_recv"), 0.5, failures);

  r.add("prime.updates_executed", updates, "count");
  r.add("prime.preprepares_per_update", ratio(c["prime.preprepares"], updates),
        "count", base_u);
  r.add("prime.verify_cache_hits_per_update",
        ratio(c["prime.verify_cache_hits"], updates), "count", base_u);
  r.add("prime.view_changes", c["prime.view_changes"], "count");
  r.add("prime.state_transfer_bytes", c["prime.state_transfer_bytes"], "B");
  r.add_percentile("prime.recv_to_po_request_p50_ms",
                   pooled(traced, "replica_recv->po_request"), 0.5, failures);
  r.add_percentile("prime.po_request_to_preprepare_p50_ms",
                   pooled(traced, "po_request->preprepare"), 0.5, failures);
  const std::vector<double> s2e = pooled(traced, "submit->execute");
  r.add_percentile("prime.submit_to_execute_p50_ms", s2e, 0.5, failures);
  r.add_percentile("prime.submit_to_execute_p99_ms", s2e, 0.99, failures);
  r.add("prime.replica_self_s", spans.self_s("prime.on_message"), "s",
        "(on_message minus nested apply)");

  if (transitions == 0) transitions = attempted;
  r.add("scada.updates_per_transition", ratio(updates, transitions), "count",
        "(per " + std::to_string(static_cast<long long>(transitions)) +
            " field transitions)");
  const std::vector<double> plc_submit = pooled(traced, "plc->submit");
  r.add_percentile("scada.plc_to_submit_p50_ms", plc_submit, 0.5, failures);
  r.add("scada.deltas_per_update", ratio(c["scada.reports_applied"], updates),
        "count", base_u);
  r.add("scada.front_door_shed", c["scada.front_door_shed"], "count");
  r.add("scada.master_apply_s", spans.total_s("scada.master_apply"), "s");
  r.add("scada.hmi_s", spans.total_s("scada.hmi"), "s");
  r.add("scada.proxy_s", spans.total_s("scada.proxy"), "s");
  r.add("scada.fail_ratio", ratio(failed, attempted), "ratio",
        "(" + std::to_string(static_cast<long long>(failed)) + "/" +
            std::to_string(static_cast<long long>(attempted)) + ")");
  // How much of the field->HMI median the per-leg medians account for.
  double legs_sum = 0;
  for (const char* leg :
       {"plc->submit", "submit->replica_recv", "replica_recv->po_request",
        "po_request->preprepare", "preprepare->commit", "commit->execute",
        "execute->publish", "publish->hmi_recv", "hmi_recv->display"}) {
    legs_sum += percentile(pooled(traced, leg), 0.5).value;
  }
  r.add("scada.legs_p50_sum_ms", legs_sum, "ms", "(sum of per-leg medians)");
  r.add("scada.p50_residual_ms", field_p50 - legs_sum, "ms",
        "(field_to_hmi_p50_ms minus the leg sum)");

  const double poll_s = spans.total_s("mana.poll");
  r.add("mana.frames", c["mana.frames"], "count");
  r.add("mana.frames_per_update", ratio(c["mana.frames"], updates), "count",
        base_u);
  r.add("mana.poll_s", poll_s, "s");
  r.add("mana.ns_per_frame", ratio(poll_s * 1e9, c["mana.frames_all"]), "ns",
        "(whole episodes)");
  r.add("mana.tap_drops", c["mana.tap_drops"], "count");
  r.add("mana.alerts", c["mana.alerts"], "count");

  r.add("obs.trace_overhead",
        ratio(median(each(traced, [](const Episode& e) { return e.measure_s; })),
              median(each(untraced,
                          [](const Episode& e) { return e.measure_s; }))) -
            1.0,
        "ratio", "(median traced / untraced measured wall - 1, no capture)");
  r.add("setup.build_s",
        median(each(untraced, [](const Episode& e) { return e.build_s; })), "s");
  r.add("setup.start_s",
        median(each(untraced, [](const Episode& e) { return e.start_s; })), "s");
  r.add("setup.warmup_s",
        median(each(untraced, [](const Episode& e) { return e.warmup_s; })),
        "s");
}

void print_layer_table(const SpanRecorder& spans) {
  std::printf("host spans (traced episodes): %-22s %10s %12s %12s\n", "layer",
              "count", "total s", "self s");
  for (const auto& l : spans.layers()) {
    std::printf("  %-48s %10llu %12.6f %12.6f\n", l.name.c_str(),
                static_cast<unsigned long long>(l.count),
                static_cast<double>(l.total_ns) / 1e9,
                static_cast<double>(l.self_ns) / 1e9);
  }
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const auto whole = static_cast<Time>(
      std::llround(args.seconds * w->nominal_speedup / kEpisodes));
  const Time measured = std::max(w->min_measured, whole * kSecond);

  std::printf("perfbench %s seed=%llu: %zu episodes x %.0f simulated s "
              "measured%s\n",
              w->name, static_cast<unsigned long long>(args.seed), kEpisodes,
              static_cast<double>(measured) / kSecond,
              args.trace ? ", then each again traced" : "");
  if (args.trace && w->overlay) {
    std::printf("  then episode 0 again with the overlay capture tap\n");
  }
  std::vector<std::string> failures;
  std::vector<Episode> untraced;
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    untraced.push_back(w->run({episode_seed(args.seed, e), measured, nullptr}));
    const Episode& ep = untraced.back();
    std::printf("  episode %zu: setup %.3f s (build %.3f, start %.3f, warm-up "
                "%.3f), measured %.3f s wall for %.0f s simulated\n",
                e, ep.build_s + ep.start_s + ep.warmup_s, ep.build_s,
                ep.start_s, ep.warmup_s, ep.measure_s, ep.measured_sim_s);
    for (const std::string& f : ep.failures) {
      failures.push_back("episode " + std::to_string(e) + ": " + f);
    }
  }

  std::vector<double> field_ms;
  std::uint64_t attempted = 0, failed = 0;
  for (const Episode& ep : untraced) {
    field_ms.insert(field_ms.end(), ep.field_to_hmi_ms.begin(),
                    ep.field_to_hmi_ms.end());
    attempted += ep.attempted;
    failed += ep.failed;
  }
  const double field_p50 = percentile(field_ms, 0.5).value;

  Report report;
  if (!args.trace) {
    std::printf("end-to-end metrics (untraced):\n");
    double sim_total = 0, host_total = 0;
    for (const Episode& ep : untraced) {
      sim_total += ep.measured_sim_s;
      host_total += ep.measure_s;
    }
    report.add("sim_speedup", ratio(sim_total, host_total), "sim_s/s",
               "(" + std::to_string(sim_total) + " sim s / " +
                   std::to_string(host_total) + " host s)");
    report.add("setup_s", median(each(untraced, [](const Episode& e) {
                 return e.build_s + e.start_s + e.warmup_s;
               })),
               "s", "(median of episodes)");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("  field_to_hmi deciles (ms):");
    for (int d = 1; d <= 9; ++d) {
      std::printf(" %.1f", percentile(field_ms, d / 10.0).value);
    }
    std::printf("\n");
    report.add_percentile("field_to_hmi_p50_ms", field_ms, 0.5, failures);
    report.add_percentile("field_to_hmi_p90_ms", field_ms, 0.9, failures);
    report.add("display_ratio",
               1.0 - ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
               "ratio",
               "(fail_ratio " + std::to_string(failed) + "/" +
                   std::to_string(attempted) + ")");
  } else {
    SpanRecorder spans;
    std::vector<Episode> traced;
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      traced.push_back(w->run({episode_seed(args.seed, e), measured, &spans}));
      for (const std::string& f : traced.back().failures) {
        failures.push_back("traced episode " + std::to_string(e) + ": " + f);
      }
    }
    check_determinism(untraced, traced, failures);
    std::vector<Episode> capture;
    if (w->overlay) {
      capture.push_back(
          w->run({episode_seed(args.seed, 0), measured, nullptr, true}));
      for (const std::string& f : capture.back().failures) {
        failures.push_back("capture episode 0: " + f);
      }
      check_determinism(untraced, capture, failures);
    }
    per_layer(report, untraced, traced,
              capture.empty() ? nullptr : &capture.front(), spans, field_p50,
              failures);
    print_layer_table(spans);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/" + w->name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!ec && spans.write_jsonl(path)) {
      std::printf("wrote %zu spans (%llu more aggregated only) to %s\n",
                  spans.spans().size(),
                  static_cast<unsigned long long>(spans.spans_not_kept()),
                  path.c_str());
    } else {
      failures.push_back("cannot write " + path);
    }
  }

  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  if (!correct && failed == 0) failed = failures.size();
  std::printf("%s\n",
              result_json(correct, attempted, failed, report.metrics()).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  spire::util::LogConfig::instance().level = spire::util::LogLevel::kOff;
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload plant|fleet|wan_chaos --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  return perfbench::run(args);
}
