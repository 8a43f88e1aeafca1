// bench_wide_area — wide-area overlay control-plane scaling (ISSUE 8).
//
// Phase 1 (overlay, default 500 daemons / 4 areas): builds the same
// physical topology twice — per-area LANs (ring + chords) joined by a
// full mesh of latency-bearing WAN cables between border daemons — and
// runs identical LSU churn (daemon flaps + periodic refresh) in two
// modes:
//
//   hierarchical   each LAN is its own Spines routing area; LSUs stay
//                  intra-area and only bounded, rotated, signed border
//                  summaries cross the WAN
//   flat           the classic single-area overlay; every LSU floods
//                  across the WAN links
//
// Gates (committed bounds in --baseline, default
// bench/baseline_wide.json; run from the repo root):
//   * WAN control bytes per daemon: flat / hierarchical >= 5x
//   * full-BFS share of post-warmup route recomputes <= 0.1 (the
//     incremental SPF carries the steady state)
//   * cross-area data delivery works at 500 daemons (sampled)
//
// Phase 2 (multi-site SCADA): the 2 CC + 2 DC SpireDeployment with WAN
// latency on every inter-site link; measures the Fig. 2-style
// field-change -> HMI-display latency and gates its median.
//
// Phase 3 (chaos): whole-site partition of a data center, SCADA load
// while cut, heal, then the HMI image must equal field ground truth —
// zero missed updates after border re-summarization.
//
// --metrics-json[=PATH] writes the hierarchical run's full metrics
// registry snapshot (per-daemon spf_incremental / spf_full /
// border_summaries_sent / ... counters).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/keyring.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "scada/deployment.hpp"
#include "spines/overlay.hpp"
#include "util/bytes.hpp"

namespace {

using namespace spire;

struct Options {
  std::size_t daemons = 500;
  std::size_t areas = 4;
  sim::Time warmup = 5 * sim::kSecond;
  sim::Time duration = 20 * sim::kSecond;
  sim::Time wan_latency = 10 * sim::kMillisecond;
  bool want_metrics = false;
  std::string metrics_path = "WIDE_metrics.json";
};

spines::NodeId node_name(std::size_t area, std::size_t idx) {
  return "a" + std::to_string(area) + "n" + std::to_string(idx);
}

/// One overlay run: per-area LANs + WAN mesh, flaps, measured deltas.
struct OverlayRun {
  double wan_bytes_per_daemon = 0;
  double recomputes_per_lsu = 0;
  double full_share = 0;  ///< post-warmup spf_full / recomputes
  std::uint64_t delivered = 0;
  std::uint64_t sample_sent = 0;
  std::uint64_t summaries = 0;
};

OverlayRun run_overlay(const Options& opt, bool hierarchical,
                       std::string* metrics_json_out) {
  const std::size_t per_area = opt.daemons / opt.areas;
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"wide-area-bench"};

  // The registry scope must outlive the overlay: daemons bind metric
  // counters into it at build() and unbind in their destructors.
  std::unique_ptr<obs::ScopedRegistry> scope;
  if (metrics_json_out != nullptr) {
    scope = std::make_unique<obs::ScopedRegistry>(
        [&sim] { return static_cast<std::uint64_t>(sim.now()); });
  }

  spines::DaemonConfig tmpl;
  tmpl.mode = spines::ForwardingMode::kRouted;
  tmpl.intrusion_tolerant = false;  // isolate control-plane volume
  tmpl.reliable_data_links = false;
  tmpl.hello_interval = 200 * sim::kMillisecond;
  tmpl.link_timeout = 700 * sim::kMillisecond;
  tmpl.lsu_refresh = 5 * sim::kSecond;
  tmpl.dedup_cache_size = 1024;
  spines::Overlay overlay(sim, keyring, tmpl);

  // Per-area LAN: all area hosts on one switch, ring + two chord
  // families (+4 every 2, +16 every 4) to keep the intra-area diameter
  // well under the data TTL even at 125 nodes per area.
  std::vector<std::vector<net::Host*>> hosts(opt.areas);
  for (std::size_t a = 0; a < opt.areas; ++a) {
    auto& sw = network.add_switch(net::SwitchConfig{});
    for (std::size_t i = 0; i < per_area; ++i) {
      net::Host& host = network.add_host(node_name(a, i));
      host.add_interface(
          net::MacAddress::from_id(
              static_cast<std::uint32_t>(1 + a * per_area + i)),
          net::IpAddress::make(10, static_cast<std::uint8_t>(a),
                               static_cast<std::uint8_t>(i / 200),
                               static_cast<std::uint8_t>(1 + i % 200)),
          16);
      network.connect(host, 0, sw);
      hosts[a].push_back(&host);
      overlay.add_node(node_name(a, i), host, spines::kDefaultDaemonPort, 0,
                       hierarchical ? static_cast<std::uint32_t>(a) : 0u);
    }
    for (std::size_t i = 0; i < per_area; ++i) {
      overlay.add_link(node_name(a, i), node_name(a, (i + 1) % per_area));
      if (i % 2 == 0) {
        overlay.add_link(node_name(a, i), node_name(a, (i + 4) % per_area));
      }
      if (i % 4 == 0) {
        overlay.add_link(node_name(a, i), node_name(a, (i + 16) % per_area));
      }
    }
  }

  // WAN full mesh: one point-to-point cable per area pair, a distinct
  // border daemon per pair on each side (so losing one border never
  // isolates an area), propagation delay = the WAN latency.
  std::vector<std::pair<spines::NodeId, spines::NodeId>> wan_links;
  std::uint8_t wan_net = 0;
  std::uint32_t wan_mac = 60000;
  for (std::size_t a = 0; a < opt.areas; ++a) {
    for (std::size_t b = a + 1; b < opt.areas; ++b) {
      const std::size_t border_a = (b - 1) % per_area;  // distinct per peer
      const std::size_t border_b = a % per_area;
      net::Host& ha = *hosts[a][border_a];
      net::Host& hb = *hosts[b][border_b];
      const std::size_t ifa = ha.interface_count();
      ha.add_interface(net::MacAddress::from_id(wan_mac++),
                       net::IpAddress::make(10, 200, wan_net, 1), 30);
      const std::size_t ifb = hb.interface_count();
      hb.add_interface(net::MacAddress::from_id(wan_mac++),
                       net::IpAddress::make(10, 200, wan_net, 2), 30);
      network.cable(ha, ifa, hb, ifb, opt.wan_latency);
      overlay.add_link(node_name(a, border_a), node_name(b, border_b), ifa,
                       ifb);
      wan_links.emplace_back(node_name(a, border_a), node_name(b, border_b));
      ++wan_net;
    }
  }

  overlay.build();
  overlay.start_all();
  sim.run_until(opt.warmup);

  // Post-warmup baselines.
  auto wan_bytes = [&] {
    std::uint64_t sum = 0;
    for (const auto& [na, nb] : wan_links) {
      sum += overlay.daemon(na).control_bytes_to(nb);
      sum += overlay.daemon(nb).control_bytes_to(na);
    }
    return sum;
  };
  auto totals = [&](auto field) {
    std::uint64_t sum = 0;
    for (std::size_t a = 0; a < opt.areas; ++a) {
      for (std::size_t i = 0; i < per_area; ++i) {
        sum += field(overlay.daemon(node_name(a, i)).stats());
      }
    }
    return sum;
  };
  const std::uint64_t bytes0 = wan_bytes();
  const std::uint64_t recomputes0 = totals(
      [](const spines::DaemonStats& s) { return s.route_recomputes; });
  const std::uint64_t full0 =
      totals([](const spines::DaemonStats& s) { return s.spf_full; });
  const std::uint64_t lsu0 =
      totals([](const spines::DaemonStats& s) { return s.lsu_accepted; });

  // Cross-area data sample: interior of area 0 -> interior of the most
  // distant area. Proves the summary-resolved routes actually deliver.
  OverlayRun run;
  const spines::NodeId src = node_name(0, per_area / 2);
  const spines::NodeId dst =
      node_name(opt.areas > 2 ? 2 : opt.areas - 1, per_area / 2 + 1);
  overlay.daemon(dst).open_session(
      40, [&](const spines::DataBody&) { ++run.delivered; });

  // Churn: flap interior daemons round-robin, one 2-second cycle each
  // (down 1 s, up 1 s), alongside the periodic LSU refresh; sprinkle
  // the data samples between flaps.
  const sim::Time end = sim.now() + opt.duration;
  std::size_t flap = 0;
  while (sim.now() < end) {
    auto& victim =
        overlay.daemon(node_name(flap % opt.areas, 3 + (flap * 7) % (per_area - 8)));
    victim.stop();
    sim.run_until(sim.now() + 1 * sim::kSecond);
    victim.start();
    for (int i = 0; i < 10; ++i) {
      overlay.daemon(src).session_send(40, dst, 40, util::to_bytes("sample"));
      ++run.sample_sent;
    }
    sim.run_until(sim.now() + 1 * sim::kSecond);
    ++flap;
  }

  const std::uint64_t recomputes = totals([](const spines::DaemonStats& s) {
                                     return s.route_recomputes;
                                   }) -
                                   recomputes0;
  const std::uint64_t full =
      totals([](const spines::DaemonStats& s) { return s.spf_full; }) - full0;
  const std::uint64_t lsus =
      totals([](const spines::DaemonStats& s) { return s.lsu_accepted; }) -
      lsu0;
  run.wan_bytes_per_daemon = static_cast<double>(wan_bytes() - bytes0) /
                             static_cast<double>(opt.daemons);
  run.recomputes_per_lsu =
      lsus > 0 ? static_cast<double>(recomputes) / static_cast<double>(lsus)
               : 0.0;
  run.full_share = recomputes > 0 ? static_cast<double>(full) /
                                        static_cast<double>(recomputes)
                                  : 0.0;
  run.summaries = totals(
      [](const spines::DaemonStats& s) { return s.border_summaries_sent; });

  if (metrics_json_out != nullptr) {
    *metrics_json_out = scope->registry().snapshot_json();
  }
  return run;
}

// ---- Phase 2/3: multi-site SCADA latency + site partition ------------------

struct DeploymentResult {
  bench::LatencyStats latency;
  std::uint32_t flips_seen = 0;
  std::uint32_t flips_total = 0;
  std::uint32_t missed_after_heal = 0;  ///< HMI breakers != field after heal
};

DeploymentResult run_deployment(sim::Time wan_latency) {
  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 1;  // n = 6 across 2 CC + 2 DC
  config.sites = scada::SiteTopology::two_cc_two_dc(wan_latency);
  config.scenario = scada::ScenarioSpec::red_team();
  config.proxy_poll_interval = 50 * sim::kMillisecond;
  config.cycler_interval = 0;
  scada::SpireDeployment deployment(sim, config);
  deployment.start();
  sim.run_until(4 * sim::kSecond);

  DeploymentResult result;
  const scada::Hmi& hmi = deployment.hmi(0);

  // Fig. 2-style samples: flip a breaker at the PLC, poll the HMI
  // display in 2 ms steps until it shows the change.
  std::vector<double> samples_ms;
  bool state = false;
  constexpr std::uint32_t kFlips = 12;
  result.flips_total = kFlips;
  for (std::uint32_t fl = 0; fl < kFlips; ++fl) {
    state = !state;
    deployment.flip_breaker_at_plc("plc-phys", 2, state);
    const sim::Time flipped_at = sim.now();
    const sim::Time deadline = flipped_at + 2 * sim::kSecond;
    while (sim.now() < deadline) {
      sim.run_until(sim.now() + 2 * sim::kMillisecond);
      if (hmi.display().breaker("plc-phys", 2) == state) {
        samples_ms.push_back(
            static_cast<double>(sim.now() - flipped_at) / 1000.0);
        ++result.flips_seen;
        break;
      }
    }
    sim.run_until(sim.now() + 200 * sim::kMillisecond);
  }
  result.latency = bench::latency_stats(std::move(samples_ms));

  // Phase 3: cut data-center site 3 off the WAN, keep operating, heal,
  // and require the HMI image to converge back to exact ground truth.
  deployment.partition_site(3, true);
  sim.run_until(sim.now() + 3 * sim::kSecond);
  deployment.hmi(0).command_breaker("dist0", 0, true);
  deployment.flip_breaker_at_plc("plc-phys", 1, true);
  sim.run_until(sim.now() + 3 * sim::kSecond);
  deployment.partition_site(3, false);
  sim.run_until(sim.now() + 6 * sim::kSecond);

  for (const auto& device : config.scenario.devices) {
    const auto& plc = deployment.plc(device.name);
    for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
      if (hmi.display().breaker(device.name, b) != plc.breakers().closed(b)) {
        ++result.missed_after_heal;
      }
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);

  Options opt;
  opt.daemons = std::strtoul(
      bench::flag_value(argc, argv, "--daemons", "500"), nullptr, 10);
  opt.areas = std::strtoul(bench::flag_value(argc, argv, "--areas", "4"),
                           nullptr, 10);
  opt.duration =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--duration-seconds", "20"), nullptr,
          10)) *
      sim::kSecond;
  opt.warmup =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--warmup-seconds", "5"), nullptr,
          10)) *
      sim::kSecond;
  opt.wan_latency =
      static_cast<sim::Time>(std::strtoul(
          bench::flag_value(argc, argv, "--wan-ms", "10"), nullptr, 10)) *
      sim::kMillisecond;
  opt.want_metrics = bench::has_flag(argc, argv, "--metrics-json");
  opt.metrics_path =
      bench::flag_value(argc, argv, "--metrics-json", "WIDE_metrics.json");
  if (opt.areas < 2 || opt.daemons / opt.areas < 24) {
    std::printf("need >= 2 areas and >= 24 daemons per area\n");
    return 1;
  }

  bench::print_header(
      "W1", "wide-area overlay scaling (paper SS5, multi-site Spire)",
      "hierarchical areas keep inter-site control traffic bounded while "
      "incremental SPF absorbs LSU churn at 500+ daemons");
  bench::Report report(
      "wide_area",
      "hierarchical areas bound WAN control bytes, incremental SPF carries "
      "the churn, and multi-site SCADA stays fast and loses nothing");
  if (!report.load_baseline(argc, argv, "bench/baseline_wide.json")) return 1;

  std::printf("\n[1/3] overlay control plane: %zu daemons, %zu areas, "
              "%llu ms WAN\n",
              opt.daemons, opt.areas,
              static_cast<unsigned long long>(opt.wan_latency / 1000));
  std::string metrics_json;
  const OverlayRun hier =
      run_overlay(opt, true, opt.want_metrics ? &metrics_json : nullptr);
  const OverlayRun flat = run_overlay(opt, false, nullptr);
  if (opt.want_metrics) {
    std::ofstream out(opt.metrics_path);
    out << metrics_json;
    std::printf("wrote metrics snapshot to %s\n", opt.metrics_path.c_str());
  }

  using bench::Cmp;
  report.add("daemons", static_cast<double>(opt.daemons));
  report.add("areas", static_cast<double>(opt.areas));
  report.add("WAN latency",
             static_cast<double>(opt.wan_latency) / sim::kMillisecond, "ms");
  for (const OverlayRun* run : {&hier, &flat}) {
    const std::string p = run == &hier ? "hierarchical: " : "flat: ";
    report.add(p + "WAN control bytes per daemon", run->wan_bytes_per_daemon,
               "B");
    report.add(p + "route recomputes per LSU", run->recomputes_per_lsu);
    if (run == &hier) {
      report.check(p + "full-BFS share of recomputes", run->full_share,
                   Cmp::kLe, bench::BaselineKey{"full_share_max"});
      report.add(p + "border summaries sent",
                 static_cast<double>(run->summaries));
    } else {
      report.add(p + "full-BFS share of recomputes", run->full_share);
    }
    report.check(p + "cross-area samples delivered",
                 static_cast<double>(run->delivered), Cmp::kEq,
                 static_cast<double>(run->sample_sent));
  }
  report.check("WAN control-byte reduction (flat/hier)",
               hier.wan_bytes_per_daemon > 0
                   ? flat.wan_bytes_per_daemon / hier.wan_bytes_per_daemon
                   : 0.0,
               Cmp::kGe, bench::BaselineKey{"wan_byte_ratio_min"}, "x");

  std::printf("\n[2/3] multi-site SCADA (2 CC + 2 DC, %llu ms WAN): "
              "field change -> HMI display\n",
              static_cast<unsigned long long>(opt.wan_latency / 1000));
  std::printf("[3/3] site-partition chaos: cut DC site 3, operate, heal\n\n");
  const DeploymentResult dep = run_deployment(opt.wan_latency);
  report.check("cross-site flips seen on HMI", dep.flips_seen, Cmp::kEq,
               dep.flips_total);
  report.add("cross-site flip -> HMI min", dep.latency.min_ms, "ms");
  report.check("cross-site flip -> HMI median", dep.latency.median_ms,
               Cmp::kLe, bench::BaselineKey{"cross_site_median_ms_max"}, "ms");
  report.add("cross-site flip -> HMI p90", dep.latency.p90_ms, "ms");
  report.add("cross-site flip -> HMI max", dep.latency.max_ms, "ms");
  report.check("HMI breakers wrong after partition heal",
               dep.missed_after_heal, Cmp::kEq, 0);
  return report.finish(argc, argv);
}
