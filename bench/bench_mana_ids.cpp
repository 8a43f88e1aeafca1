// Experiment E8, phase 1 — §II / §III-C (streaming MANA at line rate,
// DESIGN.md §13), gated against bench/baseline_mana.json.
//
// A synthetic 10,000-device fleet streams through the CaptureTap ring
// into the full scoring pipeline (summaries → flat feature accumulators
// → three detectors). The gate is wall-clock throughput plus the
// overload-accounting identity: every mirrored frame is drained,
// queued, folded into a sampling weight, or counted as dropped — zero
// unaccounted frames, even through a 100k-frame burst that forces
// 1-in-N sampling. Phase 2, MANA scored against the red-team campaign,
// is a shared-rig experiment of bench_attacks.
//
// Run:  bench_mana_ids [--json=PATH] [--baseline=PATH]
// --baseline defaults to bench/baseline_mana.json (run from the repo
// root).
#include <chrono>

#include "bench_util.hpp"
#include "mana/mana.hpp"

using namespace spire;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SoakResult {
  double mframes_per_sec = 0;
  std::uint64_t mirrored = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sampled_out = 0;
  std::uint64_t sampling_entered = 0;
  std::uint64_t unaccounted = 0;
  std::uint64_t sampled_windows = 0;
};

/// 10k devices across fifty /24 "substations", every device polling a
/// master twice a second. Frames are prebuilt so the measured loop is
/// the capture pipeline (summarize + ring + features + rules), not
/// datagram encoding.
SoakResult run_soak() {
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
  r.mframes_per_sec =
      wall > 0 ? static_cast<double>(600 * kFramesPerTick) / wall / 1e6 : 0;
  r.mirrored = ts.frames_mirrored;
  r.dropped = ts.frames_dropped;
  r.sampled_out = ts.frames_sampled_out;
  r.sampling_entered = ts.sampling_entered;
  const std::uint64_t accounted = ids.stats().frames_processed +
                                  ids.tap().queued_weight() +
                                  ids.tap().pending_weight() + ts.frames_dropped;
  r.unaccounted = ts.frames_mirrored - accounted;
  r.sampled_windows = ids.stats().sampled_windows_scored;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E8", "§II / §III-C",
      "Streaming MANA: line-rate capture with explicit overload accounting");

  bench::Report report(
      "mana_ids",
      "streaming MANA keeps line rate and accounts for every mirrored frame, "
      "sampling and drops explicitly counted");
  if (!report.load_baseline(argc, argv, "bench/baseline_mana.json")) return 1;

  std::printf("phase 1: 10k-device line-rate soak...\n");
  const SoakResult soak = run_soak();
  using bench::Cmp;
  report.check("throughput", soak.mframes_per_sec, Cmp::kGe,
               bench::BaselineKey{"soak_mframes_per_sec_min"}, "Mframes/s");
  report.add("frames mirrored", static_cast<double>(soak.mirrored));
  report.add("frames dropped", static_cast<double>(soak.dropped));
  report.check("frames sampled out", static_cast<double>(soak.sampled_out),
               Cmp::kGt, 0);
  report.check("sampling entered", static_cast<double>(soak.sampling_entered),
               Cmp::kGt, 0);
  report.check("sampled windows scored",
               static_cast<double>(soak.sampled_windows), Cmp::kGt, 0);
  report.check("unaccounted frames", static_cast<double>(soak.unaccounted),
               Cmp::kLe, bench::BaselineKey{"unaccounted_frames_max"});
  return report.finish(argc, argv);
}
