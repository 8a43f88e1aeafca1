#include "mana/rules.hpp"

#include <algorithm>

namespace spire::mana {

namespace {

constexpr std::uint32_t substation_of(std::uint32_t ip) {
  return ip & 0xFFFFFF00u;  // /24 base
}

constexpr std::size_t kPortScanThreshold = 15;  ///< distinct dst ports per src
/// Flood alert when a window carries this multiple of the busiest
/// training window (globally or per substation). SCADA traffic is
/// highly regular (§V), so 2x the observed maximum is still far above
/// benign variation.
constexpr double kFloodMultiplier = 2.0;
/// Minimum absolute per-substation ceiling, so a subnet that was nearly
/// silent in training doesn't alert on two frames.
constexpr std::uint64_t kMinSubstationCeiling = 64;

}  // namespace

RuleEngine::RuleEngine(RuleConfig config, FindingSink sink)
    : sink_(std::move(sink)),
      port_pairs_(config.max_tracked_sources * 4),
      ports_per_src_(config.max_tracked_sources),
      substation_frames_(config.max_substations) {}

void RuleEngine::on_frame(const net::FrameSummary& s) {
  const std::uint64_t w = s.weight;
  window_frames_ += w;
  if (s.src_ip != 0) {
    substation_frames_.add(substation_of(s.src_ip),
                           static_cast<std::uint32_t>(w));
  }

  if (!trained_) {
    // Learn the allowlists. ARP churn during training re-learns the
    // binding; post-training it never does (a legitimate
    // re-announcement of the same binding stays quiet, a flip alerts
    // every window until resolved).
    if (s.src_mac != 0) known_macs_.insert(s.src_mac);
    if (s.kind == net::FrameKind::kArp && s.src_ip != 0) {
      arp_bindings_[s.src_ip] = s.src_mac;
    }
    return;
  }

  // --- immediate watchers -------------------------------------------
  if (s.kind == net::FrameKind::kArp && s.src_ip != 0) {
    const auto it = arp_bindings_.find(s.src_ip);
    if (it == arp_bindings_.end()) {
      if (s.arp_reply()) {
        // A binding never seen in training, asserted via a reply: on a
        // statically-configured SCADA network this is itself a
        // poisoning signature.
        emit(RuleFinding{AlertKind::kArpBindingChange, s.time, 0,
                         {s.src_ip, 0, s.src_mac}});
      }
    } else if (it->second != s.src_mac) {
      emit(RuleFinding{AlertKind::kArpBindingChange, s.time, 0,
                       {s.src_ip, it->second, s.src_mac}});
    }
  }

  if (s.src_mac != 0 && !known_macs_.contains(s.src_mac) &&
      alerted_macs_.insert(s.src_mac).second) {
    emit(RuleFinding{AlertKind::kNewSourceMac, s.time, 0, {s.src_mac, 0, 0}});
  }

  if (s.kind == net::FrameKind::kIpv4 &&
      port_pairs_.insert(s.src_ip, s.dst_port)) {
    const std::uint32_t distinct = ports_per_src_.increment(s.src_ip);
    // Fire exactly at the crossing so a scan is reported once per
    // window, at the frame that crossed the line (latency beats
    // window-close reporting by most of a window).
    if (distinct == kPortScanThreshold) {
      emit(RuleFinding{
          AlertKind::kPortScan, s.time, 1.0,
          {s.src_ip, distinct, kPortScanThreshold}});
    }
  }
}

void RuleEngine::close_window(sim::Time /*window_start*/,
                              sim::Time window_end) {
  if (!trained_) {
    global_ceiling_ = std::max(global_ceiling_, window_frames_);
    substation_frames_.for_each([this](std::uint64_t sub, std::uint32_t n) {
      auto& ceiling = substation_ceiling_[static_cast<std::uint32_t>(sub)];
      ceiling = std::max(ceiling, static_cast<std::uint64_t>(n));
    });
  } else {
    if (global_ceiling_ > 0) {
      const double limit =
          static_cast<double>(global_ceiling_) * kFloodMultiplier;
      if (static_cast<double>(window_frames_) > limit) {
        emit(RuleFinding{
            AlertKind::kTrafficFlood, window_end,
            static_cast<double>(window_frames_) /
                static_cast<double>(global_ceiling_),
            {window_frames_, global_ceiling_, 0}});
      }
    }
    substation_frames_.for_each([&](std::uint64_t sub, std::uint32_t n) {
      const auto it =
          substation_ceiling_.find(static_cast<std::uint32_t>(sub));
      // Unknown substations get the minimum ceiling: traffic from an
      // address block absent in baseline is suspect at low volume.
      const std::uint64_t base =
          it != substation_ceiling_.end() ? it->second : 0;
      const std::uint64_t ceiling = std::max(
          kMinSubstationCeiling,
          static_cast<std::uint64_t>(static_cast<double>(base) *
                                     kFloodMultiplier));
      if (n > ceiling) {
        emit(RuleFinding{AlertKind::kSubstationFlood, window_end,
                         static_cast<double>(n) /
                             static_cast<double>(ceiling),
                         {sub, n, ceiling}});
      }
    });
  }

  window_frames_ = 0;
  port_pairs_.clear();
  ports_per_src_.clear();
  substation_frames_.clear();
  last_window_findings_ = window_findings_;
  window_findings_ = 0;
}

void RuleEngine::finish_training() { trained_ = true; }

void RuleEngine::emit(const RuleFinding& finding) {
  ++window_findings_;
  if (sink_) sink_(finding);
}

}  // namespace spire::mana
