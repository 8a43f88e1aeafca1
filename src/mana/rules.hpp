// Per-substation rule watchers (DESIGN.md §13).
//
// The third ensemble member: deterministic protocol-shape rules that
// *attribute* an anomaly while the statistical models only flag it.
// SCADA networks are finalized at commissioning (paper §V), which makes
// hard allowlists viable: the set of source MACs, the IP→MAC ARP
// bindings, and each substation's (/24) traffic ceiling are all learned
// from the baseline capture and then frozen.
//
// Watchers:
//  * ARP binding watch — a claimed sender binding that contradicts the
//    baseline is a poisoning signature (immediate, per frame).
//  * New-source-MAC — a source MAC never seen in baseline (immediate,
//    reported once per MAC).
//  * Port fan-out — a source probing many distinct destination ports;
//    fires the moment the threshold is crossed, not at window close.
//  * Flood ceilings — global and per-/24 weighted frame counts checked
//    at window close against baseline-max × multiplier.
//
// The engine consumes the same FrameSummary stream as the feature
// extractor and shares its window cadence; all per-window state lives
// in epoch-cleared flat tables (no per-window allocation).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "mana/alert.hpp"
#include "mana/features.hpp"

namespace spire::mana {

struct RuleConfig {
  std::size_t max_tracked_sources = 2048;   ///< port fan-out table
  std::size_t max_substations = 256;        ///< per-/24 counters
};

/// One rule verdict; the sink turns it into an Alert.
struct RuleFinding {
  AlertKind kind = AlertKind::kPortScan;
  sim::Time at = 0;
  double score = 0;
  std::array<std::uint64_t, 3> args{};
};

class RuleEngine {
 public:
  using FindingSink = std::function<void(const RuleFinding&)>;

  RuleEngine(RuleConfig config, FindingSink sink);

  /// Per-frame path: learns baselines before finish_training(), checks
  /// the immediate watchers after.
  void on_frame(const net::FrameSummary& s);

  /// Window-close path: flood ceilings (learn or check), then epoch-
  /// clears per-window state. Call when the feature extractor emits.
  void close_window(sim::Time window_start, sim::Time window_end);

  void finish_training();
  [[nodiscard]] bool trained() const { return trained_; }

  /// Findings raised during the window just closed (the rules' ensemble
  /// vote for that window). Valid after close_window().
  [[nodiscard]] std::size_t last_window_findings() const {
    return last_window_findings_;
  }

 private:
  void emit(const RuleFinding& finding);

  FindingSink sink_;
  bool trained_ = false;

  // Baselines, frozen at finish_training().
  std::map<std::uint32_t, std::uint64_t> arp_bindings_;  // IP → MAC key
  std::set<std::uint64_t> known_macs_;
  std::map<std::uint32_t, std::uint64_t> substation_ceiling_;  // /24 → frames
  std::uint64_t global_ceiling_ = 0;

  // Per-window accumulators (epoch-cleared).
  FlatPairSet port_pairs_;      // (src ip, dst port) dedupe
  FlatCounter ports_per_src_;   // src ip → distinct dst ports
  FlatCounter substation_frames_;  // /24 base → weighted frames
  std::uint64_t window_frames_ = 0;

  std::set<std::uint64_t> alerted_macs_;  // one kNewSourceMac per MAC
  std::size_t window_findings_ = 0;       // raised since last close
  std::size_t last_window_findings_ = 0;
};

}  // namespace spire::mana
