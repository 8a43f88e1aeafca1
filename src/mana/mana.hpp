// MANA: Machine-learning Assisted Network Analyzer (paper §II, §III-C;
// DESIGN.md §13).
//
// One Mana instance per monitored network (the red-team experiment ran
// three: enterprise + two operations networks). It is strictly
// out-of-band: its only input is the mirrored packet capture from a
// switch tap, and it emits alerts for the situational-awareness board.
//
// The pipeline is streaming and allocation-free per frame:
//
//   Switch mirror ─▶ CaptureTap ring ─▶ poll() drain
//                                          │
//                              FeatureExtractor (flat accumulators)
//                                          │ windowed features
//               ┌──────────────┬───────────┴──────────┐
//            k-means        one-class SVM         RuleEngine
//          (distance)      (RFF distance)     (per-substation watch)
//               └──────────────┴───────────┬──────────┘
//                              majority vote (≥ kMinVotes)
//                                          │
//                            Alert {detector, votes, args}
//
// The statistical members flag a window; the rule watchers *attribute*
// it (which binding flipped, who scanned, which substation flooded)
// and raise their own alerts immediately. Every alert records which
// detectors agreed, and detail text is deferred until an exporter asks.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mana/alert.hpp"
#include "mana/features.hpp"
#include "mana/kmeans.hpp"
#include "mana/ocsvm.hpp"
#include "mana/rules.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace spire::mana {

struct ManaConfig {
  std::string network;  ///< label, e.g. "operations-spire"
  sim::Time window = 1 * sim::kSecond;
  RuleConfig rules;
  FeatureConfig features;
  net::CaptureTapConfig tap;
  std::uint64_t seed = 0x4D414E41;  // "MANA"
};

struct ManaStats {
  std::uint64_t frames_processed = 0;  ///< drained weights (frames seen)
  std::uint64_t windows_scored = 0;
  std::uint64_t windows_anomalous = 0;
  std::uint64_t sampled_windows_scored = 0;  ///< scored under sampling
  std::uint64_t alerts_total = 0;
};

class Mana {
 public:
  explicit Mana(ManaConfig config);

  /// The line-rate capture ring. Attach with
  /// `sw.add_capture_tap(&mana.tap())`; Mana outlives the switch wiring.
  [[nodiscard]] net::CaptureTap& tap() { return tap_; }

  /// Out-of-band analyzer turn: drains the capture ring through the
  /// feature extractor and rule watchers, then closes any elapsed
  /// windows. Schedule periodically (e.g. once per window).
  void poll(sim::Time now);

  /// Legacy per-frame path (Switch::add_tap wiring): summarizes and
  /// processes the frame inline, bypassing the ring.
  void on_capture(const net::PcapRecord& record);

  /// Training lifecycle: ingest baseline traffic, then finalize all
  /// three detectors.
  void finish_training();
  [[nodiscard]] bool trained() const { return model_.has_value(); }

  /// Push window boundaries forward on quiet networks.
  void flush_until(sim::Time now);

  /// Invoked for every raised alert (after rate-limiting); wire the
  /// scoreboard here.
  void set_alert_sink(std::function<void(const Alert&)> sink) {
    alert_sink_ = std::move(sink);
  }

  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  [[nodiscard]] const ManaStats& stats() const { return stats_; }
  [[nodiscard]] const ExtractorStats& extractor_stats() const {
    return extractor_.stats();
  }
  [[nodiscard]] const net::CaptureTapStats& tap_stats() const {
    return tap_.stats();
  }
  [[nodiscard]] std::size_t windows_scored() const {
    return stats_.windows_scored;
  }
  [[nodiscard]] std::size_t windows_anomalous() const {
    return stats_.windows_anomalous;
  }
  [[nodiscard]] double threshold() const { return threshold_; }

 private:
  void process_summary(const net::FrameSummary& summary);
  void on_window(const WindowFeatures& features);
  void on_finding(const RuleFinding& finding);
  void normalize(const std::array<double, WindowFeatures::kDim>& raw,
                 std::vector<double>& out) const;
  void raise(Alert alert);

  ManaConfig config_;
  net::NetworkId network_id_ = 0;
  util::Logger log_;
  sim::Rng rng_;
  net::CaptureTap tap_;
  FeatureExtractor extractor_;
  RuleEngine rules_;
  OcSvm ocsvm_;

  // Training accumulators.
  std::vector<std::vector<double>> training_windows_;
  std::vector<double> mean_, stddev_;
  std::optional<KMeansModel> model_;
  double threshold_ = 0;
  mutable std::vector<double> normalized_;  // scoring scratch

  std::vector<Alert> alerts_;
  std::function<void(const Alert&)> alert_sink_;
  std::map<AlertKind, sim::Time> last_raised_;
  ManaStats stats_;
  obs::Binder metrics_;
};

}  // namespace spire::mana
