// Detection-quality scoreboard (DESIGN.md §13).
//
// Consumes ground-truth attack labels from the red-team scenarios and
// the alert stream from one or more Mana instances, and computes the
// observability headline: per-detector and ensemble precision / recall
// / F1 plus detection latency (attack start → first attributed alert).
//
// Scoring is event-based, matching how an operator reads the board:
//   * An alert is a true positive when it lands inside a labeled attack
//     interval (plus a grace period after the attack ends — floods and
//     scans are legitimately reported at window close) and, when the
//     label names expected kinds, the alert kind is among them.
//   * Every other alert is a false positive.
//   * An attack is detected (recall) when at least one true-positive
//     alert matched it; detection latency is first such alert − start.
// Per-detector rows attribute through Alert::votes, so an ensemble
// window alert credits every member that voted for it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mana/alert.hpp"
#include "obs/metrics.hpp"

namespace spire::mana {

struct AttackLabel {
  std::string name;
  sim::Time start = 0;
  sim::Time end = 0;  ///< 0 = still open (closed by attack_end/finalize)
  /// Alert kinds that count as attribution; empty accepts any kind.
  std::vector<AlertKind> expected;
};

struct DetectorScore {
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t attacks_detected = 0;
  std::uint64_t attacks_missed = 0;

  /// 1.0 when no alerts were raised at all (nothing claimed, nothing
  /// wrong) — matches the hand-computed convention in the tests.
  [[nodiscard]] double precision() const {
    const std::uint64_t total = true_positives + false_positives;
    return total == 0 ? 1.0
                      : static_cast<double>(true_positives) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double recall() const {
    const std::uint64_t total = attacks_detected + attacks_missed;
    return total == 0 ? 1.0
                      : static_cast<double>(attacks_detected) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double f1() const {
    const double p = precision();
    const double r = recall();
    return p + r > 0 ? 2 * p * r / (p + r) : 0;
  }
};

struct AttackOutcome {
  std::string name;
  sim::Time start = 0;
  sim::Time end = 0;
  bool detected = false;
  sim::Time first_alert = 0;     ///< valid when detected
  sim::Time latency = 0;         ///< first_alert − start, when detected
  AlertKind first_kind = AlertKind::kAnomalousWindow;
  DetectorId first_detector = DetectorId::kEnsemble;
  std::uint8_t detectors = 0;    ///< vote_bit mask of members that hit it
};

class ScoreBoard {
 public:
  /// Ground-truth labeling. attack_begin leaves the interval open;
  /// attack_end closes the most recent open label with that name.
  /// Both mirror into obs::Tracer markers when tracing is active.
  void attack_begin(std::string name, sim::Time start,
                    std::vector<AlertKind> expected = {});
  void attack_end(std::string_view name, sim::Time end);
  void add_label(AttackLabel label);

  /// Wire as Mana's alert sink.
  void on_alert(const Alert& alert);

  /// Closes open labels at `now` and folds per-attack outcomes into the
  /// per-detector recall columns. Idempotent per label/alert set.
  void finalize(sim::Time now);

  /// Rows indexed by DetectorId (kEnsemble row = the system verdict).
  [[nodiscard]] const DetectorScore& score(DetectorId id) const {
    return scores_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const DetectorScore& ensemble() const {
    return score(DetectorId::kEnsemble);
  }
  [[nodiscard]] const std::vector<AttackOutcome>& outcomes() const {
    return outcomes_;
  }
  [[nodiscard]] std::uint64_t alerts_seen() const { return alerts_seen_; }

  /// Mean detection latency over detected attacks, microseconds.
  [[nodiscard]] double mean_latency_us() const;
  /// Max detection latency over detected attacks, microseconds.
  [[nodiscard]] std::uint64_t max_latency_us() const;

  /// Registers precision/recall/latency into the current metrics
  /// registry under `prefix` (gauges are ×1000 fixed-point; latency is
  /// a histogram). Call once, after construction.
  void bind_metrics(const std::string& prefix);

 private:
  struct PendingAttack {
    AttackLabel label;
    bool detected = false;
    sim::Time first_alert = 0;
    AlertKind first_kind = AlertKind::kAnomalousWindow;
    DetectorId first_detector = DetectorId::kEnsemble;
    std::uint8_t detectors = 0;
  };

  [[nodiscard]] PendingAttack* match(const Alert& alert);

  std::vector<PendingAttack> attacks_;
  std::array<DetectorScore, kVotingDetectors + 1> scores_{};
  std::vector<AttackOutcome> outcomes_;
  std::uint64_t alerts_seen_ = 0;
  bool finalized_ = false;

  obs::Histogram* latency_hist_ = nullptr;
  std::unique_ptr<obs::Binder> binder_;
};

}  // namespace spire::mana
