#include "mana/scoreboard.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace spire::mana {

void ScoreBoard::attack_begin(std::string name, sim::Time start,
                              std::vector<AlertKind> expected) {
  if (obs::Tracer* tracer = obs::Tracer::current()) {
    tracer->attack_begin_marker(name, start);
  }
  PendingAttack attack;
  attack.label =
      AttackLabel{std::move(name), start, 0, std::move(expected)};
  attacks_.push_back(std::move(attack));
}

void ScoreBoard::attack_end(std::string_view name, sim::Time end) {
  for (auto it = attacks_.rbegin(); it != attacks_.rend(); ++it) {
    if (it->label.end == 0 && it->label.name == name) {
      it->label.end = end;
      if (obs::Tracer* tracer = obs::Tracer::current()) {
        tracer->attack_end_marker(it->label.name, end);
      }
      return;
    }
  }
}

void ScoreBoard::add_label(AttackLabel label) {
  if (obs::Tracer* tracer = obs::Tracer::current()) {
    tracer->attack_begin_marker(label.name, label.start);
    if (label.end != 0) tracer->attack_end_marker(label.name, label.end);
  }
  PendingAttack attack;
  attack.label = std::move(label);
  attacks_.push_back(std::move(attack));
}

/// Alerts within [start, end + kGrace] count toward the attack.
constexpr sim::Time kGrace = 2 * sim::kSecond;

ScoreBoard::PendingAttack* ScoreBoard::match(const Alert& alert) {
  for (PendingAttack& attack : attacks_) {
    const AttackLabel& label = attack.label;
    if (alert.at < label.start) continue;
    if (label.end != 0 && alert.at > label.end + kGrace) continue;
    if (!label.expected.empty() &&
        std::find(label.expected.begin(), label.expected.end(), alert.kind) ==
            label.expected.end()) {
      continue;
    }
    return &attack;
  }
  return nullptr;
}

void ScoreBoard::on_alert(const Alert& alert) {
  ++alerts_seen_;
  PendingAttack* attack = match(alert);
  const bool hit = attack != nullptr;

  for (std::size_t d = 0; d < kVotingDetectors; ++d) {
    if ((alert.votes & (1u << d)) == 0) continue;
    if (hit) {
      ++scores_[d].true_positives;
    } else {
      ++scores_[d].false_positives;
    }
  }
  auto& ensemble = scores_[static_cast<std::size_t>(DetectorId::kEnsemble)];
  if (hit) {
    ++ensemble.true_positives;
  } else {
    ++ensemble.false_positives;
  }

  if (hit) {
    if (!attack->detected) {
      attack->detected = true;
      attack->first_alert = alert.at;
      attack->first_kind = alert.kind;
      attack->first_detector = alert.detector;
    }
    attack->detectors |= alert.votes;
  }
}

void ScoreBoard::finalize(sim::Time now) {
  if (finalized_) return;
  finalized_ = true;
  for (PendingAttack& attack : attacks_) {
    if (attack.label.end == 0) attack.label.end = now;
    AttackOutcome outcome;
    outcome.name = attack.label.name;
    outcome.start = attack.label.start;
    outcome.end = attack.label.end;
    outcome.detected = attack.detected;
    outcome.detectors = attack.detectors;
    if (attack.detected) {
      outcome.first_alert = attack.first_alert;
      outcome.latency = attack.first_alert - attack.label.start;
      outcome.first_kind = attack.first_kind;
      outcome.first_detector = attack.first_detector;
      if (latency_hist_ != nullptr) {
        latency_hist_->record(static_cast<std::uint64_t>(outcome.latency));
      }
    }
    for (std::size_t d = 0; d < kVotingDetectors; ++d) {
      if (attack.detectors & (1u << d)) {
        ++scores_[d].attacks_detected;
      } else {
        ++scores_[d].attacks_missed;
      }
    }
    auto& ensemble = scores_[static_cast<std::size_t>(DetectorId::kEnsemble)];
    if (attack.detected) {
      ++ensemble.attacks_detected;
    } else {
      ++ensemble.attacks_missed;
    }
    outcomes_.push_back(std::move(outcome));
  }
}

double ScoreBoard::mean_latency_us() const {
  std::uint64_t sum = 0;
  std::uint64_t n = 0;
  for (const AttackOutcome& o : outcomes_) {
    if (!o.detected) continue;
    sum += static_cast<std::uint64_t>(o.latency);
    ++n;
  }
  return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0;
}

std::uint64_t ScoreBoard::max_latency_us() const {
  std::uint64_t max = 0;
  for (const AttackOutcome& o : outcomes_) {
    if (o.detected) max = std::max(max, static_cast<std::uint64_t>(o.latency));
  }
  return max;
}

void ScoreBoard::bind_metrics(const std::string& prefix) {
  binder_ = std::make_unique<obs::Binder>(prefix);
  latency_hist_ =
      obs::MetricsRegistry::current().histogram(prefix + ".detection_latency_us");
  static const char* kRows[] = {"kmeans", "ocsvm", "rules", "ensemble"};
  for (std::size_t d = 0; d < kVotingDetectors + 1; ++d) {
    const std::string row = kRows[d];
    binder_->counter(row + ".true_positives", &scores_[d].true_positives);
    binder_->counter(row + ".false_positives", &scores_[d].false_positives);
    binder_->counter(row + ".attacks_detected", &scores_[d].attacks_detected);
    binder_->counter(row + ".attacks_missed", &scores_[d].attacks_missed);
    // ×1000 fixed-point so 0.95 precision reads as 950 in snapshots.
    binder_->gauge_fn(row + ".precision_m", [this, d] {
      return static_cast<std::int64_t>(scores_[d].precision() * 1000);
    });
    binder_->gauge_fn(row + ".recall_m", [this, d] {
      return static_cast<std::int64_t>(scores_[d].recall() * 1000);
    });
  }
}

}  // namespace spire::mana
