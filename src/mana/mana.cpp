#include "mana/mana.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace spire::mana {

namespace {
constexpr std::size_t kClusters = 4;
/// k-means anomaly threshold = this multiple of the max training
/// distance.
constexpr double kThresholdSlack = 1.5;
/// Votes (of kVotingDetectors) required for an ensemble
/// anomalous-window alert.
constexpr std::size_t kMinVotes = 2;
}  // namespace

Mana::Mana(ManaConfig config)
    : config_(std::move(config)),
      network_id_(net::NetworkLabels::instance().intern(config_.network)),
      log_("mana." + config_.network),
      rng_(config_.seed),
      tap_(config_.tap),
      extractor_(config_.window,
                 [this](const WindowFeatures& f) { on_window(f); },
                 config_.features),
      rules_(config_.rules, [this](const RuleFinding& f) { on_finding(f); }),
      ocsvm_(WindowFeatures::kDim),
      metrics_("mana." + config_.network) {
  normalized_.resize(WindowFeatures::kDim);
  metrics_.counter("frames_mirrored", &tap_.stats().frames_mirrored);
  metrics_.counter("dropped_frames", &tap_.stats().frames_dropped);
  metrics_.counter("frames_sampled_out", &tap_.stats().frames_sampled_out);
  metrics_.counter("frames_processed", &stats_.frames_processed);
  metrics_.counter("windows_scored", &stats_.windows_scored);
  metrics_.counter("windows_anomalous", &stats_.windows_anomalous);
  metrics_.counter("sampled_windows", &extractor_.stats().sampled_windows);
  metrics_.counter("alerts_total", &stats_.alerts_total);
}

void Mana::poll(sim::Time now) {
  tap_.drain([this](const net::FrameSummary& s) { process_summary(s); });
  extractor_.flush_until(now);
}

void Mana::on_capture(const net::PcapRecord& record) {
  process_summary(net::FrameSummary::summarize(record.time, record.frame));
}

void Mana::process_summary(const net::FrameSummary& s) {
  stats_.frames_processed += s.weight;
  // Extractor first: rolling into a new window emits window N (and
  // closes the rules' window N) before this frame — which belongs to
  // window N+1 — reaches the rule watchers.
  extractor_.ingest(s);
  rules_.on_frame(s);
}

void Mana::flush_until(sim::Time now) { extractor_.flush_until(now); }

void Mana::on_window(const WindowFeatures& features) {
  // The rules share the extractor's window cadence: every frame of this
  // window has already passed through on_frame.
  rules_.close_window(features.window_start, features.window_end);

  if (!trained()) {
    training_windows_.emplace_back(features.values.begin(),
                                   features.values.end());
    return;
  }

  ++stats_.windows_scored;
  if (features.sampled()) ++stats_.sampled_windows_scored;

  normalize(features.values, normalized_);
  const double km_distance = model_->nearest_distance(normalized_);
  const double km_ratio = threshold_ > 0 ? km_distance / threshold_ : 0;
  const double oc_score = ocsvm_.score(normalized_);
  const double oc_ratio =
      ocsvm_.threshold() > 0 ? oc_score / ocsvm_.threshold() : 0;

  std::uint8_t votes = 0;
  if (km_ratio > 1.0) votes |= vote_bit(DetectorId::kKMeans);
  if (oc_ratio > 1.0) votes |= vote_bit(DetectorId::kOcSvm);
  if (rules_.last_window_findings() > 0) votes |= vote_bit(DetectorId::kRules);

  if (static_cast<std::size_t>(std::popcount(votes)) >= kMinVotes) {
    ++stats_.windows_anomalous;
    // Attribute the anomaly to the most deviant feature for the
    // operator board.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < normalized_.size(); ++i) {
      if (std::abs(normalized_[i]) > std::abs(normalized_[worst])) worst = i;
    }
    Alert alert;
    alert.at = features.window_end;
    alert.network = network_id_;
    alert.kind = AlertKind::kAnomalousWindow;
    alert.detector = DetectorId::kEnsemble;
    alert.votes = votes;
    alert.score = std::max(km_ratio, oc_ratio);
    alert.args = {worst, 0, 0};
    raise(alert);
  }
}

void Mana::on_finding(const RuleFinding& finding) {
  Alert alert;
  alert.at = finding.at;
  alert.network = network_id_;
  alert.kind = finding.kind;
  alert.detector = DetectorId::kRules;
  alert.votes = vote_bit(DetectorId::kRules);
  alert.score = finding.score;
  alert.args = finding.args;
  raise(alert);
}

void Mana::normalize(const std::array<double, WindowFeatures::kDim>& raw,
                     std::vector<double>& out) const {
  out.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = (raw[i] - mean_[i]) / stddev_[i];
  }
}

void Mana::finish_training() {
  if (training_windows_.empty()) {
    throw std::runtime_error("mana: no training windows captured");
  }
  const std::size_t dim = training_windows_.front().size();
  mean_.assign(dim, 0.0);
  stddev_.assign(dim, 0.0);
  for (const auto& w : training_windows_) {
    for (std::size_t i = 0; i < dim; ++i) mean_[i] += w[i];
  }
  for (std::size_t i = 0; i < dim; ++i) {
    mean_[i] /= static_cast<double>(training_windows_.size());
  }
  for (const auto& w : training_windows_) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = w[i] - mean_[i];
      stddev_[i] += d * d;
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    stddev_[i] =
        std::sqrt(stddev_[i] / static_cast<double>(training_windows_.size()));
    if (stddev_[i] < 1e-9) stddev_[i] = 1.0;  // constant feature
  }

  std::vector<std::vector<double>> normalized;
  normalized.reserve(training_windows_.size());
  for (const auto& w : training_windows_) {
    std::vector<double> n(dim);
    for (std::size_t i = 0; i < dim; ++i) n[i] = (w[i] - mean_[i]) / stddev_[i];
    normalized.push_back(std::move(n));
  }

  model_ = kmeans_fit(normalized, kClusters, rng_);
  double max_distance = 0;
  for (const auto& w : normalized) {
    max_distance = std::max(max_distance, model_->nearest_distance(w));
  }
  threshold_ = std::max(1e-6, max_distance) * kThresholdSlack;
  ocsvm_.fit(normalized);
  rules_.finish_training();
  log_.info("trained on ", training_windows_.size(), " windows; kmeans thr ",
            threshold_, ", ocsvm thr ", ocsvm_.threshold());
  training_windows_.clear();
}

void Mana::raise(Alert alert) {
  // Collapse repeats of the same alert kind within one window period.
  const auto last = last_raised_.find(alert.kind);
  if (last != last_raised_.end() && alert.at - last->second < config_.window) {
    return;
  }
  last_raised_[alert.kind] = alert.at;
  ++stats_.alerts_total;
  // Detail text stays deferred: the log line carries only the kind and
  // score; exporters call detail() when they want the story.
  log_.warn("ALERT ", to_string(alert.kind), " detector=",
            to_string(alert.detector), " score=", alert.score);
  if (obs::Tracer* tracer = obs::Tracer::current()) {
    tracer->alert_marker(std::string(alert.network_name()),
                         std::string(to_string(alert.kind)),
                         std::string(to_string(alert.detector)), alert.score,
                         alert.at);
  }
  alerts_.push_back(alert);
  if (alert_sink_) alert_sink_(alerts_.back());
}

}  // namespace spire::mana
