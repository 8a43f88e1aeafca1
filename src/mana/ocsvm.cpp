#include "mana/ocsvm.hpp"

#include <algorithm>
#include <cmath>

#include "sim/rng.hpp"

namespace spire::mana {

namespace {
constexpr std::size_t kFeatures = 64;  ///< random Fourier dimension D
/// RBF width (inputs are z-normalized). Kept small on purpose: with a
/// wide gamma every pair of windows lifts to near-orthogonal RFF
/// vectors, the training radius sits at the kernel's saturation
/// ceiling, and no outlier can clear a multiplicative slack. A narrow
/// gamma keeps baseline windows correlated (small radius) while
/// genuinely anomalous windows still decorrelate.
constexpr double kGamma = 0.01;
/// Threshold = this multiple of the training-radius quantile below.
constexpr double kThresholdSlack = 1.3;
/// Radius quantile the slack multiplies (the ν knob): using the max
/// lets a single outlier training window — lifted near the RFF
/// saturation ceiling, where every dissimilar point lands — push the
/// threshold past any reachable score. Tolerating a small fraction of
/// training outliers keeps the boundary inside the reachable range.
constexpr double kTrainQuantile = 0.9;
constexpr std::uint64_t kSeed = 0x4F435356;  // "OCSV"
}  // namespace

OcSvm::OcSvm(std::size_t input_dim) : input_dim_(input_dim) {
  sim::Rng rng(kSeed);
  const double sigma = std::sqrt(2.0 * kGamma);
  omega_.resize(kFeatures * input_dim_);
  for (double& w : omega_) w = rng.normal(0.0, sigma);
  phase_.resize(kFeatures);
  constexpr double kTwoPi = 6.283185307179586;
  for (double& b : phase_) b = rng.uniform01() * kTwoPi;
  center_.assign(kFeatures, 0.0);
  scratch_.resize(kFeatures);
}

void OcSvm::lift(std::span<const double> x, std::vector<double>& z) const {
  const double scale = std::sqrt(2.0 / static_cast<double>(kFeatures));
  for (std::size_t d = 0; d < kFeatures; ++d) {
    const double* row = &omega_[d * input_dim_];
    double dot = phase_[d];
    for (std::size_t i = 0; i < input_dim_; ++i) dot += row[i] * x[i];
    z[d] = scale * std::cos(dot);
  }
}

void OcSvm::fit(const std::vector<std::vector<double>>& normalized_windows) {
  center_.assign(kFeatures, 0.0);
  if (normalized_windows.empty()) {
    threshold_ = 0;
    trained_ = true;
    return;
  }
  std::vector<double> z(kFeatures);
  for (const auto& x : normalized_windows) {
    lift(x, z);
    for (std::size_t d = 0; d < kFeatures; ++d) center_[d] += z[d];
  }
  const double inv = 1.0 / static_cast<double>(normalized_windows.size());
  for (double& c : center_) c *= inv;

  std::vector<double> radii;
  radii.reserve(normalized_windows.size());
  for (const auto& x : normalized_windows) {
    lift(x, z);
    double dist_sq = 0;
    for (std::size_t d = 0; d < kFeatures; ++d) {
      const double diff = z[d] - center_[d];
      dist_sq += diff * diff;
    }
    radii.push_back(std::sqrt(dist_sq));
  }
  const std::size_t at = std::min(
      radii.size() - 1,
      static_cast<std::size_t>(kTrainQuantile *
                               static_cast<double>(radii.size())));
  std::nth_element(radii.begin(), radii.begin() + static_cast<std::ptrdiff_t>(at),
                   radii.end());
  threshold_ = radii[at] * kThresholdSlack;
  trained_ = true;
}

double OcSvm::score(std::span<const double> normalized) const {
  lift(normalized, scratch_);
  double dist_sq = 0;
  for (std::size_t d = 0; d < kFeatures; ++d) {
    const double diff = scratch_[d] - center_[d];
    dist_sq += diff * diff;
  }
  return std::sqrt(dist_sq);
}

}  // namespace spire::mana
