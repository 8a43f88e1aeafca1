// Streaming one-class SVM scorer (PAPERS.md: Maglaras et al., ensemble
// OCSVM for SCADA IDS).
//
// An RBF-kernel one-class SVM is approximated with random Fourier
// features: x is lifted to z(x) = sqrt(2/D) * cos(Ωx + b), where the
// rows of Ω are drawn from N(0, 2γ). In that lifted space the training
// distribution collapses to a tight cloud, and the model is the cloud's
// centroid plus a radius threshold — scoring is one D×dim matrix-vector
// product and a distance, over preallocated scratch: no kernel matrix,
// no allocation, O(D·dim) per window. Equal-weight centroids are the
// ν→1 limit of SVDD, which suits MANA: the baseline capture is taken on
// a finalized network and contains no outliers to down-weight.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace spire::mana {

class OcSvm {
 public:
  explicit OcSvm(std::size_t input_dim);

  /// Fits centroid + radius threshold on z-normalized training windows.
  void fit(const std::vector<std::vector<double>>& normalized_windows);

  /// Distance of the lifted point from the training centroid.
  [[nodiscard]] double score(std::span<const double> normalized) const;

  [[nodiscard]] bool trained() const { return trained_; }
  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] bool anomalous(std::span<const double> normalized) const {
    return score(normalized) > threshold_;
  }

 private:
  void lift(std::span<const double> x, std::vector<double>& z) const;

  std::size_t input_dim_;
  std::vector<double> omega_;   // D × input_dim frequencies, row-major
  std::vector<double> phase_;   // D
  std::vector<double> center_;  // D
  mutable std::vector<double> scratch_;  // D, reused per score
  double threshold_ = 0;
  bool trained_ = false;
};

}  // namespace spire::mana
