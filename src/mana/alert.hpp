// MANA alert type with per-detector attribution (DESIGN.md §13).
//
// Alerts are raised on the scoring path, so the struct is cheap to
// construct: the network is an interned handle, and the human-readable
// explanation is *deferred* — the alert stores up to three raw numeric
// arguments and detail() formats them only when an exporter (board,
// JSONL, bench table) actually asks.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/pcap.hpp"

namespace spire::mana {

/// Which ensemble member produced (or voted for) an alert.
enum class DetectorId : std::uint8_t {
  kKMeans = 0,  ///< k-means distance over z-normalized windows
  kOcSvm = 1,   ///< random-Fourier one-class SVM over the same windows
  kRules = 2,   ///< per-substation protocol-shape watchers
  kEnsemble = 3,  ///< majority vote of the above
};
inline constexpr std::size_t kVotingDetectors = 3;

[[nodiscard]] std::string_view to_string(DetectorId id);

/// Bitmask helpers for Alert::votes.
[[nodiscard]] constexpr std::uint8_t vote_bit(DetectorId id) {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(id));
}

enum class AlertKind : std::uint8_t {
  kAnomalousWindow,
  kArpBindingChange,
  kPortScan,
  kTrafficFlood,
  kNewSourceMac,
  kSubstationFlood,
};

[[nodiscard]] std::string_view to_string(AlertKind kind);

struct Alert {
  sim::Time at = 0;
  net::NetworkId network = 0;
  AlertKind kind = AlertKind::kAnomalousWindow;
  DetectorId detector = DetectorId::kRules;
  /// Bitmask of vote_bit(DetectorId) — which members agreed. For rule
  /// alerts this is just the rules bit; for ensemble window alerts it
  /// records the exact coalition.
  std::uint8_t votes = 0;
  double score = 0;  ///< anomaly score (distance / threshold), where relevant
  /// Kind-specific numeric arguments (IPs, MAC keys, counts); see
  /// detail() for the per-kind layout.
  std::array<std::uint64_t, 3> args{};

  [[nodiscard]] std::string_view network_name() const {
    return net::NetworkLabels::instance().name(network);
  }

  /// Formats the human-readable explanation from `args`. Off the
  /// scoring path by construction — only exporters call it.
  [[nodiscard]] std::string detail() const;
};

}  // namespace spire::mana
