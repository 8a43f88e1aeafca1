// The benchmark's three workloads. Each episode builds the system through
// its public API, warms it up, runs a measured phase of fixed simulated
// length, settles, and checks its own output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "measure.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct EpisodeConfig {
  std::uint64_t seed = 1;
  spire::sim::Time measured = 0;  ///< simulated length of the measured phase
  /// Non-null for the traced episode: an obs::ScopedTracer is installed
  /// and the benchmark's spans record.
  SpanRecorder* spans = nullptr;
  /// Capture the overlay payloads at the site switches (Switch::add_tap).
  /// A pass of its own, so its cost is in no timed comparison.
  bool capture = false;
};

/// What one episode produced. Host fields are wall time; everything else
/// is simulated and repeats exactly for a seed.
struct Episode {
  // --- host -----------------------------------------------------------
  double build_s = 0;
  double start_s = 0;
  double warmup_s = 0;
  double measure_s = 0;  ///< wall time of the measured phase

  // --- simulated --------------------------------------------------------
  double measured_sim_s = 0;
  std::vector<double> field_to_hmi_ms;  ///< one per (transition, HMI)
  std::uint64_t attempted = 0;  ///< field transitions / device deltas
  std::uint64_t failed = 0;     ///< ... not displayed on every HMI
  std::vector<std::string> failures;  ///< correctness checks that failed
  /// Per-layer counts over the measured phase (see main.cpp for names).
  std::map<std::string, double> counts;

  // --- traced or capture episode only -----------------------------------
  std::map<std::string, std::vector<double>> legs_ms;  ///< sim legs
  /// Plaintext length of every sealed overlay datagram captured at the
  /// site switches during the measured phase.
  std::vector<std::uint32_t> sealed_plaintext;
};

Episode run_plant(const EpisodeConfig& config);
Episode run_wan_chaos(const EpisodeConfig& config);
Episode run_fleet(const EpisodeConfig& config);

/// Field transition -> HMI display matching. A display of a breaker value
/// matches that breaker's earliest unmatched field change to the same
/// value at or before it; earlier changes it skips were never shown on
/// that HMI.
class DisplayLedger {
 public:
  DisplayLedger(std::size_t hmis, std::size_t breakers_per_device);

  /// `counted`: the change falls in the measured phase.
  void field_change(const std::string& device, std::size_t index, bool closed,
                    spire::sim::Time at, bool counted);
  void displayed(std::size_t hmi, const std::string& device, std::size_t index,
                 bool closed, spire::sim::Time at);

  /// Latency samples of counted changes, and how many counted
  /// changes some HMI never displayed.
  void tally(std::vector<double>& samples_ms, std::uint64_t& attempted,
             std::uint64_t& failed) const;
  [[nodiscard]] std::uint64_t displays() const { return displays_; }

 private:
  struct Change {
    spire::sim::Time at;
    bool closed;
    bool counted;
    std::vector<spire::sim::Time> shown;  ///< per HMI, kNever if not yet
  };
  struct Key {
    std::vector<Change> changes;
    std::vector<std::size_t> cursor;  ///< per HMI: first unmatched change
  };
  Key& key(const std::string& device, std::size_t index);

  std::size_t hmis_;
  std::size_t per_device_;
  std::unordered_map<std::string, std::uint32_t> device_ids_;
  std::vector<Key> keys_;
  std::uint64_t displays_ = 0;  ///< matched displays in the measured phase
};

}  // namespace perfbench
