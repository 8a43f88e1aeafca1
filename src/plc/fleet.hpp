// Emulated device fleet (DESIGN.md §9): thousands of lightweight
// PLCs/RTUs for fleet-scale benches.
//
// The full EmulatedPlc carries a Modbus endpoint, a maintenance
// service, and a scan loop — perfect for a seventeen-device substation,
// far too heavy to instantiate 10k times. The fleet keeps only what
// the field layer above can observe: per-device breaker images and
// synthetic readings, swept on a single timer in round-robin slices so
// 10k devices cost one event per slice, not 10k timers. Devices are
// named like ScenarioSpec::fleet ("fd<i>") so the same spec seeds the
// masters.
//
// Every emitted report is handed to the sink (normally
// FleetProxy::ingest, with each fleet device registered as a pushed
// device of the proxy); reports that carry a breaker flip are flagged
// critical so the front door sheds them last. The fleet records its
// own ground truth — per-device flip counts and final breaker images —
// which benches compare against what the HMIs actually rendered: the
// zero-missed-deltas gate.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace spire::plc {

struct FleetConfig {
  std::size_t devices = 1000;
  std::size_t breakers_per_device = 2;
  /// Per-device reporting period; the fleet is swept in slices so the
  /// emitted load spreads evenly across the period.
  sim::Time report_interval = 500 * sim::kMillisecond;
  std::size_t slices = 50;  ///< timer events per sweep of the fleet
  double flip_chance = 0.02;  ///< chance a report flips one breaker
  sim::Time min_flip_gap = 2 * sim::kSecond;  ///< per-device flip spacing
  std::uint64_t seed = 0x464c4545'54303141ULL;  // "FLEET01A"
};

struct FleetStats {
  std::uint64_t reports_emitted = 0;
  std::uint64_t flips_emitted = 0;
};

class EmulatedFleet {
 public:
  /// Receives each device report; `critical` marks breaker movement.
  using SinkFn =
      std::function<void(const std::string& device, std::vector<bool> breakers,
                         std::vector<std::uint16_t> readings, bool critical)>;

  EmulatedFleet(sim::Simulator& sim, FleetConfig config, SinkFn sink);

  void start();
  void stop() { running_ = false; }

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] const std::string& device_name(std::size_t i) const {
    return devices_[i].name;
  }
  [[nodiscard]] const FleetStats& stats() const { return stats_; }

  // --- ground truth for bench gates ----------------------------------
  /// Breaker flips emitted for this device so far.
  [[nodiscard]] std::uint64_t flips(std::size_t i) const {
    return devices_[i].flips;
  }
  [[nodiscard]] std::uint64_t total_flips() const { return stats_.flips_emitted; }
  /// The device's true breaker image right now.
  [[nodiscard]] const std::vector<bool>& breakers(std::size_t i) const {
    return devices_[i].breakers;
  }

 private:
  struct Device {
    std::string name;
    std::vector<bool> breakers;
    std::vector<std::uint16_t> readings;
    sim::Time last_flip = 0;
    std::uint64_t flips = 0;
  };

  void tick();
  void emit(Device& device);

  sim::Simulator& sim_;
  FleetConfig config_;
  SinkFn sink_;
  sim::Rng rng_;
  std::vector<Device> devices_;
  std::size_t cursor_ = 0;  ///< next device in the round-robin sweep
  bool running_ = false;
  FleetStats stats_;
  obs::Binder metrics_;
};

}  // namespace spire::plc
