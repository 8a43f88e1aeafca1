#include "plc/fleet.hpp"

#include "obs/trace.hpp"

namespace spire::plc {

constexpr std::size_t kReadingsPerDevice = 2;

EmulatedFleet::EmulatedFleet(sim::Simulator& sim, FleetConfig config,
                             SinkFn sink)
    : sim_(sim),
      config_(config),
      sink_(std::move(sink)),
      rng_(config.seed),
      metrics_("plc.fleet") {
  if (config_.slices == 0) config_.slices = 1;
  devices_.reserve(config_.devices);
  for (std::size_t i = 0; i < config_.devices; ++i) {
    Device d;
    d.name = "fd" + std::to_string(i);
    d.breakers.assign(config_.breakers_per_device, true);  // energized
    d.readings.assign(kReadingsPerDevice, 0);
    for (auto& reading : d.readings) {
      reading = static_cast<std::uint16_t>(rng_.uniform(100, 900));
    }
    devices_.push_back(std::move(d));
  }
  metrics_.counter("reports_emitted", &stats_.reports_emitted);
  metrics_.counter("flips_emitted", &stats_.flips_emitted);
}

void EmulatedFleet::start() {
  if (running_ || devices_.empty()) return;
  running_ = true;
  tick();
}

void EmulatedFleet::tick() {
  if (!running_) return;
  // One slice of the fleet per timer event: 10k devices at 50 slices
  // is 200 reports per event, every interval/50.
  const std::size_t per_slice =
      (devices_.size() + config_.slices - 1) / config_.slices;
  for (std::size_t n = 0; n < per_slice && n < devices_.size(); ++n) {
    emit(devices_[cursor_]);
    cursor_ = (cursor_ + 1) % devices_.size();
  }
  sim_.schedule_after(config_.report_interval / config_.slices,
                      [this] { tick(); });
}

void EmulatedFleet::emit(Device& device) {
  // Telemetry drifts every report; breakers flip rarely and never
  // faster than min_flip_gap per device.
  for (auto& reading : device.readings) {
    const auto jitter = static_cast<std::uint16_t>(rng_.uniform(0, 20));
    reading = static_cast<std::uint16_t>(500 + ((reading + jitter) % 500));
  }
  bool flipped = false;
  if (!device.breakers.empty() && rng_.chance(config_.flip_chance) &&
      sim_.now() >= device.last_flip + config_.min_flip_gap) {
    const auto breaker = static_cast<std::size_t>(
        rng_.uniform(0, device.breakers.size() - 1));
    device.breakers[breaker] = !device.breakers[breaker];
    device.last_flip = sim_.now();
    ++device.flips;
    ++stats_.flips_emitted;
    flipped = true;
    if (auto* tracer = obs::Tracer::current()) {
      tracer->plc_change(device.name, breaker);
    }
  }
  ++stats_.reports_emitted;
  sink_(device.name, device.breakers, device.readings, flipped);
}

}  // namespace spire::plc
