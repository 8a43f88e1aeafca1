#include "net/switch.hpp"

#include <cmath>

namespace spire::net {

Switch::Switch(sim::Simulator& sim, SwitchConfig config)
    : sim_(sim),
      config_(std::move(config)),
      log_("net.switch." + config_.name) {}

PortId Switch::add_port(std::function<void(EthernetFrame)> deliver) {
  ports_.push_back(Port{std::move(deliver), 0, {}});
  return ports_.size() - 1;
}

void Switch::bind_mac(const MacAddress& mac, PortId port) {
  static_table_[mac] = port;
}

void Switch::add_tap(std::string network_label, PcapSink sink) {
  taps_.push_back(
      Tap{NetworkLabels::instance().intern(network_label), std::move(sink)});
}

void Switch::add_capture_tap(CaptureTap* tap) {
  capture_taps_.push_back(tap);
}

void Switch::set_chaos(double loss) { chaos_loss_ = loss; }

void Switch::receive(PortId ingress, EthernetFrame frame) {
  // Mirror to taps first: a capture port sees traffic even if the
  // switch later drops it (that is what makes DoS visible to MANA).
  for (CaptureTap* tap : capture_taps_) tap->capture(sim_.now(), frame);
  for (const auto& tap : taps_) {
    tap.sink(PcapRecord{sim_.now(), tap.label, frame});
  }

  if (config_.static_port_binding) {
    const auto it = static_table_.find(frame.src);
    if (it == static_table_.end() || it->second != ingress) {
      ++stats_.frames_dropped_binding;
      log_.debug("dropped frame from ", frame.src.str(), " on port ", ingress,
                 " (static binding violation)");
      return;
    }
  } else {
    learned_table_[frame.src] = ingress;
  }

  const auto& table =
      config_.static_port_binding ? static_table_ : learned_table_;

  if (!frame.dst.is_broadcast()) {
    const auto it = table.find(frame.dst);
    if (it != table.end()) {
      if (it->second != ingress) emit(it->second, std::move(frame));
      return;
    }
    if (config_.static_port_binding) {
      // Unknown unicast is not flooded when bindings are static: the
      // operator enumerated every legitimate device.
      ++stats_.frames_dropped_binding;
      return;
    }
  }

  // Broadcast or unknown unicast: flood.
  ++stats_.frames_flooded;
  for (PortId p = 0; p < ports_.size(); ++p) {
    if (p != ingress) emit(p, frame);
  }
}

void Switch::emit(PortId port, EthernetFrame frame) {
  Port& p = ports_[port];
  if (chaos_loss_ > 0 && chaos_rng_.chance(chaos_loss_)) {
    ++stats_.frames_dropped_chaos;
    return;
  }
  if (p.in_flight.size() >= config_.egress_queue_frames) {
    ++stats_.frames_dropped_queue;
    return;
  }
  ++stats_.frames_forwarded;

  const sim::Time start = std::max(sim_.now(), p.busy_until);
  const auto serialization = static_cast<sim::Time>(
      std::ceil(static_cast<double>(frame.wire_size()) / config_.bytes_per_us));
  const sim::Time done = start + serialization;
  p.busy_until = done;

  p.in_flight.push_back(std::move(frame));
  // The closure is two words, small enough for std::function to hold
  // without a heap allocation.
  sim_.schedule_at(done + config_.propagation_delay,
                   [this, port] { deliver_front(port); });
}

void Switch::deliver_front(PortId port) {
  Port& out = ports_[port];
  EthernetFrame frame = std::move(out.in_flight.front());
  out.in_flight.pop_front();
  if (out.deliver) out.deliver(std::move(frame));
}

}  // namespace spire::net
