#include "scada/topology.hpp"

namespace spire::scada {

namespace {

void put_device_record(util::ByteWriter& w, const DeviceState& state) {
  w.u64(state.last_report_seq);
  w.boolean(state.online);
  w.u32(static_cast<std::uint32_t>(state.breakers.size()));
  for (const bool b : state.breakers) w.boolean(b);
  w.u32(static_cast<std::uint32_t>(state.readings.size()));
  for (const auto v : state.readings) w.u16(v);
}

/// A device record parsed in place: the breaker bytes and big-endian
/// readings alias the input. Reading one validates the whole record, so
/// a caller can check it before writing anything.
struct RecordView {
  std::uint64_t last_report_seq = 0;
  bool online = false;
  std::span<const std::uint8_t> breakers;  ///< one byte per breaker
  std::span<const std::uint8_t> readings;  ///< two bytes per reading
};

RecordView read_device_record(util::ByteReader& r) {
  RecordView v;
  v.last_report_seq = r.u64();
  v.online = r.boolean();
  const std::uint32_t nb = r.u32();
  if (nb > 65536) throw util::SerializationError("absurd breaker count");
  v.breakers = r.raw_span(nb);
  const std::uint32_t nr = r.u32();
  if (nr > 65536) throw util::SerializationError("absurd reading count");
  v.readings = r.raw_span(std::size_t{nr} * 2);
  return v;
}

/// Overwrites `d` with `v`; allocates only when a vector must grow.
void store_device_record(DeviceState& d, const RecordView& v) {
  d.last_report_seq = v.last_report_seq;
  d.online = v.online;
  d.breakers.resize(v.breakers.size());
  for (std::size_t b = 0; b < v.breakers.size(); ++b) {
    d.breakers[b] = v.breakers[b] != 0;
  }
  d.readings.resize(v.readings.size() / 2);
  for (std::size_t i = 0; i < d.readings.size(); ++i) {
    d.readings[i] = static_cast<std::uint16_t>((v.readings[2 * i] << 8) |
                                               v.readings[2 * i + 1]);
  }
}

}  // namespace

const DeviceSpec* ScenarioSpec::device(const std::string& name) const {
  for (const auto& d : devices) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::size_t ScenarioSpec::total_breakers() const {
  std::size_t total = 0;
  for (const auto& d : devices) total += d.breaker_names.size();
  return total;
}

ScenarioSpec ScenarioSpec::red_team() {
  ScenarioSpec spec;
  spec.name = "red-team-2017";
  // The physical PLC: seven breakers managing power to four buildings
  // (Fig. 4). B10-1/B57/B56 are named in the paper; the rest follow the
  // same feeder naming style.
  spec.devices.push_back(DeviceSpec{
      "plc-phys",
      {"B10-1", "B57", "B56", "B41", "B42", "B23", "B24"},
      true});
  // Ten emulated PLCs modelling distribution to substations and remote
  // sites (§IV-A), four breakers each.
  for (int i = 0; i < 10; ++i) {
    DeviceSpec d;
    d.name = "dist" + std::to_string(i);
    for (int b = 0; b < 4; ++b) {
      d.breaker_names.push_back("D" + std::to_string(i) + "-" +
                                std::to_string(b));
    }
    spec.devices.push_back(std::move(d));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::power_plant() {
  ScenarioSpec spec;
  spec.name = "power-plant-2018";
  // The plant engineers wired the three left-hand breakers of Fig. 4 to
  // real switchgear (§V).
  spec.devices.push_back(DeviceSpec{"plc-plant", {"B10-1", "B57", "B56"}, true});
  for (int i = 0; i < 10; ++i) {
    DeviceSpec d;
    d.name = "dist" + std::to_string(i);
    for (int b = 0; b < 4; ++b) {
      d.breaker_names.push_back("D" + std::to_string(i) + "-" +
                                std::to_string(b));
    }
    spec.devices.push_back(std::move(d));
  }
  // Six new emulated devices modelling a power-generation scenario
  // (§V); generation-side devices are DNP3 RTUs, exercising the other
  // field protocol the paper names.
  for (int i = 0; i < 6; ++i) {
    DeviceSpec d;
    d.name = "gen" + std::to_string(i);
    d.protocol = FieldProtocol::kDnp3;
    for (int b = 0; b < 3; ++b) {
      d.breaker_names.push_back("G" + std::to_string(i) + "-" +
                                std::to_string(b));
    }
    spec.devices.push_back(std::move(d));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::fleet(std::size_t devices,
                                 std::size_t breakers_per_device) {
  ScenarioSpec spec;
  spec.name = "fleet-" + std::to_string(devices);
  spec.devices.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    DeviceSpec d;
    d.name = "fd" + std::to_string(i);
    for (std::size_t b = 0; b < breakers_per_device; ++b) {
      d.breaker_names.push_back("F" + std::to_string(i) + "-" +
                                std::to_string(b));
    }
    spec.devices.push_back(std::move(d));
  }
  return spec;
}

std::uint32_t TopologyState::register_device(const std::string& name,
                                             std::size_t breaker_count) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto handle = static_cast<std::uint32_t>(states_.size());
  DeviceState state;
  state.breakers.assign(breaker_count, false);
  state.readings.assign(breaker_count, 0);
  states_.push_back(std::move(state));
  names_.push_back(name);
  index_.emplace(name, handle);
  if ((handle >> kShardBits) >= changed_.size()) changed_.push_back(0);
  return handle;
}

TopologyState::TopologyState(const ScenarioSpec& spec) {
  states_.reserve(spec.devices.size());
  names_.reserve(spec.devices.size());
  for (const auto& d : spec.devices) {
    register_device(d.name, d.breaker_names.size());
  }
}

bool TopologyState::apply_report(const std::string& device,
                                 std::uint64_t report_seq,
                                 const std::vector<bool>& breakers,
                                 const std::vector<std::uint16_t>& readings) {
  const auto it = index_.find(device);
  if (it == index_.end()) return false;
  const std::uint32_t h = it->second;
  DeviceState& state = states_[h];
  if (report_seq <= state.last_report_seq) return false;
  const bool changed = state.breakers != breakers || !state.online;
  state.breakers = breakers;
  state.readings = readings;
  state.last_report_seq = report_seq;
  state.online = true;
  changed_[h >> kShardBits] |= std::uint64_t{1} << (h & (kShardSize - 1));
  return changed;
}

const DeviceState* TopologyState::device(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &states_[it->second];
}

std::uint32_t TopologyState::handle(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kNoDevice : it->second;
}

std::optional<bool> TopologyState::breaker(const std::string& device,
                                           std::size_t index) const {
  const auto* d = this->device(device);
  if (!d || index >= d->breakers.size()) return std::nullopt;
  return d->breakers[index];
}

util::Bytes TopologyState::serialize() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(states_.size()));
  for (std::size_t i = 0; i < states_.size(); ++i) {
    w.str(names_[i]);
    put_device_record(w, states_[i]);
  }
  return w.take();
}

TopologyState TopologyState::deserialize(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  TopologyState state;
  const std::uint32_t count = r.u32();
  if (count > (1u << 20)) throw util::SerializationError("absurd device count");
  state.states_.reserve(count);
  state.names_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    const std::uint32_t h = state.register_device(name, 0);
    if (h != i) throw util::SerializationError("duplicate device name");
    store_device_record(state.states_[h], read_device_record(r));
  }
  r.expect_done();
  return state;
}

crypto::Digest TopologyState::digest() const {
  return crypto::sha256(serialize());
}

crypto::Digest TopologyState::display_digest() const {
  util::ByteWriter w;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    w.str(names_[i]);
    w.boolean(states_[i].online);
    for (const bool b : states_[i].breakers) w.boolean(b);
  }
  return crypto::sha256(w.bytes());
}

bool TopologyState::has_changes() const {
  for (const std::uint64_t mask : changed_) {
    if (mask != 0) return true;
  }
  return false;
}

std::size_t TopologyState::changed_count() const {
  std::size_t n = 0;
  for (const std::uint64_t mask : changed_) {
    n += static_cast<std::size_t>(__builtin_popcountll(mask));
  }
  return n;
}

util::Bytes TopologyState::serialize_changes() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(changed_count()));
  for (std::size_t s = 0; s < changed_.size(); ++s) {
    std::uint64_t mask = changed_[s];
    while (mask != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(mask));
      mask &= mask - 1;
      const auto h = static_cast<std::uint32_t>((s << kShardBits) + bit);
      w.u32(h);
      put_device_record(w, states_[h]);
    }
  }
  return w.take();
}

void TopologyState::clear_changes() {
  for (std::uint64_t& mask : changed_) mask = 0;
}

void TopologyState::mark_all_changed() {
  if (changed_.empty()) return;
  for (std::uint64_t& mask : changed_) mask = ~std::uint64_t{0};
  // Trim the final partial shard to registered devices.
  const std::size_t tail = states_.size() & (kShardSize - 1);
  if (tail != 0) {
    changed_.back() = (std::uint64_t{1} << tail) - 1;
  }
}

void TopologyState::set_changed_masks(std::vector<std::uint64_t> masks) {
  masks.resize(changed_.size(), 0);
  changed_ = std::move(masks);
}

void TopologyState::apply_delta(std::span<const std::uint8_t> data,
                                const BreakerChangeFn& on_breaker_change) {
  util::ByteReader r(data);
  const std::uint32_t count = r.u32();
  if (count > (1u << 20)) throw util::SerializationError("absurd delta count");
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t h = r.u32();
    if (h >= states_.size()) {
      throw util::SerializationError("unknown device handle in delta");
    }
    // A malformed record throws here, before its device is touched.
    const RecordView next = read_device_record(r);
    DeviceState& cur = states_[h];
    if (on_breaker_change) {
      for (std::size_t b = 0; b < next.breakers.size(); ++b) {
        const bool was = b < cur.breakers.size() && cur.breakers[b];
        const bool now = next.breakers[b] != 0;
        if (was != now) on_breaker_change(h, b, now);
      }
    }
    store_device_record(cur, next);
    changed_[h >> kShardBits] |= std::uint64_t{1} << (h & (kShardSize - 1));
  }
  r.expect_done();
}

}  // namespace spire::scada
