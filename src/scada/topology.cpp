#include "scada/topology.hpp"

#include <cstring>

namespace spire::scada {

namespace {

// A device's wire record, as serialize() and serialize_changes() emit
// it and as the arena stores it:
//   u64 last_report_seq | u8 online | u32 breaker count | one 0/1 byte
//   per breaker | u32 reading count | big-endian u16 per reading
constexpr std::size_t kOnlineAt = 8;
constexpr std::size_t kBreakerCountAt = 9;
constexpr std::size_t kBreakersAt = 13;

constexpr std::size_t record_size(std::size_t breakers, std::size_t readings) {
  return kBreakersAt + breakers + 4 + 2 * readings;
}

std::uint64_t load_be(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

std::span<const std::uint8_t> record_breakers(
    std::span<const std::uint8_t> rec) {
  return rec.subspan(kBreakersAt, load_be(rec.data() + kBreakerCountAt, 4));
}

/// Reads one record, validating it whole, so a caller can check it
/// before writing anything. The returned bytes alias the input.
std::span<const std::uint8_t> read_device_record(util::ByteReader& r) {
  const std::size_t start = r.offset();
  r.u64();
  r.u8();
  const std::uint32_t nb = r.u32();
  if (nb > 65536) throw util::SerializationError("absurd breaker count");
  r.raw_span(nb);
  const std::uint32_t nr = r.u32();
  if (nr > 65536) throw util::SerializationError("absurd reading count");
  r.raw_span(std::size_t{nr} * 2);
  return r.since(start);
}

/// Copies a validated record into its slot, storing its online flag
/// and breakers as 0/1 so the arena always holds canonical bytes.
void copy_record(std::uint8_t* dst, std::span<const std::uint8_t> rec) {
  std::memcpy(dst, rec.data(), rec.size());
  dst[kOnlineAt] = dst[kOnlineAt] != 0;
  const std::size_t nb = record_breakers(rec).size();
  for (std::size_t b = 0; b < nb; ++b) {
    dst[kBreakersAt + b] = dst[kBreakersAt + b] != 0;
  }
}

DeviceState decode_record(std::span<const std::uint8_t> rec) {
  DeviceState d;
  d.last_report_seq = load_be(rec.data(), 8);
  d.online = rec[kOnlineAt] != 0;
  const auto breakers = record_breakers(rec);
  d.breakers.assign(breakers.begin(), breakers.end());
  const std::uint8_t* p = breakers.data() + breakers.size();
  d.readings.resize(load_be(p, 4));
  p += 4;
  for (auto& v : d.readings) {
    v = static_cast<std::uint16_t>(load_be(p, 2));
    p += 2;
  }
  return d;
}

/// Calls fn(handle) for every set bit, in handle order.
template <typename Fn>
void for_each_marked(const std::vector<std::uint64_t>& masks, Fn&& fn) {
  for (std::size_t s = 0; s < masks.size(); ++s) {
    std::uint64_t mask = masks[s];
    while (mask != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(mask));
      mask &= mask - 1;
      fn(static_cast<std::uint32_t>((s << TopologyState::kShardBits) + bit));
    }
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

std::uint32_t TopologyState::register_device(std::string_view name,
                                             std::size_t breaker_count) {
  const std::uint32_t h = names_.intern(name);
  if (h < slots_.size()) return h;  // already registered
  std::uint8_t* rec = add_record(record_size(breaker_count, breaker_count));
  store_be(rec + kBreakerCountAt, breaker_count, 4);
  store_be(rec + kBreakersAt + breaker_count, breaker_count, 4);
  return h;
}

std::uint8_t* TopologyState::add_record(std::size_t size) {
  const auto handle = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{append_space(size), static_cast<std::uint32_t>(size)});
  live_bytes_ += size;
  if ((handle >> kShardBits) >= changed_.size()) changed_.push_back(0);
  return records_.data() + slots_.back().offset;
}

std::uint32_t TopologyState::append_space(std::size_t size) {
  const std::size_t offset = records_.size();
  if (offset + size > 0xFFFF'FFFFu) {
    throw util::SerializationError("record arena over 4 GiB");
  }
  records_.resize(offset + size);
  return static_cast<std::uint32_t>(offset);
}

std::uint8_t* TopologyState::resize_record(std::uint32_t h, std::size_t size) {
  if (slots_[h].size != size) {
    live_bytes_ = live_bytes_ - slots_[h].size + size;
    slots_[h] = Slot{append_space(size), static_cast<std::uint32_t>(size)};
    if (records_.size() - live_bytes_ > live_bytes_) compact();
  }
  return records_.data() + slots_[h].offset;
}

void TopologyState::compact() {
  util::Bytes packed;
  packed.reserve(live_bytes_);
  for (Slot& slot : slots_) {
    const auto* rec = records_.data() + slot.offset;
    slot.offset = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), rec, rec + slot.size);
  }
  records_ = std::move(packed);
}

TopologyState::TopologyState(const ScenarioSpec& spec) {
  std::size_t chars = 0;
  std::size_t bytes = 0;
  for (const auto& d : spec.devices) {
    chars += d.name.size();
    bytes += record_size(d.breaker_names.size(), d.breaker_names.size());
  }
  slots_.reserve(spec.devices.size());
  names_.reserve(spec.devices.size(), chars);
  records_.reserve(bytes);
  changed_.reserve((spec.devices.size() + kShardSize - 1) >> kShardBits);
  for (const auto& d : spec.devices) {
    register_device(d.name, d.breaker_names.size());
  }
}

bool TopologyState::apply_report(std::string_view device,
                                 std::uint64_t report_seq,
                                 const std::vector<bool>& breakers,
                                 const std::vector<std::uint16_t>& readings) {
  const std::uint32_t h = names_.lookup(device);
  if (h == kNoDevice) return false;
  const auto cur = record(h);
  if (report_seq <= load_be(cur.data(), 8)) return false;
  const auto was = record_breakers(cur);
  bool changed = cur[kOnlineAt] == 0 || was.size() != breakers.size();
  for (std::size_t b = 0; !changed && b < was.size(); ++b) {
    changed = (was[b] != 0) != breakers[b];
  }

  std::uint8_t* rec =
      resize_record(h, record_size(breakers.size(), readings.size()));
  store_be(rec, report_seq, 8);
  rec[kOnlineAt] = 1;
  store_be(rec + kBreakerCountAt, breakers.size(), 4);
  std::uint8_t* p = rec + kBreakersAt;
  for (const bool b : breakers) *p++ = b;
  store_be(p, readings.size(), 4);
  p += 4;
  for (const std::uint16_t v : readings) {
    store_be(p, v, 2);
    p += 2;
  }
  changed_[h >> kShardBits] |= std::uint64_t{1} << (h & (kShardSize - 1));
  return changed;
}

std::optional<DeviceState> TopologyState::device(std::string_view name) const {
  return device_by_handle(handle(name));
}

std::optional<DeviceState> TopologyState::device_by_handle(
    std::uint32_t handle) const {
  if (handle >= slots_.size()) return std::nullopt;
  return decode_record(record(handle));
}

std::span<const std::uint8_t> TopologyState::breaker_bytes(
    std::uint32_t handle) const {
  if (handle >= slots_.size()) return {};
  return record_breakers(record(handle));
}

std::uint32_t TopologyState::handle(std::string_view name) const {
  return names_.lookup(name);
}

std::optional<bool> TopologyState::breaker(std::string_view device,
                                           std::size_t index) const {
  const auto bytes = breaker_bytes(handle(device));
  if (index >= bytes.size()) return std::nullopt;
  return bytes[index] != 0;
}

void TopologyState::for_each(
    const std::function<void(const std::string&, const DeviceState&)>& fn)
    const {
  std::string name;  // one buffer, reassigned per device
  for (std::uint32_t h = 0; h < slots_.size(); ++h) {
    name.assign(names_.name(h));
    fn(name, decode_record(record(h)));
  }
}

std::size_t TopologyState::memory_bytes() const {
  return records_.capacity() + slots_.capacity() * sizeof(Slot) +
         names_.memory_bytes() + changed_.capacity() * sizeof(std::uint64_t);
}

util::Bytes TopologyState::serialize() const {
  std::size_t size = 4 + live_bytes_;
  for (std::uint32_t h = 0; h < slots_.size(); ++h) {
    size += 4 + names_.name(h).size();
  }
  util::ByteWriter w(size);
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (std::uint32_t h = 0; h < slots_.size(); ++h) {
    w.str(names_.name(h));
    w.raw(record(h));
  }
  return w.take();
}

TopologyState TopologyState::deserialize(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  const std::uint32_t count = r.u32();
  if (count > (1u << 20)) throw util::SerializationError("absurd device count");
  // First pass validates every entry and totals the names and records,
  // so the second allocates each store once, at its exact size.
  const std::size_t first = r.offset();
  std::size_t chars = 0;
  std::size_t bytes = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    chars += r.str_view().size();
    bytes += read_device_record(r).size();
  }
  r.expect_done();

  TopologyState state;
  state.slots_.reserve(count);
  state.names_.reserve(count, chars);
  state.records_.reserve(bytes);
  state.changed_.reserve((count + kShardSize - 1) >> kShardBits);
  util::ByteReader again(data.subspan(first));
  for (std::uint32_t i = 0; i < count; ++i) {
    // A fresh name gets the next dense handle; a repeat, an older one.
    if (state.names_.intern(again.str_view()) < state.slots_.size()) {
      throw util::SerializationError("duplicate device name");
    }
    const auto rec = read_device_record(again);
    copy_record(state.add_record(rec.size()), rec);
  }
  return state;
}

crypto::Digest TopologyState::digest() const {
  return crypto::sha256(serialize());
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
  std::size_t size = 4;
  std::uint32_t count = 0;
  for_each_marked(changed_, [&](std::uint32_t h) {
    size += 4 + slots_[h].size;
    ++count;
  });
  util::ByteWriter w(size);
  w.u32(count);
  for_each_marked(changed_, [&](std::uint32_t h) {
    w.u32(h);
    w.raw(record(h));
  });
  return w.take();
}

void TopologyState::clear_changes() {
  for (std::uint64_t& mask : changed_) mask = 0;
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
    if (h >= slots_.size()) {
      throw util::SerializationError("unknown device handle in delta");
    }
    // A malformed record throws here, before its device is touched.
    const auto next = read_device_record(r);
    if (on_breaker_change) {
      const auto was = breaker_bytes(h);
      const auto now = record_breakers(next);
      for (std::size_t b = 0; b < now.size(); ++b) {
        const bool was_closed = b < was.size() && was[b] != 0;
        if (was_closed != (now[b] != 0)) on_breaker_change(h, b, now[b] != 0);
      }
    }
    copy_record(resize_record(h, next.size()), next);
    changed_[h >> kShardBits] |= std::uint64_t{1} << (h & (kShardSize - 1));
  }
  r.expect_done();
}

}  // namespace spire::scada
