// Power-topology scenarios and replicated SCADA-master state.
//
// Two scenarios from the paper:
//  * red-team (Fig. 4): one physical PLC with seven breakers feeding
//    four buildings, plus ten emulated PLCs modelling distribution to
//    substations and remote sites (§IV-A);
//  * power plant (§V): the three-breaker subset (B10-1, B57, B56) the
//    plant engineers wired to real switchgear, the same ten emulated
//    distribution PLCs, and six new emulated generation PLCs.
//
// Plus the fleet scenario (ROADMAP item 2): a grid operator runs tens
// of thousands of field devices, so the master's device image is
// sharded — devices are interned to dense handles at registration
// (same trick as the overlay's NodeTable), fixed-size shards of 64
// devices carry a changed-device bitmask, and state publication
// serializes only the shards a delta actually touched instead of the
// whole image.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/interner.hpp"

namespace spire::scada {

/// Field protocol spoken on the device<->proxy cable (paper §II).
enum class FieldProtocol { kModbus, kDnp3 };

struct DeviceSpec {
  std::string name;
  std::vector<std::string> breaker_names;
  bool physical = false;  ///< backed by a real (emulated-physical) PLC
  FieldProtocol protocol = FieldProtocol::kModbus;
};

struct ScenarioSpec {
  std::string name;
  std::vector<DeviceSpec> devices;

  [[nodiscard]] const DeviceSpec* device(const std::string& name) const;
  [[nodiscard]] std::size_t total_breakers() const;

  /// The Fig. 4 red-team scenario.
  static ScenarioSpec red_team();
  /// The §V power-plant scenario.
  static ScenarioSpec power_plant();
  /// Synthetic fleet of `devices` emulated field devices ("fd0"…),
  /// `breakers_per_device` breakers each — the 10k-device scale-out.
  static ScenarioSpec fleet(std::size_t devices,
                            std::size_t breakers_per_device = 2);
};

/// Per-device state as known by the SCADA master, decoded from its
/// wire record on demand.
struct DeviceState {
  std::vector<bool> breakers;
  std::vector<std::uint16_t> readings;
  std::uint64_t last_report_seq = 0;
  bool online = false;
};

/// The SCADA master's replicated view of the whole topology.
/// Deterministically serializable so replicas can vote on it and
/// checkpoint it.
///
/// Devices are interned to dense handles (registration order) by a
/// util::StringInterner, which stores each name once. Each
/// device is stored as its wire record — the exact bytes serialize()
/// and serialize_changes() emit for it — in one contiguous
/// handle-indexed arena, so publication and delta application are byte
/// copies rather than per-field encode/decode. A record whose size is
/// unchanged is overwritten in place; one whose breaker or reading
/// count changes moves to the arena's end, and the arena is compacted
/// whenever its dead bytes would exceed its live bytes.
///
/// Shards of kShardSize consecutive handles each carry a
/// changed-device bitmask: apply_report flips one bit, and
/// serialize_changes() walks only non-zero masks, so building a delta
/// state publication is O(changed devices), not O(fleet).
class TopologyState {
 public:
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShardSize = std::size_t{1} << kShardBits;
  static constexpr std::uint32_t kNoDevice = util::StringInterner::kInvalid;

  TopologyState() = default;
  explicit TopologyState(const ScenarioSpec& spec);

  /// Registers a device not described by a ScenarioSpec (used by the
  /// commercial baseline, which is configured by device links). Returns
  /// the device's dense handle (existing handle if already registered).
  std::uint32_t register_device(std::string_view name,
                                std::size_t breaker_count);

  /// Applies a field report; returns true if anything operator-visible
  /// changed (breaker positions or online flag). Reports older than the
  /// last seen sequence for the device are ignored (late/replayed poll
  /// results). Any accepted report marks the device changed for the
  /// next delta publication. Encodes straight into the device's record;
  /// allocates only when the record changes size.
  bool apply_report(std::string_view device, std::uint64_t report_seq,
                    const std::vector<bool>& breakers,
                    const std::vector<std::uint16_t>& readings);

  /// Decoded copy of one device's state; nullopt for an unknown device.
  [[nodiscard]] std::optional<DeviceState> device(std::string_view name) const;
  [[nodiscard]] std::optional<DeviceState> device_by_handle(
      std::uint32_t handle) const;
  /// One breaker position, read from the record without decoding it.
  [[nodiscard]] std::optional<bool> breaker(std::string_view device,
                                            std::size_t index) const;
  /// A device's breaker positions as stored: one 0/1 byte per breaker.
  /// Empty for an unknown handle; invalidated by the next write.
  [[nodiscard]] std::span<const std::uint8_t> breaker_bytes(
      std::uint32_t handle) const;

  [[nodiscard]] std::uint32_t handle(std::string_view name) const;
  /// Valid until the next device registration.
  [[nodiscard]] std::string_view name(std::uint32_t handle) const {
    return names_.name(handle);
  }
  [[nodiscard]] std::size_t device_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t shard_count() const { return changed_.size(); }

  /// Arena footprint: bytes of current records, and bytes the arena
  /// holds including records abandoned by a size change.
  [[nodiscard]] std::size_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::size_t arena_bytes() const { return records_.size(); }
  /// Heap bytes the image holds, by capacity: the record arena, the
  /// slots, the name directory and the changed-device masks.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Visits every device in registration order: fn(name, state), with
  /// the state decoded into a temporary.
  void for_each(
      const std::function<void(const std::string&, const DeviceState&)>& fn)
      const;

  [[nodiscard]] util::Bytes serialize() const;
  static TopologyState deserialize(std::span<const std::uint8_t> data);
  [[nodiscard]] crypto::Digest digest() const;

  // --- delta publication ------------------------------------------------
  /// True when any device changed since the last clear_changes().
  [[nodiscard]] bool has_changes() const;
  /// Number of devices currently marked changed.
  [[nodiscard]] std::size_t changed_count() const;

  /// Serializes absolute records for every changed device, walking only
  /// shards whose bitmask is non-zero. Does not clear the marks.
  [[nodiscard]] util::Bytes serialize_changes() const;
  void clear_changes();

  /// Per-shard changed bitmasks; exposed so the master can carry them
  /// through snapshot/restore and a recovered replica resumes emitting
  /// byte-identical delta publications.
  [[nodiscard]] const std::vector<std::uint64_t>& changed_masks() const {
    return changed_;
  }
  void set_changed_masks(std::vector<std::uint64_t> masks);

  /// Fired for each breaker whose displayed position a delta flips:
  /// (handle, breaker index, now closed).
  using BreakerChangeFn =
      std::function<void(std::uint32_t, std::size_t, bool)>;

  /// Applies a serialize_changes() payload produced by a state with the
  /// same registration order (records are absolute, so re-applying an
  /// already-covered delta is idempotent). Throws SerializationError on
  /// malformed input or a device handle this state doesn't know — the
  /// HMI treats that as "my base is stale, request a resync".
  /// Each record is validated whole before it is copied over its
  /// device's record: a malformed record changes nothing and fires no
  /// observer, while the records before it stay applied.
  void apply_delta(std::span<const std::uint8_t> data,
                   const BreakerChangeFn& on_breaker_change = {});

 private:
  struct Slot {
    std::uint32_t offset = 0;  ///< into records_
    std::uint32_t size = 0;
  };

  [[nodiscard]] std::span<const std::uint8_t> record(std::uint32_t h) const {
    return {records_.data() + slots_[h].offset, slots_[h].size};
  }
  /// Appends a zeroed record of `size` bytes for the device just
  /// interned and returns where to write it.
  std::uint8_t* add_record(std::size_t size);
  /// Grows the arena by `size` bytes and returns where they start.
  std::uint32_t append_space(std::size_t size);
  /// Returns device `h`'s record storage resized to `size` bytes:
  /// in place when the size matches, else relocated to the arena's end.
  std::uint8_t* resize_record(std::uint32_t h, std::size_t size);
  void compact();

  util::Bytes records_;     // wire records, addressed through slots_
  std::vector<Slot> slots_;  // dense, handle-indexed
  std::size_t live_bytes_ = 0;
  util::StringInterner names_;  // handle <-> name, in registration order
  std::vector<std::uint64_t> changed_;  // one bit per device, per shard
};

}  // namespace spire::scada
