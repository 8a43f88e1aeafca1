// Replicated SCADA master (the application on top of Prime).
//
// Each Prime replica hosts one ScadaMaster. Ordered client updates are
// batches of field-state reports (from PLC/fleet proxies),
// supervisory commands (from HMIs / the automatic cycling tool), or
// HMI resync requests. The master keeps the replicated topology state,
// emits a signed CommandOrder toward the owning proxy for every
// ordered command, and publishes signed, versioned StateUpdates to the
// HMIs — outputs that the receivers only act on after f+1 replicas
// agree.
//
// Publication is delta-first: after the initial full snapshot, a
// publication serializes only the devices whose shard changed-bits are
// set since the previous publication (TopologyState::serialize_changes)
// — at fleet scale this is KBs instead of MBs per push. Because every
// replica applies the same ordered updates to the same sharded image,
// the delta bytes are byte-identical across replicas and the HMIs'
// f+1 output voting works on deltas exactly as it did on full states.
// The publish decision itself is O(1): a visible-change flag
// accumulated from apply_report return values replaces the old
// O(devices) display-digest comparison.
//
// Paper §III-A property: the master's state is rebuildable from the
// field devices. A master restarted with empty state converges to the
// true topology within one proxy heartbeat interval plus one ordering
// round, because every polled proxy re-sends its device's full state
// at least once per heartbeat (DESIGN.md §14) and reports carry the
// ground truth.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "crypto/keyring.hpp"
#include "prime/application.hpp"
#include "scada/topology.hpp"
#include "scada/wire.hpp"

namespace spire::scada {

struct MasterConfig {
  std::uint32_t replica_id = 0;
  ScenarioSpec scenario;
  /// device name -> proxy client identity that owns it.
  std::map<std::string, std::string> device_proxy;
  /// HMI client identities to push state updates to.
  std::vector<std::string> hmis;
};

class ScadaMaster : public prime::Application {
 public:
  /// `output` delivers replica-signed bytes to one client identity
  /// (wired to the external Spines network by the deployment).
  using OutputFn =
      std::function<void(const std::string& client, const util::Bytes& data)>;

  /// Keeps only the config fields it reads after construction; the
  /// scenario seeds the state and is not retained.
  ScadaMaster(MasterConfig config, const crypto::Keyring& keyring,
              OutputFn output);

  // prime::Application
  void apply(const prime::ClientUpdate& update,
             const prime::ExecutionInfo& info) override;
  [[nodiscard]] util::Bytes snapshot() const override;
  void restore(std::span<const std::uint8_t> blob) override;
  void on_state_transfer() override;

  [[nodiscard]] const TopologyState& state() const { return state_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// Counts constituent device reports: a batch of 40 deltas counts 40.
  [[nodiscard]] std::uint64_t reports_applied() const {
    return reports_applied_;
  }
  [[nodiscard]] std::uint64_t batches_applied() const {
    return batches_applied_;
  }
  [[nodiscard]] std::uint64_t deltas_published() const {
    return deltas_published_;
  }
  [[nodiscard]] std::uint64_t fulls_published() const {
    return fulls_published_;
  }
  [[nodiscard]] std::uint64_t resyncs_served() const {
    return resyncs_served_;
  }

 private:
  void push_state_to_hmis();
  void send_full_to(const std::string& client);

  std::uint32_t replica_id_;
  std::map<std::string, std::string> device_proxy_;
  std::vector<std::string> hmis_;
  crypto::Signer signer_;
  OutputFn output_;
  TopologyState state_;
  std::uint64_t version_ = 0;
  std::uint64_t reports_applied_ = 0;
  std::uint64_t batches_applied_ = 0;
  std::uint64_t deltas_published_ = 0;
  std::uint64_t fulls_published_ = 0;
  std::uint64_t resyncs_served_ = 0;
  // Deterministic HMI push throttle (identical decisions at every
  // replica because state and version are identical): push when an
  // operator-visible field changed, and at least every kPushEvery
  // versions as a heartbeat.
  static constexpr std::uint64_t kPushEvery = 8;
  bool visible_since_push_ = false;
  bool full_next_push_ = true;  ///< first publication is a full snapshot
  bool published_this_update_ = false;
  std::uint64_t last_pushed_version_ = 0;
};

}  // namespace spire::scada
