// HMI: the operator's view of the topology (Fig. 4) plus command entry.
//
// The HMI renders a topology version only after f+1 replicas delivered
// byte-identical state at that version, so a compromised master cannot
// show the operator a false picture. Display changes are timestamped
// per breaker — the hook the plant measurement device used (§V): a box
// on the screen flipped black/white with a breaker, and sensors timed
// the change.
//
// State arrives either as full snapshots or — the steady-state path at
// fleet scale — as deltas covering only the devices that changed since
// the previous publication. Delta records carry absolute device
// states, so a delta is applicable whenever the displayed version is
// at least its base version. An HMI that missed the base (restart,
// shed messages) asks the masters for a full snapshot with a
// rate-limited ResyncRequest and keeps the pending delta votes; they
// are re-examined after every adoption.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "crypto/keyring.hpp"
#include "obs/metrics.hpp"
#include "scada/client.hpp"
#include "scada/topology.hpp"
#include "scada/wire.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::scada {

struct HmiConfig {
  std::string identity;  ///< e.g. "client/hmi-control-room"
  std::uint32_t f = 1;
};

struct HmiStats {
  std::uint64_t updates_received = 0;
  std::uint64_t updates_rejected_sig = 0;
  std::uint64_t states_hashed = 0;  ///< SHA-256s of received state bytes
  std::uint64_t versions_displayed = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t resyncs_requested = 0;
  std::uint64_t commands_issued = 0;
};

/// Fired when a displayed breaker changes: (device, index, closed, at).
using DisplayObserver = std::function<void(const std::string&, std::size_t,
                                           bool, sim::Time)>;

class Hmi {
 public:
  Hmi(sim::Simulator& sim, HmiConfig config, const crypto::Keyring& keyring,
      crypto::Verifier replica_verifier, ScadaClient::SubmitFn submit);

  /// Feed for replica->HMI traffic. Parses in place; an update at or
  /// below the displayed version is dropped before its HMAC is checked.
  /// Every other update's state is hashed once per distinct content —
  /// a byte-identical pending content lends its stored digest — and
  /// the update's own HMAC is verified before it votes.
  void on_master_output(std::span<const std::uint8_t> data);

  /// Operator action: command a breaker.
  std::uint64_t command_breaker(const std::string& device,
                                std::uint16_t breaker, bool close);

  [[nodiscard]] const TopologyState& display() const { return display_; }
  [[nodiscard]] std::uint64_t displayed_version() const { return version_; }
  [[nodiscard]] sim::Time last_display_change() const { return last_change_; }
  [[nodiscard]] const HmiStats& stats() const { return stats_; }
  /// Distinct contents buffered across all pending versions.
  [[nodiscard]] std::size_t pending_contents() const;

  /// Replaces all display observers with `obs`.
  void set_display_observer(DisplayObserver obs) {
    observers_.clear();
    observers_.push_back(std::move(obs));
  }
  /// Adds an additional observer (e.g. a historian feed).
  void add_display_observer(DisplayObserver obs) {
    observers_.push_back(std::move(obs));
  }

  /// Operator restart of the HMI session: forgets the displayed version
  /// and pending votes. Used after a full-system ground-truth rebuild
  /// (paper §III-A), where the masters legitimately restart their
  /// version counters.
  void reset_display();

 private:
  /// One distinct content voted for at a version. The state bytes are
  /// stored once per distinct content, not once per replica — at fleet
  /// scale an update is KBs and f+1 copies per version would dominate
  /// HMI memory. Votes pool only on byte-identical (kind, base_version,
  /// state); a replica holds at most one content per (version, kind).
  struct Content {
    std::uint8_t kind = StateUpdate::kFull;
    std::uint64_t base_version = 0;
    util::Bytes state;
    crypto::Digest digest{};  ///< SHA-256(state)
    std::vector<std::uint32_t> replicas;  ///< distinct voters

    [[nodiscard]] bool matches(const StateUpdateView& update) const;
    [[nodiscard]] bool has(std::uint32_t replica) const;
  };

  /// The pending content byte-identical to `update`, if any.
  [[nodiscard]] Content* find_content(const StateUpdateView& update);
  /// Records a verified update's vote for `match` (its pending content,
  /// or nullptr to start a new one with `digest`).
  void vote(const StateUpdateView& update, Content* match,
            const crypto::Digest& digest);
  void try_adopt();
  void adopt_full(std::uint64_t version, TopologyState state);
  bool adopt_delta(std::uint64_t version, const util::Bytes& payload);
  void finish_adopt(std::uint64_t version);
  void request_resync();

  /// Pending-vote bound; beyond this the oldest bucket is dropped and a
  /// resync requested instead of buffering without limit.
  static constexpr std::size_t kMaxPendingVotes = 512;

  sim::Simulator& sim_;
  HmiConfig config_;
  util::Logger log_;
  crypto::Verifier replica_verifier_;
  ScadaClient client_;

  TopologyState display_;
  std::uint64_t version_ = 0;
  sim::Time last_change_ = 0;
  sim::Time last_resync_ = 0;
  bool resync_requested_ = false;
  std::uint64_t next_command_id_ = 1;

  /// version -> distinct contents voted for at that version.
  std::map<std::uint64_t, std::vector<Content>> votes_;

  HmiStats stats_;
  obs::Binder metrics_;  ///< exposes stats_ in the metrics registry
  std::vector<DisplayObserver> observers_;
};

}  // namespace spire::scada
