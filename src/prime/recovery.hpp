// Proactive recovery scheduler (paper §II).
//
// Completion-gated, epoch-guarded rejuvenation: the scheduler takes a
// replica down, wipes it, restarts it with a fresh diversity variant,
// and opens the next recovery slot only once the target's
// application-level state transfer has actually finished (the replica's
// recovery-done signal), so at most `max_concurrent` (= k) replicas are
// ever down or recovering simultaneously — the invariant the sizing
// rule n = 3f + 2k + 1 depends on. With f = 1, k = 1 this is the
// six-replica configuration used in the power-plant deployment (§V).
//
// Guard rails:
//  * a generation counter orphans the periodic tick chain across
//    stop()/start(), so a restart never spawns a second concurrent
//    chain (double-rate takedowns);
//  * per-recovery attempt tokens keep the downtime lambda of one
//    in-flight recovery valid across stop(), so a replica taken down
//    just before stop() is still brought back (no orphaned,
//    permanently-shut-down replica);
//  * a stalled transfer (e.g. partitioned mid-join) is retried by the
//    rejoining replica itself, never by the scheduler: its retry loop
//    polls afresh when the checkpoint it chose has been
//    garbage-collected, so every rejoin, scheduled or not, completes
//    once the replica can reach its peers;
//  * a target restarted with start() behind the scheduler's back is up
//    without a recovery-done signal; the next tick settles its entry so
//    the slot still reopens;
//  * replicas that are down or recovering for reasons outside the
//    scheduler (crash injection, a chaos restart) occupy recovery slots
//    too, keeping the global simultaneously-disturbed count within k.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "prime/replica.hpp"
#include "sim/simulator.hpp"

namespace spire::prime {

struct RecoveryConfig {
  /// Time between the start of consecutive recoveries.
  sim::Time period = 30 * sim::kSecond;
  /// How long a replica stays down before it begins rejoining (reimage
  /// + restart time on real hardware).
  sim::Time downtime = 2 * sim::kSecond;
  /// Hard cap on simultaneous in-flight recoveries — the k the
  /// deployment was sized for. Takedown ticks that would exceed it are
  /// deferred until a completion opens a slot.
  std::uint32_t max_concurrent = 1;
};

/// Observability for the rejuvenation cycle (printed by the soak/fig2
/// benches, asserted by tests).
struct RecoveryStats {
  std::uint64_t takedowns = 0;   ///< shutdowns initiated by the scheduler
  std::uint64_t completed = 0;   ///< full recoveries' transfers finished
  std::uint64_t deferred_ticks = 0;  ///< period ticks gated by the k cap
  std::uint32_t in_flight_high_water = 0;  ///< max simultaneous disturbed
  sim::Time last_recovery_wall = 0;  ///< takedown -> transfer-complete
  sim::Time max_recovery_wall = 0;
  sim::Time total_recovery_wall = 0;
  std::uint64_t transfer_bytes = 0;  ///< snapshot bytes installed
  std::uint64_t state_reqs = 0;      ///< StateReq (re)transmissions
};

class ProactiveRecovery {
 public:
  ProactiveRecovery(sim::Simulator& sim, std::vector<Replica*> replicas,
                    RecoveryConfig config);
  ~ProactiveRecovery();

  ProactiveRecovery(const ProactiveRecovery&) = delete;
  ProactiveRecovery& operator=(const ProactiveRecovery&) = delete;

  /// Begins the rejuvenation cycle (round-robin over replicas). A
  /// restart resets the rotation and starts a fresh tick chain; ticks
  /// scheduled by a previous run never fire again.
  void start();
  /// Stops scheduling new takedowns. In-flight recoveries are not
  /// abandoned: a target still in its downtime window is recovered
  /// immediately, and one mid-transfer completes through its own retry
  /// loop, so no replica is left shut down by a stop() at any instant.
  /// A takedown whose downtime stop() cut short counts in `takedowns`
  /// but not in `completed` or the wall-time stats: it was no full
  /// rejuvenation.
  void stop();

  /// Recoveries whose state transfer finished (not merely started).
  [[nodiscard]] std::uint64_t recoveries_completed() const {
    return stats_.completed;
  }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }
  /// Scheduler-tracked recoveries currently in flight.
  [[nodiscard]] std::uint32_t in_flight() const {
    return static_cast<std::uint32_t>(in_flight_.size());
  }
  /// All currently disturbed replicas: scheduler-tracked in-flight plus
  /// replicas down or recovering for external reasons.
  [[nodiscard]] std::uint32_t disturbed() const;

 private:
  /// One scheduler-initiated recovery, from shutdown() to the
  /// recovery-done signal.
  struct InFlight {
    bool down = true;          ///< still in the downtime window
    bool cut_short = false;    ///< stop() ended the downtime early
    std::uint64_t attempt = 0; ///< token guarding the downtime lambda
    sim::Time taken_down_at = 0;
    std::uint64_t bytes_before = 0;  ///< replica stat snapshots for deltas
    std::uint64_t reqs_before = 0;
  };

  void tick(std::uint64_t gen);
  void schedule_tick(sim::Time delay);
  [[nodiscard]] Replica* pick_target();
  void begin_recovery(Replica* target);
  void bring_up(Replica* target, InFlight& entry);
  void finish(Replica* target);

  sim::Simulator& sim_;
  std::vector<Replica*> replicas_;
  RecoveryConfig config_;
  bool running_ = false;
  std::uint64_t gen_ = 0;  ///< invalidates the periodic tick chain
  bool tick_pending_ = false;  ///< a gated takedown awaits a free slot
  std::size_t next_ = 0;
  std::uint64_t attempt_counter_ = 0;
  std::map<Replica*, InFlight> in_flight_;
  RecoveryStats stats_;
  obs::Binder metrics_;  ///< exposes stats_ in the metrics registry
};

}  // namespace spire::prime
