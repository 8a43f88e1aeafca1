// Deterministic fault-injection harness.
//
// A ChaosInjector runs a schedule of fault episodes — link
// loss/delay/jitter degradation, node partitions, crash-restarts — off
// the discrete-event simulator, so a chaos run replays bit-identically
// for a given seed. The injector is layering-agnostic: it drives the
// system under test only through the ChaosHooks the caller wires up
// (a Prime LoopbackFabric, a full SpireDeployment, ...), so sim/ stays
// free of protocol dependencies.
//
// Schedules can be scripted event-by-event (tests reproducing one
// precise interleaving) or generated randomly within a fault budget of
// one episode at a time — chaos alone never exceeds the single
// disturbed-replica envelope the n = 3f + 2k + 1 sizing assumes on top
// of proactive recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace spire::sim {

/// Fault controls of the system under test. Unset hooks turn that
/// fault kind into a no-op.
struct ChaosHooks {
  /// Degrades every link to this drop probability. Called with 0 when
  /// the episode heals.
  std::function<void(double loss)> set_link_quality;
  /// Cuts a node's connectivity (true) / heals it (false). The node
  /// keeps running — this is a partition, not a crash.
  std::function<void(std::uint32_t node, bool cut)> set_partitioned;
  /// Crashes a node (ungraceful takedown, volatile state lost).
  std::function<void(std::uint32_t node)> crash;
  /// Restarts a crashed node (rejoin via its recovery path).
  std::function<void(std::uint32_t node)> restart;
};

struct ChaosEvent {
  enum class Kind { kLinkDegrade, kPartition, kCrashRestart };
  Kind kind = Kind::kPartition;
  Time at = 0;        ///< absolute simulated time the fault begins
  Time duration = 0;  ///< the fault lifts at `at + duration`
  std::uint32_t node = 0;  ///< target node (partition / crash-restart)
  double loss = 0;         ///< link degrade: drop probability
  /// Link degrade: a delivery jitter bound. Drawn by randomize() so
  /// every seeded schedule stays the same, but never simulated: each
  /// switch port delivers in order, so only the loss is applied.
  Time jitter = 0;
};

struct ChaosStats {
  std::uint64_t injected = 0;  ///< episodes begun
  std::uint64_t healed = 0;    ///< episodes lifted
  std::uint64_t partitions = 0;
  std::uint64_t crash_restarts = 0;
  std::uint64_t link_degrades = 0;
  Time total_fault_time = 0;  ///< summed episode durations (injected ones)
};

class ChaosInjector {
 public:
  ChaosInjector(Simulator& sim, ChaosHooks hooks);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// Appends one scripted episode. Call before arm().
  void add(const ChaosEvent& event);

  /// Appends a randomized schedule over [start, end): sequential
  /// episodes (never overlapping) with exponentially distributed gaps
  /// of the given mean, uniform durations in [min_duration,
  /// max_duration], targets drawn from [0, node_count). Crash-restart
  /// episodes are only generated when `include_crashes` is set —
  /// leave it off when a proactive-recovery scheduler is also running
  /// and chaos should only consume the partition budget.
  void add_random_schedule(Rng rng, Time start, Time end, Time mean_gap,
                           Time min_duration, Time max_duration,
                           std::uint32_t node_count, bool include_crashes);

  /// Schedules every added episode on the simulator.
  void arm();
  /// Heals any active episode and orphans all pending ones.
  void stop();

  [[nodiscard]] const ChaosStats& stats() const { return stats_; }
  [[nodiscard]] bool fault_active() const { return !active_events_.empty(); }
  [[nodiscard]] std::size_t scheduled() const { return events_.size(); }

 private:
  void begin(const ChaosEvent& event);
  void end(const ChaosEvent& event);

  Simulator& sim_;
  ChaosHooks hooks_;
  std::vector<ChaosEvent> events_;
  std::uint64_t gen_ = 0;  ///< orphans scheduled begin/end lambdas
  bool armed_ = false;
  std::vector<ChaosEvent> active_events_;  ///< episodes currently injected
  ChaosStats stats_;
};

}  // namespace spire::sim
