#include "prime/recovery.hpp"

#include <algorithm>

namespace spire::prime {

ProactiveRecovery::ProactiveRecovery(sim::Simulator& sim,
                                     std::vector<Replica*> replicas,
                                     RecoveryConfig config)
    : sim_(sim),
      replicas_(std::move(replicas)),
      config_(config),
      metrics_("prime.recovery") {
  metrics_.counter("takedowns", &stats_.takedowns);
  metrics_.counter("completed", &stats_.completed);
  metrics_.counter("deferred_ticks", &stats_.deferred_ticks);
  metrics_.counter("transfer_bytes", &stats_.transfer_bytes);
  metrics_.counter("state_reqs", &stats_.state_reqs);
  metrics_.gauge_fn("in_flight_high_water", [this] {
    return static_cast<std::int64_t>(stats_.in_flight_high_water);
  });
  metrics_.gauge_fn("max_recovery_wall_us", [this] {
    return static_cast<std::int64_t>(stats_.max_recovery_wall);
  });
  metrics_.gauge_fn("last_recovery_wall_us", [this] {
    return static_cast<std::int64_t>(stats_.last_recovery_wall);
  });
  metrics_.gauge_fn("total_recovery_wall_us", [this] {
    return static_cast<std::int64_t>(stats_.total_recovery_wall);
  });
  // The recovery-done signal is the completion gate: a slot reopens
  // only when the target's state transfer has actually finished.
  for (Replica* r : replicas_) {
    r->set_recovery_done_observer([this, r] { finish(r); });
  }
}

ProactiveRecovery::~ProactiveRecovery() {
  for (Replica* r : replicas_) r->set_recovery_done_observer(nullptr);
}

void ProactiveRecovery::start() {
  if (running_) return;
  running_ = true;
  ++gen_;  // orphan any tick scheduled by a previous run (stale-tick bug)
  next_ = 0;
  tick_pending_ = false;
  schedule_tick(config_.period);
}

void ProactiveRecovery::stop() {
  running_ = false;
  ++gen_;  // the periodic chain dies; per-recovery lambdas stay valid
  tick_pending_ = false;
  // Never leave a replica shut down: a target still in its downtime
  // window is brought back immediately; one mid-transfer keeps retrying
  // on its own and completes.
  for (auto& [target, entry] : in_flight_) {
    if (!entry.down) continue;
    entry.cut_short = true;
    bring_up(target, entry);
  }
}

std::uint32_t ProactiveRecovery::disturbed() const {
  std::uint32_t count = static_cast<std::uint32_t>(in_flight_.size());
  for (Replica* r : replicas_) {
    if (in_flight_.count(r)) continue;
    if (!r->running() || r->recovering()) ++count;
  }
  return count;
}

void ProactiveRecovery::schedule_tick(sim::Time delay) {
  const std::uint64_t gen = gen_;
  sim_.schedule_after(delay, [this, gen] { tick(gen); });
}

Replica* ProactiveRecovery::pick_target() {
  // Descending order: with leader = view mod n, ascending order would
  // take down the *current* leader on every single step (each view
  // change hands leadership to the next recovery target). Descending
  // hits the leader at most once per cycle, as in a real deployment.
  for (std::size_t probes = 0; probes < replicas_.size(); ++probes) {
    Replica* candidate = replicas_[replicas_.size() - 1 - next_];
    next_ = (next_ + 1) % replicas_.size();
    // Skip replicas already disturbed — in flight with us, externally
    // crashed, or running their own state transfer. Rejuvenating those
    // would double-count a slot (or wipe a replica mid-rejoin).
    if (in_flight_.count(candidate)) continue;
    if (!candidate->running() || candidate->recovering()) continue;
    return candidate;
  }
  return nullptr;
}

void ProactiveRecovery::tick(std::uint64_t gen) {
  if (gen != gen_ || !running_) return;
  // A target restarted with start() behind our back is up, but sends no
  // recovery-done signal: settle its entry so the slot reopens. When
  // that resumes a paused cycle, finish() has scheduled the fresh tick
  // that takes over from this one.
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const auto [target, entry] = *it++;  // finish() erases the entry
    if (!entry.down && target->running() && !target->recovering()) {
      finish(target);
    }
  }
  if (gen != gen_) return;
  // Completion gate: every disturbed replica — ours or not — occupies
  // one of the k slots the sizing rule budgets for. If all are taken,
  // the cycle pauses here and resumes from finish().
  if (disturbed() >= config_.max_concurrent) {
    ++stats_.deferred_ticks;
    tick_pending_ = true;
    // Fallback re-check: if the slot is held by an *external*
    // disturbance (crash injection, a chaos restart), no finish() of
    // ours will ever resume the cycle. finish() orphans this re-check
    // via a generation bump, so one chain always exists.
    schedule_tick(config_.period);
    return;
  }
  if (Replica* target = pick_target()) begin_recovery(target);
  schedule_tick(config_.period);
}

void ProactiveRecovery::begin_recovery(Replica* target) {
  InFlight entry;
  entry.down = true;
  entry.attempt = ++attempt_counter_;
  entry.taken_down_at = sim_.now();
  entry.bytes_before = target->stats().state_transfer_bytes;
  entry.reqs_before = target->stats().state_reqs_sent;
  in_flight_[target] = entry;
  ++stats_.takedowns;
  stats_.in_flight_high_water =
      std::max(stats_.in_flight_high_water, disturbed());

  target->shutdown();
  const std::uint64_t attempt = entry.attempt;
  // Guarded by the attempt token, not the generation: stop() must not
  // orphan the pending bring-up (that was the stuck-replica bug). When
  // stop() brings the target up early, the lambda finds it no longer
  // down.
  sim_.schedule_after(config_.downtime, [this, target, attempt] {
    const auto it = in_flight_.find(target);
    if (it == in_flight_.end() || it->second.attempt != attempt) return;
    if (!it->second.down) return;
    bring_up(target, it->second);
  });
}

void ProactiveRecovery::bring_up(Replica* target, InFlight& entry) {
  entry.down = false;
  target->recover();
}

void ProactiveRecovery::finish(Replica* target) {
  const auto it = in_flight_.find(target);
  // Rejoins the scheduler did not initiate (a chaos restart's
  // recover()) are not ours to account.
  if (it == in_flight_.end()) return;
  const InFlight& entry = it->second;
  if (!entry.cut_short) {
    const sim::Time wall = sim_.now() - entry.taken_down_at;
    ++stats_.completed;
    stats_.last_recovery_wall = wall;
    stats_.max_recovery_wall = std::max(stats_.max_recovery_wall, wall);
    stats_.total_recovery_wall += wall;
  }
  stats_.transfer_bytes +=
      target->stats().state_transfer_bytes - entry.bytes_before;
  stats_.state_reqs += target->stats().state_reqs_sent - entry.reqs_before;
  in_flight_.erase(it);

  if (running_ && tick_pending_) {
    tick_pending_ = false;
    // Resume the paused cycle off the simulator, not inside the
    // replica's own completion path (deterministic ordering; no
    // takedown reentrancy with a state-transfer message in hand). The
    // generation bump orphans the fallback re-check tick so the resumed
    // chain is the only one.
    ++gen_;
    schedule_tick(0);
  }
}

}  // namespace spire::prime
