#include "sim/chaos.hpp"

#include <algorithm>

namespace spire::sim {

ChaosInjector::ChaosInjector(Simulator& sim, ChaosHooks hooks)
    : sim_(sim), hooks_(std::move(hooks)) {}

void ChaosInjector::add(const ChaosEvent& event) { events_.push_back(event); }

void ChaosInjector::add_random_schedule(Rng rng, Time start, Time end,
                                        Time mean_gap, Time min_duration,
                                        Time max_duration,
                                        std::uint32_t node_count,
                                        bool include_crashes) {
  Time cursor = start;
  while (true) {
    cursor += static_cast<Time>(rng.exponential(static_cast<double>(mean_gap)));
    if (cursor >= end) break;
    ChaosEvent event;
    event.at = cursor;
    event.duration = rng.uniform(min_duration, max_duration);
    // An episode that would outlive the schedule is clipped so the
    // system is guaranteed fault-free after `end`.
    event.duration = std::min(event.duration, end - cursor);
    const std::uint64_t kinds = include_crashes ? 3 : 2;
    switch (rng.uniform(0, kinds - 1)) {
      case 0:
        event.kind = ChaosEvent::Kind::kLinkDegrade;
        event.loss = 0.01 + 0.04 * rng.uniform01();  // 1-5% drop
        event.jitter = 1 * kMillisecond +
                       static_cast<Time>(rng.uniform(0, 2)) * kMillisecond;
        break;
      case 1:
        event.kind = ChaosEvent::Kind::kPartition;
        event.node = static_cast<std::uint32_t>(
            rng.uniform(0, node_count > 0 ? node_count - 1 : 0));
        break;
      default:
        event.kind = ChaosEvent::Kind::kCrashRestart;
        event.node = static_cast<std::uint32_t>(
            rng.uniform(0, node_count > 0 ? node_count - 1 : 0));
        break;
    }
    events_.push_back(event);
    // Sequential episodes only: the next fault starts after this one
    // heals, so chaos by itself disturbs at most one node at a time.
    cursor += event.duration;
  }
}

void ChaosInjector::arm() {
  armed_ = true;
  const std::uint64_t gen = gen_;
  for (const ChaosEvent& event : events_) {
    sim_.schedule_at(event.at, [this, gen, event] {
      if (gen != gen_) return;
      begin(event);
    });
    sim_.schedule_at(event.at + event.duration, [this, gen, event] {
      if (gen != gen_) return;
      end(event);
    });
  }
}

void ChaosInjector::stop() {
  ++gen_;
  if (!armed_) return;
  // Heal exactly the in-flight episodes so a stop() mid-fault leaves
  // the system clean (mirrors the recovery scheduler's no-orphans
  // contract) without touching nodes whose episodes never began.
  const std::vector<ChaosEvent> active = std::move(active_events_);
  active_events_.clear();
  for (const ChaosEvent& event : active) end(event);
}

void ChaosInjector::begin(const ChaosEvent& event) {
  active_events_.push_back(event);
  ++stats_.injected;
  stats_.total_fault_time += event.duration;
  switch (event.kind) {
    case ChaosEvent::Kind::kLinkDegrade:
      ++stats_.link_degrades;
      if (hooks_.set_link_quality) {
        hooks_.set_link_quality(event.loss);
      }
      break;
    case ChaosEvent::Kind::kPartition:
      ++stats_.partitions;
      if (hooks_.set_partitioned) hooks_.set_partitioned(event.node, true);
      break;
    case ChaosEvent::Kind::kCrashRestart:
      ++stats_.crash_restarts;
      if (hooks_.crash) hooks_.crash(event.node);
      break;
  }
}

void ChaosInjector::end(const ChaosEvent& event) {
  std::erase_if(active_events_, [&](const ChaosEvent& e) {
    return e.at == event.at && e.kind == event.kind && e.node == event.node;
  });
  ++stats_.healed;
  switch (event.kind) {
    case ChaosEvent::Kind::kLinkDegrade:
      if (hooks_.set_link_quality) hooks_.set_link_quality(0);
      break;
    case ChaosEvent::Kind::kPartition:
      if (hooks_.set_partitioned) hooks_.set_partitioned(event.node, false);
      break;
    case ChaosEvent::Kind::kCrashRestart:
      if (hooks_.restart) hooks_.restart(event.node);
      break;
  }
}

}  // namespace spire::sim
