#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace spire::sim {

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  if (at < now_) at = now_;
  const EventId id = next_id_++;
  slots_.push_back(std::move(fn));
  ++live_;
  heap_.push_back(Entry{at, id});
  std::push_heap(heap_.begin(), heap_.end(), later);
  maybe_trim_slots();
  return id;
}

EventId Simulator::schedule_after(Time delay, std::function<void()> fn) {
  // Saturating add so kNever propagates as "infinity".
  const Time at = delay != kNever && now_ <= kNever - delay ? now_ + delay : kNever;
  return schedule_at(at, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  if (!is_live(id)) return false;  // already ran, cancelled, or unknown
  slots_[id - base_] = nullptr;
  --live_;
  // Lazy cancellation leaves a tombstone in the heap; rebuild once
  // tombstones dominate so cancel-heavy workloads stay bounded.
  if (heap_.size() > 64 && heap_.size() > 2 * live_) compact_heap();
  return true;
}

void Simulator::compact_heap() {
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), later);
}

void Simulator::prune_dead() {
  while (!heap_.empty() && !is_live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

void Simulator::maybe_trim_slots() {
  if (slots_.size() < next_trim_) return;
  if (live_ == 0) {
    slots_.clear();
    base_ = next_id_;
  } else {
    // Ids below every pending event form a dead prefix; drop it. (Dead
    // holes above the first live id cannot be dropped without
    // remapping ids, so a long-lived event pins at most its own tail.)
    std::size_t first_live = 0;
    while (!slots_[first_live]) ++first_live;
    slots_.erase(slots_.begin(),
                 slots_.begin() + static_cast<std::ptrdiff_t>(first_live));
    base_ += first_live;
  }
  next_trim_ = std::max<std::size_t>(1024, slots_.size() * 2);
}

bool Simulator::step() {
  prune_dead();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry ev = heap_.back();
  heap_.pop_back();
  std::function<void()> fn = std::move(slots_[ev.id - base_]);
  slots_[ev.id - base_] = nullptr;
  --live_;
  now_ = ev.at;
  ++executed_;
  fn();
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (true) {
    prune_dead();
    if (heap_.empty() || heap_.front().at > deadline) break;
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace spire::sim
