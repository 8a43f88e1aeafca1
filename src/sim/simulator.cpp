#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace spire::sim {

Simulator::Simulator() { open_page(); }

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  if (at < now_) at = now_;
  const EventId id = next_id_++;
  if ((id & kSlotMask) == 0) open_page();
  fill_->slots[id & kSlotMask].swap(fn);
  ++fill_->pending;
  ++live_;
  heap_.push_back(Entry{at, id});
  std::push_heap(heap_.begin(), heap_.end(), later);
  return id;
}

EventId Simulator::schedule_after(Time delay, std::function<void()> fn) {
  // Saturating add so kNever propagates as "infinity".
  const Time at = delay != kNever && now_ <= kNever - delay ? now_ + delay : kNever;
  return schedule_at(at, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const std::size_t index = page_index(id);
  Page* page = page_at(index);
  if (page == nullptr) return false;  // already ran, cancelled, or unknown
  std::function<void()>& fn = page->slots[id & kSlotMask];
  if (!fn) return false;
  fn = nullptr;
  retire(*page, index);
  // Lazy cancellation leaves a tombstone in the heap; rebuild once
  // tombstones dominate so cancel-heavy workloads stay bounded.
  if (heap_.size() > 64 && heap_.size() > 2 * live_) compact_heap();
  return true;
}

void Simulator::retire(Page& page, std::size_t index) {
  --live_;
  if (--page.pending == 0 && &page != fill_) release_page(index);
}

void Simulator::release_page(std::size_t index) {
  if (spares_.size() < kMaxSpares) {
    spares_.push_back(std::move(table_[index]));
  } else {
    table_[index].reset();
    --pages_;
  }
  // Trim the null prefix: head_ only moves forward, and the bulk erase
  // moves at most as many entries as head_ skipped, so O(1) amortized.
  while (head_ < table_.size() && !table_[head_]) ++head_;
  if (2 * head_ >= table_.size()) {
    table_.erase(table_.begin(),
                 table_.begin() + static_cast<std::ptrdiff_t>(head_));
    table_base_ += head_;
    head_ = 0;
  }
}

void Simulator::open_page() {
  // The page being left stays until its own callbacks are gone.
  if (fill_ != nullptr && fill_->pending == 0) {
    fill_ = nullptr;
    release_page(table_.size() - 1);
  }
  if (spares_.empty()) {
    table_.push_back(std::make_unique<Page>());
    pages_high_water_ = std::max(pages_high_water_, ++pages_);
  } else {
    table_.push_back(std::move(spares_.back()));
    spares_.pop_back();
  }
  fill_ = table_.back().get();
}

void Simulator::compact_heap() {
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), later);
}

bool Simulator::step_until(Time deadline) {
  while (!heap_.empty() && heap_.front().at <= deadline) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry ev = heap_.back();
    heap_.pop_back();
    const std::size_t index = page_index(ev.id);
    Page* page = page_at(index);
    if (page == nullptr) continue;  // cancelled, page since recycled
    std::function<void()>& slot = page->slots[ev.id & kSlotMask];
    if (!slot) continue;  // cancelled
    std::function<void()> fn;
    fn.swap(slot);
    retire(*page, index);
    now_ = ev.at;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

bool Simulator::step() { return step_until(kNever); }

std::size_t Simulator::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (step_until(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace spire::sim
