// Deterministic discrete-event simulation kernel.
//
// Every component in the reproduction — network links, Spines daemons,
// Prime replicas, PLC scan cycles, MANA windows, attack scripts — runs
// as callbacks scheduled on one Simulator. Time is simulated
// microseconds; there is no wall-clock anywhere, so a six-day plant
// soak (paper §V) executes in seconds and every run is bit-identical
// for a given seed.
//
// The kernel is serial (DESIGN.md §8). Parallelism comes from running
// independent Simulators — one per plant or pipeline, sharing nothing —
// on separate threads (bench::run_instances); a Simulator itself is
// never touched by two threads.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/log.hpp"

namespace spire::sim {

/// Simulated time in microseconds since simulation start.
using Time = std::uint64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * kMillisecond;
constexpr Time kMinute = 60 * kSecond;
constexpr Time kHour = 60 * kMinute;
constexpr Time kDay = 24 * kHour;
/// Sentinel for "no event / unbounded".
constexpr Time kNever = ~Time{0};

/// Identifies a scheduled event so it can be cancelled. Ids are dense
/// in scheduling order, starting at 1; id 0 is never used.
using EventId = std::uint64_t;

/// Discrete-event scheduler.
///
/// Events fire in (timestamp, scheduling order): equal timestamps run
/// FIFO. The queue is a binary min-heap of 16-byte (timestamp, id)
/// entries with lazy cancellation: cancel() drops the callback at once
/// (releasing its captures) and the dead heap entry is skipped when it
/// surfaces, or dropped wholesale once tombstones outnumber live events.
///
/// Callbacks live in fixed pages of kPageSize slots, found through a
/// page table by id (DESIGN.md §6). A page whose callbacks have all run
/// or been cancelled is recycled, so memory follows the events pending,
/// not the length of the run: a far-future event pins only its own
/// page, plus one table entry per page of ids scheduled after it.
class Simulator {
 public:
  /// Callback slots per page (one page is 8 KiB of std::function).
  static constexpr std::size_t kPageSize = 256;
  /// Emptied pages kept for reuse; any beyond this are freed.
  static constexpr std::size_t kMaxSpares = 4;

  Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` to run at absolute simulated time `at` (clamped to
  /// `now()` if in the past). Returns an id usable with cancel().
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` microseconds from now.
  EventId schedule_after(Time delay, std::function<void()> fn);

  /// Cancels a pending event. Returns false if it already ran or was
  /// previously cancelled.
  bool cancel(EventId id);

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `limit` events have run;
  /// returns the number executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= deadline (including events that are
  /// scheduled at exactly `deadline` by events executing within the
  /// call), then advances now() to deadline even if the queue still
  /// holds later events.
  std::size_t run_until(Time deadline);

  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Callback pages allocated now (in use or spare), and the most ever.
  [[nodiscard]] std::size_t callback_pages() const { return pages_; }
  [[nodiscard]] std::size_t callback_pages_high_water() const {
    return pages_high_water_;
  }

 private:
  static constexpr unsigned kPageBits = 8;
  static_assert(kPageSize == std::size_t{1} << kPageBits);
  static constexpr EventId kSlotMask = kPageSize - 1;

  /// Heap entries are 16-byte PODs so sift operations stay cheap; the
  /// callback lives in a page slot, found by id.
  struct Entry {
    Time at;
    EventId id;
  };

  /// Min-heap order: earliest (at, id) surfaces first. The id is the
  /// schedule-order tiebreaker that preserves equal-timestamp FIFO.
  static bool later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.id > b.id;
  }

  /// An empty slot is the tombstone: cancel() nulls the callback,
  /// which also releases anything it captured immediately.
  struct Page {
    std::array<std::function<void()>, kPageSize> slots;
    std::uint32_t pending = 0;  ///< live callbacks in `slots`
  };

  [[nodiscard]] std::size_t page_index(EventId id) const {
    return (id >> kPageBits) - table_base_;
  }
  /// The page at table_[index], or nullptr when it is gone (recycled,
  /// or trimmed off the front so the index wrapped past the end).
  [[nodiscard]] Page* page_at(std::size_t index) const {
    return index < table_.size() ? table_[index].get() : nullptr;
  }
  [[nodiscard]] bool is_live(EventId id) const {
    const Page* page = page_at(page_index(id));
    return page != nullptr && static_cast<bool>(page->slots[id & kSlotMask]);
  }
  /// One callback of table_[index] has run or been cancelled; recycles
  /// the page once it holds none and is no longer being filled.
  void retire(Page& page, std::size_t index);
  void release_page(std::size_t index);  ///< spares or frees, then trims
  void open_page();     ///< starts the page that the next id falls in
  void compact_heap();  ///< drops tombstones when they dominate
  /// Runs the earliest live event due at or before `deadline`; false
  /// when there is none.
  bool step_until(Time deadline);

  Time now_ = 0;
  std::uint64_t executed_ = 0;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  /// table_[i] holds ids [(table_base_ + i) * kPageSize, +kPageSize);
  /// null once recycled. The entries before head_ are all null and are
  /// erased in bulk once they make up half the table.
  std::vector<std::unique_ptr<Page>> table_;
  EventId table_base_ = 0;
  std::size_t head_ = 0;
  Page* fill_ = nullptr;  ///< the page new ids go into (table_.back())
  std::vector<std::unique_ptr<Page>> spares_;
  std::size_t pages_ = 0;
  std::size_t pages_high_water_ = 0;
  std::vector<Entry> heap_;
};

/// RAII helper: installs the simulator's clock as the logger time
/// source for the lifetime of the simulation.
class LogClockScope {
 public:
  explicit LogClockScope(const Simulator& sim) {
    util::LogConfig::instance().time_source = [&sim] { return sim.now(); };
  }
  ~LogClockScope() { util::LogConfig::instance().time_source = nullptr; }
  LogClockScope(const LogClockScope&) = delete;
  LogClockScope& operator=(const LogClockScope&) = delete;
};

}  // namespace spire::sim
