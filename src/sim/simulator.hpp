// Deterministic discrete-event simulation kernel.
//
// Every component in the reproduction — network links, Spines daemons,
// Prime replicas, PLC scan cycles, MANA windows, attack scripts — runs
// as callbacks scheduled on one Simulator. Time is simulated
// microseconds; there is no wall-clock anywhere, so a six-day plant
// soak (paper §V) executes in seconds and every run is bit-identical
// for a given seed.
//
// The kernel is a conservative-parallel scheduler (DESIGN.md §8).
// Events are partitioned into per-shard queues: shard 0 (kMainShard)
// is the serial control shard every existing workload runs on
// unchanged; register_shard() creates additional shards — one per
// host/actor — whose events may execute concurrently on a fixed pool
// of workers. Cross-shard interaction goes exclusively through
// deterministic mailboxes (send_to/post_at), and the minimum
// cross-shard link latency (note_link_latency) is the lookahead that
// bounds each synchronization window: within a window every shard may
// run all events with timestamp below the global horizon before the
// next barrier, because no in-flight cross-shard message can arrive
// earlier. Execution order is a fixed total order — (timestamp, shard,
// per-shard FIFO seq), with mailbox deliveries merged in (timestamp,
// source shard, source order) — independent of worker count and worker
// timing, so a run at --workers=8 is bit-identical to --workers=1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

/// Identifies a scheduled event so it can be cancelled. Id 0 is never
/// used. Shard 0 issues the same dense ids the pre-shard kernel did;
/// other shards' ids carry the shard in the high bits.
using EventId = std::uint64_t;

/// Identifies an event shard (one per host/actor). Shard 0 always
/// exists and is the serial control shard.
using ShardId = std::uint32_t;
constexpr ShardId kMainShard = 0;

/// Aggregated kernel counters (per-shard internally, merged on read —
/// call from driver context only, never from inside an event).
struct KernelStats {
  std::uint64_t parallel_windows = 0;   ///< barrier-bounded parallel phases
  std::uint64_t exclusive_batches = 0;  ///< shard-0 serial phases
  std::uint64_t mails_routed = 0;       ///< cross-shard deliveries merged
  std::uint64_t lookahead_violations = 0;  ///< sends clamped to the horizon
  std::uint64_t events_executed = 0;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  Time lookahead = kNever;
};

/// Conservative-parallel discrete-event scheduler.
///
/// Events at equal timestamps on the same shard fire in scheduling
/// order (FIFO); across shards the tiebreak is the shard id, and
/// cross-shard deliveries merge in (timestamp, source shard, source
/// order) — a total order that never depends on worker timing.
///
/// Each shard queue is an indexed binary min-heap ordered by
/// (timestamp, seq) with lazy cancellation: cancel() flips a liveness
/// flag (O(1), seqs are dense so the index is a flat array) and the
/// dead heap entry is skipped when it surfaces, or dropped wholesale
/// once tombstones outnumber live events.
///
/// Threading contract: schedule_at/schedule_after/cancel act on the
/// *current* shard — the shard of the executing event, or the ambient
/// shard (ShardScope, default shard 0) from driver code between runs.
/// A shard's state (its queue, and by convention every component
/// registered to it) must only be touched by its own events; the only
/// cross-shard edges are send_to/post_at mailbox messages, which must
/// carry at least lookahead() of delay when sent from a parallel
/// shard. register_shard/set_workers/run*/stats accessors are
/// driver-context-only.
class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time: the executing event's timestamp on this
  /// event's shard, or the global clock from driver context.
  [[nodiscard]] Time now() const {
    const ExecContext ctx = tls_exec_;
    return ctx.sim == this ? shard_now(*ctx.shard) : now_;
  }

  /// Schedules `fn` to run at absolute simulated time `at` (clamped to
  /// `now()` if in the past) on the current shard. Returns an id
  /// usable with cancel().
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` microseconds from now on the
  /// current shard.
  EventId schedule_after(Time delay, std::function<void()> fn);

  /// Cancels a pending event. Returns false if it already ran or was
  /// previously cancelled. Only valid from the event's own shard or
  /// from driver context.
  bool cancel(EventId id);

  // ---- sharding ---------------------------------------------------------

  /// Registers a new parallel shard (driver context only, not while
  /// running). Assign one per host/actor at registration time so the
  /// shard layout — and therefore the execution order — is a fixed
  /// function of the topology, not of runtime behaviour.
  ShardId register_shard(std::string name);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const std::string& shard_name(ShardId shard) const;

  /// Shard of the executing event, or the ambient shard from driver
  /// context (kMainShard unless a ShardScope is active).
  [[nodiscard]] ShardId current_shard() const;

  /// Cross-shard send: runs `fn` on `dst` after `delay`. From a
  /// parallel shard the delivery must clear the current window horizon
  /// (delay >= lookahead()); violating sends are clamped to the
  /// horizon — deterministically — and counted in
  /// KernelStats::lookahead_violations. Not cancellable (returns no
  /// id); same-shard sends degrade to schedule_after exactly.
  void send_to(ShardId dst, Time delay, std::function<void()> fn);

  /// Absolute-time variant of send_to.
  void post_at(ShardId dst, Time at, std::function<void()> fn);

  /// Declares a cross-shard link latency; the minimum over all calls
  /// becomes the lookahead that sizes parallel windows. Call once per
  /// cross-shard link at wiring time, before the first run.
  void note_link_latency(Time latency);
  [[nodiscard]] Time lookahead() const { return lookahead_; }

  /// Fixed worker-pool size (driver context only). 1 = serial; the
  /// execution order and results are identical at every setting.
  void set_workers(unsigned workers);
  [[nodiscard]] unsigned workers() const { return workers_; }

  // ---- execution --------------------------------------------------------

  /// Runs a single event — the canonically next one across all shards.
  /// Returns false if every queue is empty.
  bool step();

  /// Runs events until the queues are empty or `limit` events have
  /// run; returns the number executed. With parallel shards the limit
  /// is enforced at window boundaries, so slightly more than `limit`
  /// events may run; single-shard programs get the exact pre-shard
  /// behaviour.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= deadline (including events that are
  /// scheduled at exactly `deadline` by events executing within the
  /// call), then advances now() to deadline even if the queues still
  /// hold later events.
  std::size_t run_until(Time deadline);

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] KernelStats kernel_stats() const;

 private:
  friend class ShardScope;

  /// Heap entries are 16-byte PODs so sift operations stay cheap; the
  /// callback lives in slots_, found by per-shard seq.
  struct Entry {
    Time at;
    EventId seq;
  };

  /// Min-heap order: earliest (at, seq) surfaces first. The seq is the
  /// schedule-order tiebreaker that preserves equal-timestamp FIFO.
  static bool later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// A cross-shard delivery staged in the sender's outbox until the
  /// next barrier. Merge order is (at, source shard, source order):
  /// outboxes are drained in shard-id order and kept stable, so the
  /// Mail itself only carries (dst, at).
  struct Mail {
    ShardId dst;
    Time at;
    std::function<void()> fn;
  };

  /// One event shard: a complete queue (the pre-shard kernel's guts)
  /// plus the outbox for cross-shard sends. Cache-line aligned so
  /// concurrently executing shards never false-share.
  struct alignas(64) Shard {
    ShardId id = 0;
    Time now = 0;
    std::uint64_t executed = 0;
    std::uint64_t lookahead_violations = 0;
    EventId next_seq = 1;
    EventId base = 1;  ///< seq of slots[0]
    std::vector<std::function<void()>> slots;
    std::size_t live = 0;
    std::vector<Entry> heap;
    std::size_t next_trim = 1024;
    std::vector<Mail> outbox;
    std::string name;

    EventId schedule_local(Time at, std::function<void()> fn);
    bool cancel_local(EventId seq);
    /// An empty slot is the tombstone: cancel() nulls the callback,
    /// which also releases anything it captured immediately.
    [[nodiscard]] bool is_live(EventId seq) const {
      return seq >= base && seq < next_seq &&
             static_cast<bool>(slots[seq - base]);
    }
    void prune_dead();        ///< pops cancelled entries off the heap top
    void compact_heap();      ///< drops tombstones when they dominate
    void maybe_trim_slots();  ///< amortized trim of the dead slot prefix
    /// Earliest live event time, or kNever.
    [[nodiscard]] Time next_at() {
      prune_dead();
      return heap.empty() ? kNever : heap.front().at;
    }
  };

  struct ExecContext {
    const Simulator* sim = nullptr;
    Shard* shard = nullptr;
  };
  // constinit: every translation unit knows the variable needs no
  // dynamic initialization, so an access reads the TLS slot directly
  // instead of calling a lazy-init wrapper. Read it by value, never
  // bind a reference: the linker may relax the initial-exec address
  // computation to a flag-preserving `lea`, so UBSan's null check on
  // the computed address then tests stale flags and misfires.
  static constinit thread_local ExecContext tls_exec_;

  static Time shard_now(const Shard& s) { return s.now; }

  // EventId = (shard << kSeqBits) | per-shard seq. Shard 0 keeps the
  // dense ids the pre-shard kernel issued.
  static constexpr unsigned kSeqBits = 40;
  static constexpr EventId kSeqMask = (EventId{1} << kSeqBits) - 1;
  static EventId encode_id(ShardId shard, EventId seq) {
    return (static_cast<EventId>(shard) << kSeqBits) | seq;
  }

  [[nodiscard]] Shard& scheduling_shard() const;

  // Single-shard exact legacy paths.
  bool step_single();
  std::size_t run_single(std::size_t limit);
  std::size_t run_until_single(Time deadline);

  // Multi-shard windowed execution.
  std::size_t run_multi(Time deadline, std::size_t limit);
  std::size_t run_exclusive(Shard& s0, Time cap, std::size_t budget);
  std::size_t run_shard_window(Shard& shard, Time horizon);
  void merge_mailboxes();
  void finish_run(Time deadline);

  // Worker pool (spawned lazily; windows are dispatched through an
  // epoch counter the workers spin on, so a window barrier costs a few
  // atomic operations, not a futex round-trip).
  void ensure_pool();
  void stop_pool();
  void activate_pool();
  void deactivate_pool();
  void worker_main(unsigned slice);
  void run_slice(unsigned slice);
  [[nodiscard]] bool pool_wanted() const {
    return workers_ > 1 && shards_.size() > 1;
  }

  Time now_ = 0;
  Time lookahead_ = kNever;  ///< min cross-shard link latency
  unsigned workers_ = 1;
  ShardId ambient_shard_ = kMainShard;
  std::vector<std::unique_ptr<Shard>> shards_;
  Shard* main_shard_ = nullptr;  ///< shards_[0], cached for the hot path

  // Kernel counters (driver-written only).
  std::uint64_t parallel_windows_ = 0;
  std::uint64_t exclusive_batches_ = 0;
  std::uint64_t mails_routed_ = 0;
  std::vector<Mail> scratch_mail_;

  // Window state published to workers: horizon_ is written by the
  // driver before the epoch bump (release) and read by workers after
  // observing the new epoch (acquire).
  Time window_horizon_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> pending_workers_{0};
  std::atomic<bool> pool_active_{false};
  bool pool_shutdown_ = false;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::vector<std::thread> threads_;
};

/// RAII ambient-shard binding for driver code: component construction
/// and driver-side scheduling inside the scope land on `shard`, so a
/// host/actor built under its ShardScope has every timer and callback
/// confined to its shard from the first event on.
class ShardScope {
 public:
  ShardScope(Simulator& sim, ShardId shard)
      : sim_(sim), previous_(sim.ambient_shard_) {
    sim_.ambient_shard_ = shard;
  }
  ~ShardScope() { sim_.ambient_shard_ = previous_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  Simulator& sim_;
  ShardId previous_;
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
