// Proxy front door (ROADMAP item 2): the admission layer between field
// devices and the intrusion-tolerant core, modeled on Envoy's ratelimit
// filter and overload manager. A fleet proxy fronting thousands of
// devices cannot let a chattering PLC starve the Prime ordering path,
// so every arriving device delta passes three checks before it may
// occupy a slot in the delta batcher:
//
//  * a per-proxy integer token bucket (rate + burst) for telemetry;
//  * a shed watermark — when the pending-batch queue is this deep,
//    telemetry is dropped on arrival (backpressure toward the field);
//  * a hard queue capacity — the only bound that can drop critical
//    (breaker/command-response) traffic, and only when genuinely full.
//
// Critical deltas bypass the token bucket entirely: breaker movements
// are never shed before telemetry. All admission stats are plain
// uint64 fields bound into the MetricsRegistry (zero-alloc hot path).
//
// The DeltaBatcher below is the other half of the door: admitted
// deltas coalesce for up to one batch window (or until a count/byte
// budget fills) and flush as a single Prime client update, amortizing
// one ordering round and one signature across the whole batch.
// stop() performs a final synchronous flush so shutdown never silently
// drops an admitted delta.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "scada/wire.hpp"
#include "sim/simulator.hpp"

namespace spire::scada {

enum class DeltaPriority : std::uint8_t {
  kTelemetry = 0,  ///< periodic readings; sheddable under pressure
  kCritical = 1,   ///< breaker movement / command response; shed last
};

/// Integer token bucket over sim time. Token level is kept in
/// token-microseconds (1 token == sim::kSecond units) so refill math is
/// exact integer arithmetic at any tick granularity — no floating point
/// drift across replicas or runs.
class TokenBucket {
 public:
  TokenBucket() = default;
  /// rate 0 means unlimited. The bucket starts full (burst available).
  TokenBucket(std::uint64_t rate_per_sec, std::uint64_t burst)
      : rate_(rate_per_sec),
        capacity_(burst * static_cast<std::uint64_t>(sim::kSecond)),
        level_(capacity_) {}

  /// Takes one token if available at `now`. Unlimited buckets always
  /// succeed without touching state.
  bool try_take(sim::Time now) {
    if (rate_ == 0) return true;
    refill(now);
    constexpr auto kToken = static_cast<std::uint64_t>(sim::kSecond);
    if (level_ < kToken) return false;
    level_ -= kToken;
    return true;
  }

  /// Whole tokens currently available.
  [[nodiscard]] std::uint64_t available(sim::Time now) {
    if (rate_ == 0) return ~std::uint64_t{0};
    refill(now);
    return level_ / static_cast<std::uint64_t>(sim::kSecond);
  }

 private:
  void refill(sim::Time now) {
    if (now <= last_) return;
    const auto elapsed = static_cast<std::uint64_t>(now - last_);
    last_ = now;
    const std::uint64_t gained = elapsed * rate_;
    level_ = (gained >= capacity_ || capacity_ - gained < level_)
                 ? capacity_
                 : level_ + gained;
  }

  std::uint64_t rate_ = 0;      // tokens per second; 0 = unlimited
  std::uint64_t capacity_ = 0;  // token-microseconds
  std::uint64_t level_ = 0;     // token-microseconds
  sim::Time last_ = 0;
};

struct FrontDoorConfig {
  std::uint64_t rate_per_sec = 0;  ///< telemetry deltas/sec; 0 = unlimited
  std::uint64_t burst = 64;        ///< token bucket capacity
  std::size_t queue_capacity = 4096;  ///< hard bound on pending deltas
  std::size_t shed_watermark = 3072;  ///< telemetry shed threshold
};

struct FrontDoorStats {
  std::uint64_t admitted = 0;           ///< total deltas admitted
  std::uint64_t admitted_critical = 0;  ///< … of which critical
  std::uint64_t shed_rate = 0;      ///< telemetry dropped: bucket empty
  std::uint64_t shed_overload = 0;  ///< telemetry dropped: queue deep
  std::uint64_t shed_critical = 0;  ///< critical dropped: queue hard-full
  std::uint64_t queued_high_water = 0;  ///< max pending behind the door
};

class FrontDoor {
 public:
  FrontDoor() : FrontDoor(FrontDoorConfig{}) {}
  explicit FrontDoor(FrontDoorConfig config)
      : config_(config), bucket_(config.rate_per_sec, config.burst) {}

  /// Admission decision for one delta arriving at `now` with `queued`
  /// deltas already pending behind the door. Pure accept/drop — the
  /// caller enqueues on true.
  bool admit(DeltaPriority priority, sim::Time now, std::size_t queued) {
    if (priority == DeltaPriority::kCritical) {
      if (queued >= config_.queue_capacity) {
        ++stats_.shed_critical;
        return false;
      }
      ++stats_.admitted;
      ++stats_.admitted_critical;
      note_depth(queued + 1);
      return true;
    }
    if (queued >= config_.shed_watermark) {
      ++stats_.shed_overload;
      return false;
    }
    if (!bucket_.try_take(now)) {
      ++stats_.shed_rate;
      return false;
    }
    ++stats_.admitted;
    note_depth(queued + 1);
    return true;
  }

  [[nodiscard]] const FrontDoorStats& stats() const { return stats_; }
  [[nodiscard]] const FrontDoorConfig& config() const { return config_; }

  /// Exposes the admission counters under `binder`'s prefix.
  void bind(obs::Binder& binder) const {
    binder.counter("fd_admitted", &stats_.admitted);
    binder.counter("fd_admitted_critical", &stats_.admitted_critical);
    binder.counter("fd_shed_rate", &stats_.shed_rate);
    binder.counter("fd_shed_overload", &stats_.shed_overload);
    binder.counter("fd_shed_critical", &stats_.shed_critical);
    binder.counter("fd_queued_high_water", &stats_.queued_high_water);
  }

 private:
  void note_depth(std::size_t depth) {
    if (depth > stats_.queued_high_water) stats_.queued_high_water = depth;
  }

  FrontDoorConfig config_;
  TokenBucket bucket_;
  mutable FrontDoorStats stats_;
};

struct BatcherConfig {
  sim::Time window = 0;      ///< coalescing window; 0 = flush per delta
  std::size_t max_batch = 256;       ///< count budget per flush
  std::size_t max_bytes = 64 * 1024; ///< encoded-byte budget per flush
};

/// Coalesces admitted StatusReports and flushes them as one batch when
/// the window expires or a budget fills. With window 0 every enqueue
/// flushes synchronously, one report per batch. Flushes are never empty.
class DeltaBatcher {
 public:
  using FlushFn = std::function<void(std::vector<StatusReport>&&)>;

  DeltaBatcher(sim::Simulator& sim, BatcherConfig config, FlushFn flush)
      : sim_(sim), config_(config), flush_(std::move(flush)) {}

  void enqueue(StatusReport report) {
    pending_bytes_ += util::codec::size(report);
    pending_.push_back(std::move(report));
    if (config_.window == 0 || pending_.size() >= config_.max_batch ||
        pending_bytes_ >= config_.max_bytes) {
      flush();
      return;
    }
    if (pending_.size() == 1) arm_timer();
  }

  /// Hands all pending reports to the flush callback immediately and
  /// invalidates any armed window timer.
  void flush() {
    ++epoch_;  // cancels the armed window timer, if any
    if (pending_.empty()) return;
    std::vector<StatusReport> batch;
    batch.swap(pending_);
    pending_bytes_ = 0;
    flush_(std::move(batch));
  }

  /// Final flush: nothing admitted before stop() is ever dropped.
  void stop() {
    stopped_ = true;
    flush();
  }

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  void arm_timer() {
    const std::uint64_t epoch = epoch_;
    sim_.schedule_after(config_.window, [this, epoch] {
      if (stopped_ || epoch != epoch_) return;
      flush();
    });
  }

  sim::Simulator& sim_;
  BatcherConfig config_;
  FlushFn flush_;
  std::vector<StatusReport> pending_;
  std::size_t pending_bytes_ = 0;
  std::uint64_t epoch_ = 0;
  bool stopped_ = false;
};

}  // namespace spire::scada
