// Unified metrics registry (DESIGN.md §7).
//
// Components register named counters, gauges, and log-bucketed
// histograms once, up front, and receive raw handles (pointers into
// stable-address storage). The hot path is then a plain `++*handle` or
// an array increment — no string lookups, no hashing, no allocation.
// Existing per-component `*Stats` structs migrate without changing
// their fields or accessors: a `Binder` exposes each `uint64_t` field
// to the registry by pointer, read only at snapshot time.
//
// Snapshots serialize to JSON (machine) or an aligned text table
// (human), stamped with simulated time when a time source is
// installed. Registration order is deterministic for a deterministic
// run, so two identical sim runs produce byte-identical snapshots.
//
// Threading (DESIGN.md §8): current() is per thread. A fleet bench
// runs independent instances, each with its own Simulator and its own
// registry, on worker threads; a registry is only ever written by the
// one thread running its instance, so every hot-path increment is a
// plain single-threaded store, and the driver reads the snapshots
// after joining the workers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spire::obs {

/// Log-bucketed histogram of unsigned 64-bit samples (microseconds on
/// the tracing paths, but unit-agnostic). Values below kLinear land in
/// exact unit buckets; above that each power-of-two octave is split
/// into kSub sub-buckets, bounding the relative quantile error at
/// ~1/kSub (6.25%). record() is allocation-free and branch-light.
class Histogram {
 public:
  static constexpr std::uint32_t kLinear = 64;  // exact below this value
  static constexpr std::uint32_t kSub = 16;     // sub-buckets per octave
  static constexpr std::uint32_t kLinearBits = 6;  // log2(kLinear)
  static constexpr std::uint32_t kSubBits = 4;     // log2(kSub)
  static constexpr std::uint32_t kBuckets =
      kLinear + (64 - kLinearBits) * kSub;

  void record(std::uint64_t value) {
    ++buckets_[bucket_of(value)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  /// Approximate quantile (q in [0,1]): midpoint of the bucket holding
  /// the rank-q sample. Exact below kLinear; within ~6.25% above.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  void reset();

  static std::uint32_t bucket_of(std::uint64_t value);
  /// Inclusive lower bound of a bucket's value range.
  static std::uint64_t bucket_floor(std::uint32_t bucket);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

class Binder;

/// Metrics registry. A registry is single-threaded; `current()` is
/// swappable per thread (ScopedRegistry, UseRegistry) so tests and
/// benches can run against a fresh registry without touching the
/// default global one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The default process-wide registry.
  static MetricsRegistry& global();
  /// The registry new registrations on this thread bind into (global
  /// unless swapped on this thread).
  static MetricsRegistry& current();

  // --- registration (slow path, done once) ---------------------------
  /// Registry-owned counter; increment through the returned handle.
  std::uint64_t* counter(const std::string& name);
  /// Registry-owned gauge; assign through the returned handle.
  std::int64_t* gauge(const std::string& name);
  /// Registry-owned histogram; record() through the returned handle.
  Histogram* histogram(const std::string& name);

  /// Installed by the sim (or bench) so snapshots carry sim time.
  void set_time_source(std::function<std::uint64_t()> time_source) {
    time_source_ = std::move(time_source);
  }

  // --- snapshot (slow path) ------------------------------------------
  [[nodiscard]] std::string snapshot_json() const;
  [[nodiscard]] std::string snapshot_text() const;
  /// Number of live (non-tombstoned) metrics.
  [[nodiscard]] std::size_t size() const;
  /// Current value of the live counter or gauge registered last under
  /// `name`; throws std::out_of_range when there is none.
  [[nodiscard]] std::int64_t value(std::string_view name) const;

 private:
  friend class Binder;
  friend class UseRegistry;

  enum class Kind : std::uint8_t { kCounter, kGauge, kGaugeFn, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    // Owned metrics point into the deques below; bound metrics read
    // through `bound` / `fn` at snapshot time only.
    const std::uint64_t* counter = nullptr;
    const std::int64_t* gauge = nullptr;
    std::function<std::int64_t()> fn;
    const Histogram* hist = nullptr;
    bool dead = false;  // tombstoned when its Binder was destroyed
  };

  std::size_t add_entry(Entry entry);

  std::vector<Entry> entries_;  // registration order == snapshot order
  // Deques for stable addresses: handles stay valid as metrics grow.
  std::deque<std::uint64_t> counters_;
  std::deque<std::int64_t> gauges_;
  std::deque<Histogram> histograms_;
  std::function<std::uint64_t()> time_source_;

  static constinit thread_local MetricsRegistry* current_;
};

/// RAII registration of externally-owned stats into the current
/// registry. Components keep their plain `uint64_t` Stats fields (the
/// hot path stays an untouched `++stats_.field`); the Binder exposes
/// each field by pointer under `prefix + "." + suffix`. The destructor
/// tombstones its entries so a destroyed component never leaves the
/// registry reading freed memory. A Binder must not outlive the
/// registry it bound into (components created under a ScopedRegistry
/// must be destroyed inside that scope).
class Binder {
 public:
  explicit Binder(std::string prefix);
  ~Binder();
  Binder(const Binder&) = delete;
  Binder& operator=(const Binder&) = delete;

  void counter(const std::string& suffix, const std::uint64_t* value);
  /// For non-uint64 stats fields (uint32 high-waters, sim::Time
  /// stamps): the function is evaluated at snapshot time.
  void gauge_fn(const std::string& suffix, std::function<std::int64_t()> fn);

 private:
  MetricsRegistry* registry_;
  std::string prefix_;
  std::vector<std::size_t> entries_;
};

/// Makes an existing registry current() on the calling thread for the
/// scope's lifetime, without owning it. A worker thread enters an
/// instance that was built under a ScopedRegistry on the driver thread
/// this way, so the instance's late registrations land in its own
/// registry.
class UseRegistry {
 public:
  explicit UseRegistry(MetricsRegistry& registry);
  ~UseRegistry();
  UseRegistry(const UseRegistry&) = delete;
  UseRegistry& operator=(const UseRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Swaps MetricsRegistry::current() on the calling thread to a fresh
/// registry for the scope's lifetime. Benches use this to measure
/// instrumented runs in isolation; tests use it for deterministic
/// snapshots.
class ScopedRegistry {
 public:
  ScopedRegistry() = default;
  explicit ScopedRegistry(std::function<std::uint64_t()> time_source) {
    registry_.set_time_source(std::move(time_source));
  }

  MetricsRegistry& registry() { return registry_; }

 private:
  MetricsRegistry registry_;
  UseRegistry use_{registry_};
};

}  // namespace spire::obs
