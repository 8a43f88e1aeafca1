// The benchmark's own measurement helpers: percentiles that state their
// sample count, host-time spans with self time, and the result line.
//
// Nothing here touches the system under test; the workloads call these
// around the calls they make into each layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it. `ok` is false
/// when fewer than kMinBeyond samples lie above the percentile's rank,
/// in which case `value` must not be reported.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked strictly above the percentile
  bool ok = false;
};

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
Percentile percentile(std::vector<double> samples, double q);

/// Plain median of repeated measurements (no refusal rule: these are
/// a handful of repetitions of one quantity, not a distribution tail).
double median(std::vector<double> values);

/// Host-time spans recorded by the benchmark around its calls into the
/// system. Each span has a name, start, end and parent; a layer's self
/// time is its spans' time minus the time of their direct children.
/// Spans nest strictly (a call stack), so self time is settled when a
/// span ends. Every span is aggregated per name; the first `keep`
/// spans are also kept whole for the JSONL export, so high-rate layers
/// stay bounded in memory.
class SpanRecorder {
 public:
  using Clock = std::uint64_t (*)();  ///< nanoseconds, monotonic

  explicit SpanRecorder(std::size_t keep = 200000, Clock clock = nullptr);

  /// Interns a layer name; call once, up front.
  std::uint32_t layer(const std::string& name);

  void begin(std::uint32_t layer);
  void end();

  struct Layer {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }
  [[nodiscard]] const Layer* find(const std::string& name) const;
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] double total_s(const std::string& name) const;

  struct Span {
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
    std::uint32_t layer = 0;
    std::uint32_t parent = kNoParent;  ///< index into spans(), if kept
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t spans_not_kept() const { return not_kept_; }

  /// One JSON object per kept span, then one per layer aggregate.
  bool write_jsonl(const std::string& path) const;

  /// Scoped span; a null recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::uint32_t layer) : rec_(rec) {
      if (rec_ != nullptr) rec_->begin(layer);
    }
    ~Scope() {
      if (rec_ != nullptr) rec_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

 private:
  struct Open {
    std::uint32_t layer;
    std::uint32_t kept;  ///< index in spans_, or kNoParent
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  Clock clock_;
  std::size_t keep_;
  std::vector<Layer> layers_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t not_kept_ = 0;
};

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's result line:
/// {"correct": b, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
/// Values print in shortest round-trip form; non-finite values print 0.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
