#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace spire::obs {

// --- Histogram -------------------------------------------------------

std::uint32_t Histogram::bucket_of(std::uint64_t value) {
  if (value < kLinear) return static_cast<std::uint32_t>(value);
  const std::uint32_t exponent = 63 - std::countl_zero(value);
  const std::uint32_t sub =
      static_cast<std::uint32_t>(value >> (exponent - kSubBits)) - kSub;
  return kLinear + (exponent - kLinearBits) * kSub + sub;
}

std::uint64_t Histogram::bucket_floor(std::uint32_t bucket) {
  if (bucket < kLinear) return bucket;
  const std::uint32_t rel = bucket - kLinear;
  const std::uint32_t exponent = kLinearBits + rel / kSub;
  const std::uint64_t sub = rel % kSub;
  return (std::uint64_t{1} << exponent) + (sub << (exponent - kSubBits));
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets_[b];
    if (cumulative > rank) {
      if (b < kLinear) return b;  // exact
      const std::uint32_t exponent = kLinearBits + (b - kLinear) / kSub;
      const std::uint64_t width = std::uint64_t{1} << (exponent - kSubBits);
      const std::uint64_t mid = bucket_floor(b) + width / 2;
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

void Histogram::reset() {
  buckets_.fill(0);
  count_ = sum_ = min_ = max_ = 0;
}

// --- MetricsRegistry -------------------------------------------------

constinit thread_local MetricsRegistry* MetricsRegistry::current_ = nullptr;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& MetricsRegistry::current() {
  return current_ != nullptr ? *current_ : global();
}

std::size_t MetricsRegistry::add_entry(Entry entry) {
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

std::uint64_t* MetricsRegistry::counter(const std::string& name) {
  counters_.push_back(0);
  std::uint64_t* handle = &counters_.back();
  add_entry({name, Kind::kCounter, handle, nullptr, {}, nullptr, false});
  return handle;
}

std::int64_t* MetricsRegistry::gauge(const std::string& name) {
  gauges_.push_back(0);
  std::int64_t* handle = &gauges_.back();
  add_entry({name, Kind::kGauge, nullptr, handle, {}, nullptr, false});
  return handle;
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  histograms_.emplace_back();
  Histogram* handle = &histograms_.back();
  add_entry({name, Kind::kHistogram, nullptr, nullptr, {}, handle, false});
  return handle;
}

std::size_t MetricsRegistry::size() const {
  std::size_t live = 0;
  for (const Entry& entry : entries_) {
    if (!entry.dead) ++live;
  }
  return live;
}

std::int64_t MetricsRegistry::value(std::string_view name) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->dead || it->name != name) continue;
    switch (it->kind) {
      case Kind::kCounter:
        return static_cast<std::int64_t>(*it->counter);
      case Kind::kGauge:
        return *it->gauge;
      case Kind::kGaugeFn:
        return it->fn();
      case Kind::kHistogram:
        break;
    }
  }
  throw std::out_of_range("no live counter or gauge named " +
                          std::string(name));
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string MetricsRegistry::snapshot_json() const {
  std::string out = "{\"time_us\":";
  out += std::to_string(time_source_ ? time_source_() : 0);
  out += ",\"metrics\":[";
  bool first = true;
  char buf[160];
  for (const Entry& entry : entries_) {
    if (entry.dead) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, entry.name);
    switch (entry.kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof buf,
                      ",\"kind\":\"counter\",\"value\":%" PRIu64 "}",
                      *entry.counter);
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof buf,
                      ",\"kind\":\"gauge\",\"value\":%" PRId64 "}",
                      *entry.gauge);
        break;
      case Kind::kGaugeFn:
        std::snprintf(buf, sizeof buf,
                      ",\"kind\":\"gauge\",\"value\":%" PRId64 "}",
                      entry.fn());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.hist;
        std::snprintf(buf, sizeof buf,
                      ",\"kind\":\"histogram\",\"count\":%" PRIu64
                      ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                      ",\"max\":%" PRIu64 ",\"p50\":%" PRIu64
                      ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
                      h.count(), h.sum(), h.min(), h.max(), h.quantile(0.50),
                      h.quantile(0.90), h.quantile(0.99));
        break;
      }
    }
    out += buf;
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::snapshot_text() const {
  std::size_t width = 4;
  for (const Entry& entry : entries_) {
    if (!entry.dead) width = std::max(width, entry.name.size());
  }
  std::ostringstream oss;
  char buf[192];
  for (const Entry& entry : entries_) {
    if (entry.dead) continue;
    switch (entry.kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof buf, "%-*s  counter    %12" PRIu64 "\n",
                      static_cast<int>(width), entry.name.c_str(),
                      *entry.counter);
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof buf, "%-*s  gauge      %12" PRId64 "\n",
                      static_cast<int>(width), entry.name.c_str(),
                      *entry.gauge);
        break;
      case Kind::kGaugeFn:
        std::snprintf(buf, sizeof buf, "%-*s  gauge      %12" PRId64 "\n",
                      static_cast<int>(width), entry.name.c_str(), entry.fn());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.hist;
        std::snprintf(buf, sizeof buf,
                      "%-*s  histogram  count=%" PRIu64 " p50=%" PRIu64
                      " p90=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64 "\n",
                      static_cast<int>(width), entry.name.c_str(), h.count(),
                      h.quantile(0.50), h.quantile(0.90), h.quantile(0.99),
                      h.max());
        break;
      }
    }
    oss << buf;
  }
  return oss.str();
}

// --- Binder ----------------------------------------------------------

Binder::Binder(std::string prefix)
    : registry_(&MetricsRegistry::current()), prefix_(std::move(prefix)) {}

Binder::~Binder() {
  for (std::size_t index : entries_) {
    registry_->entries_[index].dead = true;
  }
}

void Binder::counter(const std::string& suffix, const std::uint64_t* value) {
  entries_.push_back(registry_->add_entry({prefix_ + "." + suffix,
                                           MetricsRegistry::Kind::kCounter,
                                           value, nullptr, {}, nullptr,
                                           false}));
}

void Binder::gauge_fn(const std::string& suffix,
                      std::function<std::int64_t()> fn) {
  entries_.push_back(registry_->add_entry({prefix_ + "." + suffix,
                                           MetricsRegistry::Kind::kGaugeFn,
                                           nullptr, nullptr, std::move(fn),
                                           nullptr, false}));
}

// --- UseRegistry -----------------------------------------------------

UseRegistry::UseRegistry(MetricsRegistry& registry)
    : previous_(MetricsRegistry::current_) {
  MetricsRegistry::current_ = &registry;
}

UseRegistry::~UseRegistry() { MetricsRegistry::current_ = previous_; }

}  // namespace spire::obs
