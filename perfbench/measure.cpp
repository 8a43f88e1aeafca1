#include "measure.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of all at or below it.
  const auto n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.ok = p.beyond >= Percentile::kMinBeyond;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::SpanRecorder(std::size_t keep, Clock clock)
    : clock_(clock != nullptr ? clock : &now_ns), keep_(keep) {}

std::uint32_t SpanRecorder::layer(const std::string& name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return static_cast<std::uint32_t>(i);
  }
  layers_.push_back(Layer{name, 0, 0, 0});
  return static_cast<std::uint32_t>(layers_.size() - 1);
}

void SpanRecorder::begin(std::uint32_t layer) {
  std::uint32_t kept = Span::kNoParent;
  const std::uint64_t t = clock_();
  if (spans_.size() < keep_) {
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? Span::kNoParent : stack_.back().kept;
    s.start_ns = t;
    kept = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(s);
  } else {
    ++not_kept_;
  }
  stack_.push_back(Open{layer, kept, t, 0});
}

void SpanRecorder::end() {
  if (stack_.empty()) return;
  const std::uint64_t t = clock_();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - open.start_ns;
  Layer& l = layers_[open.layer];
  ++l.count;
  l.total_ns += dur;
  // Children are whole sub-intervals of this span (strict nesting), so
  // the part they cover is exactly the sum of their durations.
  l.self_ns += dur - std::min(dur, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.kept != Span::kNoParent) spans_[open.kept].end_ns = t;
}

const SpanRecorder::Layer* SpanRecorder::find(const std::string& name) const {
  for (const auto& l : layers_) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

double SpanRecorder::self_s(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0.0 : static_cast<double>(l->self_ns) / 1e9;
}

double SpanRecorder::total_s(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0.0 : static_cast<double>(l->total_ns) / 1e9;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                      "\"end_ns\":%llu,\"parent\":",
                 i, layers_[s.layer].name.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
    if (s.parent == Span::kNoParent) {
      std::fprintf(out, "null}\n");
    } else {
      std::fprintf(out, "%u}\n", s.parent);
    }
  }
  for (const Layer& l : layers_) {
    std::fprintf(out, "{\"layer\":\"%s\",\"count\":%llu,\"total_ns\":%llu,"
                      "\"self_ns\":%llu}\n",
                 l.name.c_str(), static_cast<unsigned long long>(l.count),
                 static_cast<unsigned long long>(l.total_ns),
                 static_cast<unsigned long long>(l.self_ns));
  }
  return std::fclose(out) == 0;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
