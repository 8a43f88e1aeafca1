// Shared helpers for the experiment benches: aligned table printing,
// latency statistics, and a standard header that ties each binary back
// to the paper artifact it reproduces (see DESIGN.md §4).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"
#include "sim/simulator.hpp"
#include "spines/overlay.hpp"
#include "util/log.hpp"

namespace spire::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& paper_artifact,
                         const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("Experiment %s — reproduces %s\n", experiment_id.c_str(),
              paper_artifact.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

/// Row-oriented table with a fixed column layout.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) widths[c] = std::max(widths[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::printf("|");
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

struct LatencyStats {
  double min_ms = 0, median_ms = 0, p90_ms = 0, p99_ms = 0, max_ms = 0,
         mean_ms = 0;
  std::size_t samples = 0;
};

inline LatencyStats latency_stats(std::vector<double> samples_ms) {
  LatencyStats s;
  s.samples = samples_ms.size();
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  s.min_ms = samples_ms.front();
  s.max_ms = samples_ms.back();
  s.median_ms = samples_ms[samples_ms.size() / 2];
  s.p90_ms = samples_ms[samples_ms.size() * 9 / 10];
  s.p99_ms = samples_ms[samples_ms.size() * 99 / 100];
  double sum = 0;
  for (const double v : samples_ms) sum += v;
  s.mean_ms = sum / static_cast<double>(samples_ms.size());
  return s;
}

inline std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
  return buf;
}

/// Standard bench logging setup: silent by default, then the SPIRE_LOG
/// env spec, then any --log-level=SPEC flags (same spec syntax:
/// "debug", "prime=debug,spines=warn", …). Call first in main().
inline void init_logging(int argc, char** argv) {
  auto& config = util::LogConfig::instance();
  config.level = util::LogLevel::kOff;
  if (const char* env = std::getenv("SPIRE_LOG")) config.apply_spec(env);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      config.apply_spec(argv[i] + 12);
    }
  }
}

/// True when `flag` (e.g. "--json") appears in argv, either bare or as
/// a `--flag=value` prefix.
inline bool has_flag(int argc, char** argv, const char* flag) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return true;
    }
  }
  return false;
}

/// Value of a `--flag=value` argument, or `fallback` when absent/bare.
inline const char* flag_value(int argc, char** argv, const char* flag,
                              const char* fallback) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

/// `s` as a JSON string literal.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Named latency sample series in, one aligned text table
/// (min/p50/p90/p99/max/mean/samples) out. A Report writes its series
/// into the bench's --json.
class LatencyReporter {
 public:
  /// Adds a series and returns its statistics.
  LatencyStats add(std::string name, std::vector<double> samples_ms) {
    series_.push_back({std::move(name), latency_stats(std::move(samples_ms))});
    return series_.back().stats;
  }

  void print(const char* title = "latency") const {
    Table table({title, "min", "p50", "p90", "p99", "max", "mean", "samples"});
    for (const auto& s : series_) {
      table.row({s.name, fmt_ms(s.stats.min_ms), fmt_ms(s.stats.median_ms),
                 fmt_ms(s.stats.p90_ms), fmt_ms(s.stats.p99_ms),
                 fmt_ms(s.stats.max_ms), fmt_ms(s.stats.mean_ms),
                 std::to_string(s.stats.samples)});
    }
    table.print();
  }

  /// {"<name>":{"min_ms":..,"p50_ms":..,...,"samples":..},...}
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& s : series_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "\"min_ms\":%.3f,\"p50_ms\":%.3f,\"p90_ms\":%.3f,"
                    "\"p99_ms\":%.3f,\"max_ms\":%.3f,\"mean_ms\":%.3f,"
                    "\"samples\":%zu}",
                    s.stats.min_ms, s.stats.median_ms, s.stats.p90_ms,
                    s.stats.p99_ms, s.stats.max_ms, s.stats.mean_ms,
                    s.stats.samples);
      if (out.size() > 1) out += ',';
      out += json_quote(s.name);
      out += ":{";
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Series {
    std::string name;
    LatencyStats stats;
  };
  std::vector<Series> series_;
};

/// How a check compares its measured value with its bound.
enum class Cmp { kLe, kLt, kGe, kGt, kEq };

inline const char* to_string(Cmp cmp) {
  switch (cmp) {
    case Cmp::kLe: return "<=";
    case Cmp::kLt: return "<";
    case Cmp::kGe: return ">=";
    case Cmp::kGt: return ">";
    case Cmp::kEq: return "==";
  }
  return "?";
}

inline bool compare(double value, Cmp cmp, double bound) {
  switch (cmp) {
    case Cmp::kLe: return value <= bound;
    case Cmp::kLt: return value < bound;
    case Cmp::kGe: return value >= bound;
    case Cmp::kGt: return value > bound;
    case Cmp::kEq: return value == bound;
  }
  return false;
}

/// A bound committed in the bench's baseline file: `scale` times the
/// number stored under `key`.
struct BaselineKey {
  const char* key;
  double scale = 1.0;
};

/// The gate helper. A bench declares each number it reports as one row:
/// a name and the measured value, plus, for a check, a comparison and a
/// bound (inline or a BaselineKey). finish() prints every row as one
/// table and one "Shape check: <claim>: HOLDS" or "VIOLATED (<failing
/// rows>)" line, writes every row to --json=PATH, and returns the exit
/// code. What a bench prints, what it gates and what it writes are the
/// same rows.
class Report {
 public:
  /// `bench` names the JSON (and the bare --json default
  /// BENCH_<bench>.json); `claim` is the shape the checks establish.
  Report(std::string bench, std::string claim)
      : bench_(std::move(bench)), claim_(std::move(claim)) {}

  /// Loads the committed bounds (bench/baseline_*.json) from
  /// --baseline=PATH, or from `fallback` when the flag is absent
  /// (nullptr: no baseline). False, with a message, if the file cannot
  /// be read.
  bool load_baseline(int argc, char** argv, const char* fallback) {
    const char* path = flag_value(argc, argv, "--baseline", fallback);
    if (path == nullptr || path[0] == '\0') return true;
    std::ifstream in(path);
    if (!in) {
      std::printf("baseline %s: cannot open\n", path);
      return false;
    }
    baseline_path_ = path;
    baseline_ = std::string(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
    return true;
  }
  [[nodiscard]] bool has_baseline() const { return baseline_.has_value(); }

  /// The committed number under `key`, found anywhere in the baseline; a
  /// dotted key "section.field" finds `field` after `section`. A key the
  /// baseline lacks (or a missing baseline) exits with status 1, naming
  /// the key, so a renamed bound never falls back to a compiled-in
  /// default.
  [[nodiscard]] double baseline(const char* key) const {
    if (!baseline_) {
      std::printf("no baseline loaded for key \"%s\"\n", key);
      std::exit(1);
    }
    std::size_t at = 0;
    for (std::string_view rest = key; at != std::string::npos;) {
      const std::size_t dot = rest.find('.');
      const std::string needle = json_quote(rest.substr(0, dot));
      at = baseline_->find(needle, at);
      if (at != std::string::npos) at += needle.size();
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot + 1);
    }
    const std::size_t colon =
        at == std::string::npos ? std::string::npos : baseline_->find(':', at);
    if (colon == std::string::npos) {
      std::printf("baseline %s: missing key \"%s\"\n", baseline_path_.c_str(),
                  key);
      std::exit(1);
    }
    return std::strtod(baseline_->c_str() + colon + 1, nullptr);
  }

  /// A number the bench reports but does not gate.
  void add(std::string name, double value, std::string unit = {}) {
    Row& r = rows_.emplace_back();
    r.name = std::move(name);
    r.value = value;
    r.unit = std::move(unit);
  }

  /// A check: `value <cmp> bound`.
  void check(std::string name, double value, Cmp cmp, double bound,
             std::string unit = {}) {
    add(std::move(name), value, std::move(unit));
    Row& r = rows_.back();
    r.cmp = cmp;
    r.bound = bound;
    r.ok = compare(value, cmp, bound);
  }

  /// A check against a committed bound (see baseline()).
  void check(std::string name, double value, Cmp cmp, BaselineKey bound,
             std::string unit = {}) {
    check(std::move(name), value, cmp, bound.scale * baseline(bound.key),
          std::move(unit));
    rows_.back().bound_key = bound.scale == 1.0
                                 ? std::string(bound.key)
                                 : format("%g x ", bound.scale) + bound.key;
  }

  /// A yes/no condition that must hold.
  void require(std::string name, bool holds) {
    check(std::move(name), holds ? 1 : 0, Cmp::kEq, 1);
    rows_.back().boolean = true;
  }

  /// Latency series: printed by the bench where it reads best, written
  /// into the JSON by finish().
  LatencyReporter latency;

  [[nodiscard]] std::vector<std::string> failing() const {
    std::vector<std::string> names;
    for (const Row& r : rows_) {
      if (r.cmp && !r.ok) names.push_back(r.name);
    }
    return names;
  }
  [[nodiscard]] bool holds() const { return failing().empty(); }

  /// The rows table and the shape-check line.
  void print() const {
    Table table({"row", "measured", "bound", "ok"});
    for (const Row& r : rows_) {
      std::string bound;
      if (r.cmp) {
        bound = std::string(to_string(*r.cmp)) + " " + r.text(r.bound);
        if (!r.bound_key.empty()) bound += " [" + r.bound_key + "]";
      }
      table.row({r.name, r.text(r.value), bound,
                 r.cmp ? (r.ok ? "yes" : "NO") : ""});
    }
    table.print();
    std::printf("\nShape check: %s: %s\n", claim_.c_str(), verdict().c_str());
  }

  /// {"bench":..,"claim":..,"holds":..,"rows":[{"name","value","unit",
  /// "cmp","bound","baseline_key","ok"}..],"latency":{..}}
  [[nodiscard]] std::string json() const {
    std::string out = "{\"bench\":";
    out += json_quote(bench_);
    out += ",\"claim\":";
    out += json_quote(claim_);
    out += holds() ? ",\"holds\":true,\"rows\":[" : ",\"holds\":false,\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out += i == 0 ? "{\"name\":" : ",{\"name\":";
      out += json_quote(r.name);
      out += ",\"value\":";
      out += r.json(r.value);
      if (!r.unit.empty()) {
        out += ",\"unit\":";
        out += json_quote(r.unit);
      }
      if (r.cmp) {
        out += ",\"cmp\":\"";
        out += to_string(*r.cmp);
        out += "\",\"bound\":";
        out += r.json(r.bound);
        if (!r.bound_key.empty()) {
          out += ",\"baseline_key\":";
          out += json_quote(r.bound_key);
        }
        out += r.ok ? ",\"ok\":true" : ",\"ok\":false";
      }
      out += '}';
    }
    out += "],\"latency\":";
    out += latency.json();
    return out + "}\n";
  }

  /// Prints, writes --json (bare: BENCH_<bench>.json) and returns the
  /// exit code: 0 when every check holds, 1 otherwise or when the JSON
  /// cannot be written.
  [[nodiscard]] int finish(int argc, char** argv) const {
    print();
    if (has_flag(argc, argv, "--json")) {
      const std::string fallback = "BENCH_" + bench_ + ".json";
      const char* path = flag_value(argc, argv, "--json", fallback.c_str());
      std::FILE* out = std::fopen(path, "w");
      if (out == nullptr) {
        std::printf("cannot write %s\n", path);
        return 1;
      }
      std::fputs(json().c_str(), out);
      std::fclose(out);
      std::printf("wrote %s\n", path);
    }
    return holds() ? 0 : 1;
  }

 private:
  struct Row {
    std::string name;
    double value = 0;
    std::string unit;
    std::optional<Cmp> cmp;  ///< none: reported, not gated
    double bound = 0;
    std::string bound_key;
    bool ok = true;
    bool boolean = false;

    /// Integral values print whole; others to four significant digits
    /// (one decimal from 100 up).
    [[nodiscard]] std::string text(double v) const {
      if (boolean) return v != 0 ? "yes" : "no";
      const char* f = std::floor(v) == v ? "%.0f"
                          : (v >= 100 || v <= -100 ? "%.1f" : "%.4g");
      return format(f, v) + (unit.empty() ? "" : " " + unit);
    }
    [[nodiscard]] std::string json(double v) const {
      return boolean ? (v != 0 ? "true" : "false") : format("%.12g", v);
    }
  };

  [[nodiscard]] std::string verdict() const {
    const std::vector<std::string> failed = failing();
    if (failed.empty()) return "HOLDS";
    std::string out = "VIOLATED (";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      out += (i == 0 ? "" : ", ") + failed[i];
    }
    return out + ")";
  }

  static std::string format(const char* f, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
  }

  std::string bench_;
  std::string claim_;
  std::string baseline_path_;
  std::optional<std::string> baseline_;  ///< the baseline file's text
  std::vector<Row> rows_;
};

/// Sum of one counter (or the max of one gauge) over every daemon of
/// `overlay`, read from the registry the daemons bound into.
inline std::uint64_t overlay_metric(const obs::MetricsRegistry& registry,
                                    spines::Overlay& overlay,
                                    const std::string& metric,
                                    bool max = false) {
  std::uint64_t total = 0;
  for (const auto& id : overlay.node_ids()) {
    const auto v = static_cast<std::uint64_t>(
        registry.value("spines.daemon." + id + "." + metric));
    total = max ? std::max(total, v) : total + v;
  }
  return total;
}

/// Adds one overlay's forwarding, queueing and control-plane totals as
/// reported rows, summed over its daemons from `registry` (the one its
/// daemons bound into).
inline void add_overlay_rows(Report& report, const std::string& label,
                             spines::Overlay& overlay,
                             const obs::MetricsRegistry& registry) {
  const std::string o = label + " overlay ";
  const auto row = [&](const std::string& name, const std::string& metric,
                       const char* unit = "") {
    report.add(o + name,
               static_cast<double>(overlay_metric(registry, overlay, metric)),
               unit);
  };
  row("data forwarded", "data_forwarded");
  row("data delivered", "data_delivered");
  row("route recomputes", "route_recomputes");
  row("route recomputes coalesced", "route_recomputes_coalesced");
  row("dedup evictions", "dedup_evictions");
  row("queue-full drops", "dropped_queue_full");
  const char* priority[3] = {"lo", "med", "hi"};
  for (int p = 0; p < 3; ++p) {
    report.add(o + "max queue depth " + priority[p],
               static_cast<double>(overlay_metric(
                   registry, overlay, "max_queue_depth" + std::to_string(p),
                   /*max=*/true)));
  }
  row("LSUs sent", "lsu_sent");
  row("LSU retransmits", "lsu_retransmits");
  row("LSU bytes sent", "lsu_bytes_sent", "B");
  row("LSUs accepted", "lsu_accepted");
  row("hellos sent", "hellos_sent");
  row("acks sent", "acks_sent");
  row("link packets sent", "packets_sent");
}

/// Adds the egress tail drops (SwitchStats::frames_dropped_queue) of
/// every site switch of a deployment as reported rows.
inline void add_switch_drop_rows(Report& report, const std::string& prefix,
                                 scada::SpireDeployment& sys) {
  for (std::uint32_t site = 0; site < sys.site_count(); ++site) {
    const std::string s = prefix + "site " + std::to_string(site);
    report.add(s + " internal switch egress drops",
               static_cast<double>(
                   sys.internal_site_switch(site).stats().frames_dropped_queue));
    report.add(s + " external switch egress drops",
               static_cast<double>(
                   sys.external_site_switch(site).stats().frames_dropped_queue));
  }
}

/// Adds the proactive-recovery scheduler's counters: completion-gated
/// slot accounting (the in-flight high-water checked against k, the
/// completions against `min_completed` when nonzero), wall time per
/// recovery, and the state-transfer volume. Reads `prime.recovery.*`
/// from `registry`, the one the scheduler bound into.
inline void add_recovery_rows(Report& report, const std::string& prefix,
                              const obs::MetricsRegistry& registry,
                              std::uint32_t k,
                              std::uint64_t min_completed = 0) {
  const std::string p = prefix + "recovery ";
  const auto metric = [&](const char* name) {
    return static_cast<double>(
        registry.value(std::string("prime.recovery.") + name));
  };
  const auto ms = [&](const char* name) { return metric(name) / 1000.0; };
  const double completed = metric("completed");
  report.add(p + "takedowns", metric("takedowns"));
  if (min_completed > 0) {
    report.check(p + "completed", completed, Cmp::kGe,
                 static_cast<double>(min_completed));
  } else {
    report.add(p + "completed", completed);
  }
  report.add(p + "deferred ticks", metric("deferred_ticks"));
  report.check(p + "in-flight high-water", metric("in_flight_high_water"),
               Cmp::kLe, k);
  report.add(p + "wall last", ms("last_recovery_wall_us"), "ms");
  report.add(p + "wall max", ms("max_recovery_wall_us"), "ms");
  report.add(p + "wall mean",
             completed > 0 ? ms("total_recovery_wall_us") / completed : 0.0,
             "ms");
  report.add(p + "state transfer", metric("transfer_bytes"), "B");
  report.add(p + "StateReqs", metric("state_reqs"));
}

/// Runs fn(i) for each independent instance i in [0, n) on `workers`
/// threads: instance i runs on thread i mod workers, and each thread
/// takes its instances in index order. Instances share no mutable
/// state (each owns its Simulator, registry and tracer), so results
/// never depend on the worker count. One worker runs everything on the
/// calling thread. Returns after every thread has joined, so the
/// caller may then read every instance; an exception thrown by fn on a
/// worker is rethrown on the caller after the join.
template <class Fn>
void run_instances(std::size_t n, unsigned workers, Fn fn) {
  const std::size_t threads = std::min<std::size_t>(workers, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A worker's exception is rethrown here once every thread has joined.
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::jthread> pool;  // joins on scope exit
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&fn, &errors, n, threads, t] {
        try {
          for (std::size_t i = t; i < n; i += threads) fn(i);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace spire::bench
