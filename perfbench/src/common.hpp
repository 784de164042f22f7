// Shared pieces of the delta-server benchmark: clocks, sample sets, the
// per-layer table, the outcome a workload hands back to main(), and the
// correctness ledger every workload keeps apart from the program.
//
// Every timing here is taken from outside the program, around one public
// call. The only numbers read from inside the program are the spans the
// server already emits (obs.sample_rate), the lock-wait cell it keeps when
// obs.lock_profile is set, and DeltaServer::metrics().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/delta_server.hpp"
#include "obs/trace_span.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of a few values (set-up repetitions, per-round figures).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Latency samples in microseconds.
class Samples {
 public:
  void add(double us) { values_.push_back(us); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double sum() const {
    double total = 0;
    for (double v : values_) total += v;
    return total;
  }
  /// Nearest-rank quantile, q in [0, 1].
  double quantile(double q) const { return quantile_of(values_.begin(), values_.end(), q); }

  /// Median, over consecutive windows of `window` samples, of each window's
  /// q-quantile (one window when there are fewer samples). The host this
  /// runs on stalls now and then for tens of milliseconds; a stall lands in
  /// one window and moves the whole-run p99 by itself, but not the median
  /// across windows. A slowdown the program causes shows in every window.
  double windowed_quantile(std::size_t window, double q) const;

  /// Median, over the same windows, of samples per second when each sample
  /// is one request's on-clock time in microseconds.
  double windowed_rate(std::size_t window) const;

 private:
  using Iter = std::vector<double>::const_iterator;
  static double quantile_of(Iter first, Iter last, double q) {
    if (first == last) return 0;
    std::vector<double> sorted(first, last);
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  template <typename F>
  double per_window(std::size_t window, F f) const;

  std::vector<double> values_;
};

template <typename F>
double Samples::per_window(std::size_t window, F f) const {
  const std::size_t n = values_.size();
  if (n < window || window == 0) return f(values_.begin(), values_.end());
  std::vector<double> per;
  for (std::size_t i = 0; i + window <= n; i += window) {
    per.push_back(f(values_.begin() + static_cast<std::ptrdiff_t>(i),
                    values_.begin() + static_cast<std::ptrdiff_t>(i + window)));
  }
  return median(std::move(per));
}

inline double Samples::windowed_quantile(std::size_t window, double q) const {
  return per_window(window, [q](Iter first, Iter last) { return quantile_of(first, last, q); });
}

inline double Samples::windowed_rate(std::size_t window) const {
  return per_window(window, [](Iter first, Iter last) {
    double us = 0;
    for (Iter it = first; it != last; ++it) us += *it;
    return us == 0 ? 0 : static_cast<double>(last - first) / (us / 1e6);
  });
}

/// Time and calls per layer, keyed by the module-named layer
/// ("core.encode", "proxy.get", ...).
class LayerTable {
 public:
  void add(const std::string& layer, std::uint64_t ns, std::uint64_t calls = 1) {
    Cell& c = cells_[layer];
    c.ns += ns;
    c.calls += calls;
  }
  /// Mean microseconds per call; 0 for a layer the workload never used.
  double mean_us(const std::string& layer) const {
    const auto it = cells_.find(layer);
    if (it == cells_.end() || it->second.calls == 0) return 0;
    return static_cast<double>(it->second.ns) / 1e3 / static_cast<double>(it->second.calls);
  }
  std::uint64_t total_ns(const std::string& layer) const {
    const auto it = cells_.find(layer);
    return it == cells_.end() ? 0 : it->second.ns;
  }
  /// Fold one sampled request's server spans into the core.* layers. Self
  /// time of "serve" is its duration minus its child spans; "queue" is the
  /// worker pool's span and lands in pool.queue_wait.
  void add_spans(const cbde::obs::TraceContext& trace) {
    const auto& spans = trace.spans();
    std::vector<std::uint64_t> child_us(spans.size() + 1, 0);
    for (const auto& s : spans) {
      if (s.end_us == 0 || s.parent == 0) continue;
      child_us[s.parent] += s.end_us - s.start_us;
    }
    for (const auto& s : spans) {
      if (s.end_us == 0) continue;
      const std::uint64_t dur = s.end_us - s.start_us;
      if (s.name == "queue") {
        add("pool.queue_wait", dur * 1000);
      } else if (s.name == "serve") {
        add("core.serve_self", (dur - std::min(dur, child_us[s.id])) * 1000);
      } else {
        add("core." + s.name, dur * 1000);
      }
    }
  }
  /// Plain-text table: layer, calls, total ms, mean us, share of `wall_ns`,
  /// and whether the layer counts in coverage (measured) or in the residual.
  std::string render(std::uint64_t wall_ns, const std::vector<std::string>& covered,
                     const std::vector<std::string>& residual = {}) const {
    const auto named = [](const std::vector<std::string>& names, const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %10s %12s %10s %8s %s\n", "layer", "calls",
                  "total_ms", "mean_us", "share", "cover");
    out += line;
    for (const auto& [name, c] : cells_) {
      const char* cover = named(covered, name) ? "measured" : named(residual, name) ? "residual" : "";
      std::snprintf(line, sizeof(line), "%-28s %10llu %12.3f %10.2f %7.2f%% %s\n",
                    name.c_str(), static_cast<unsigned long long>(c.calls),
                    static_cast<double>(c.ns) / 1e6,
                    c.calls == 0 ? 0.0 : static_cast<double>(c.ns) / 1e3 / static_cast<double>(c.calls),
                    wall_ns == 0 ? 0.0 : 100.0 * static_cast<double>(c.ns) / static_cast<double>(wall_ns),
                    cover);
      out += line;
    }
    return out;
  }
  /// Share of `wall_ns` that the named (disjoint) layers account for.
  double coverage(std::uint64_t wall_ns, const std::vector<std::string>& covered) const {
    std::uint64_t sum = 0;
    for (const auto& name : covered) sum += total_ns(name);
    return wall_ns == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(wall_ns);
  }

 private:
  struct Cell {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Cell> cells_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (never parsed).
  std::vector<std::string> notes;
  /// The traced run's per-layer table (empty for an untraced run).
  std::string layer_table;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Record a failed correctness check; the first few are kept as notes.
  void wrong(const std::string& what) {
    if (correct || notes.size() < 32) notes.push_back("CHECK FAILED: " + what);
    correct = false;
  }
};

/// Whole rounds until `seconds` of round time have passed. Every round
/// sets up afresh: the previous set-up is torn down, `setup()` is timed into
/// `setup_s` (so setup_s is a median over the run's rounds, taken seconds
/// apart), and `round(set_up)` runs on the result. Set-up time is not round
/// time. Returns the last set-up; `rounds` is the number of rounds.
template <typename F, typename R>
auto run_rounds(double seconds, F setup, R round, std::vector<double>& setup_s,
                std::size_t& rounds, Outcome& out) {
  decltype(setup()) s;
  double round_s = 0;
  std::string line = "set-up seconds per round:";
  rounds = 0;
  do {
    s.reset();
    const std::uint64_t t0 = now_ns();
    s = setup();
    const std::uint64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    round(*s);
    round_s += static_cast<double>(now_ns() - t1) / 1e9;
    ++rounds;
    char value[32];
    std::snprintf(value, sizeof(value), " %.4f", setup_s.back());
    line += value;
  } while (round_s < seconds);
  out.note(line);
  return s;
}

/// Byte ledger kept by the benchmark itself, compared against
/// DeltaServer::metrics() at the end of every round.
struct Ledger {
  std::uint64_t requests = 0;
  std::uint64_t delta_responses = 0;
  std::uint64_t direct_responses = 0;
  std::uint64_t direct_bytes = 0;     ///< document sizes
  std::uint64_t wire_bytes = 0;       ///< response bodies
  std::uint64_t base_bytes = 0;       ///< base-files handed to clients
  std::uint64_t origin_base_bytes = 0;  ///< of those, charged to the origin
  std::uint64_t delta_raw_bytes = 0;  ///< uncompressed deltas (delta responses)
  std::uint64_t delta_wire_bytes = 0; ///< compressed deltas (delta responses)
  std::uint64_t grouping_tries = 0;

  void add(const Ledger& o) {
    requests += o.requests;
    delta_responses += o.delta_responses;
    direct_responses += o.direct_responses;
    direct_bytes += o.direct_bytes;
    wire_bytes += o.wire_bytes;
    base_bytes += o.base_bytes;
    origin_base_bytes += o.origin_base_bytes;
    delta_raw_bytes += o.delta_raw_bytes;
    delta_wire_bytes += o.delta_wire_bytes;
    grouping_tries += o.grouping_tries;
  }
  /// Account one ServedResponse (the server's view of the request).
  void count(const cbde::core::ServedResponse& r) {
    ++requests;
    direct_bytes += r.doc_size;
    wire_bytes += r.wire_body.size();
    grouping_tries += r.grouping_tries;
    if (r.mode == cbde::core::ServedResponse::Mode::kDelta) {
      ++delta_responses;
      delta_raw_bytes += r.delta_size;
      delta_wire_bytes += r.wire_body.size();
      if (r.base_needed) base_bytes += r.base_size;
    } else {
      ++direct_responses;
    }
  }
  double origin_bytes_per_req() const {
    return requests == 0 ? 0
                         : static_cast<double>(wire_bytes + origin_base_bytes) /
                               static_cast<double>(requests);
  }
};

/// The round-end checks shared by every workload: the benchmark's own sums
/// against DeltaServer::metrics(), and requests == direct + delta.
void check_ledger(const Ledger& mine, const cbde::core::PipelineMetrics& server,
                  const std::string& where, Outcome& out);

/// Per-layer counts every traced run reports, normalised per 1000 requests
/// or per response so runs of different lengths compare.
struct ServerCounts {
  std::uint64_t requests = 0;
  std::uint64_t classes_created = 0;
  std::uint64_t group_rebases = 0;
  std::uint64_t basic_rebases = 0;
  std::uint64_t anonymizations = 0;
  std::uint64_t delta_responses = 0;
  std::uint64_t direct_responses = 0;
  std::uint64_t delta_fallbacks = 0;
  std::uint64_t grouping_tries = 0;
  std::uint64_t delta_raw_bytes = 0;
  std::uint64_t delta_wire_bytes = 0;

  /// Add one finished round: the server's counters plus the ledger's sums.
  void add_round(const cbde::core::DeltaServer& server, const Ledger& ledger);
  /// Take out counts taken earlier (a warmup's, read with an empty ledger).
  void remove(const ServerCounts& earlier);
};

/// The per-layer metrics, in BENCHMARK.json order. A layer the workload does
/// not use reads 0.
struct LayerReport {
  LayerTable layers;
  ServerCounts counts;
  double lock_wait_share = 0;
  double shard_imbalance = 0;
  double generator_late_us = 0;
  double proxy_hit_ratio = 0;
  double core_allocs_per_req = 0;
  double client_allocs_per_req = 0;
  double coverage = 0;        ///< share of traced time in directly measured layers
  double residual_share = 0;  ///< share in layers taken as a call less its timed parts
  double req_per_s = 0;  ///< the traced run's req_per_s (tracing overhead)

  void emit(Outcome& out) const;
};

/// Resident-set high-water mark of this process, in MiB.
double peak_rss_mb();

/// Shorthand for the layer table's disjoint top-level entries.
using Names = std::vector<std::string>;

}  // namespace perfbench
