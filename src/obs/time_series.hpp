// Windowed time-series over the MetricsRegistry (docs/OBSERVABILITY.md,
// "Time-series recorder").
//
// Cumulative counters and one-shot histograms answer "how much, ever"; the
// capacity questions of §VI-C need "how much, per window": per-shard request
// rates, latency quantiles that drift over a replay, lock-wait share. The
// TimeSeriesRecorder snapshots the registry at each tick(), diffs the
// snapshot against the previous one into a TimeSeriesWindow — counter
// deltas/rates, gauge values, histogram-diff quantiles (the log-linear
// buckets merge and therefore also *diff* bucket-by-bucket) — keeps a
// bounded ring of windows, and optionally appends one JSONL line per window
// keyed by a monotonic tick.
//
// Derived per-window statistics (all computed from the diffed buckets, no
// extra instrumentation):
//   * shard_rate[k]   — Δ cbde_shard_<k>_requests_total / window seconds;
//   * imbalance       — max(shard_rate) / mean(shard_rate), 1.0 = perfectly
//                       balanced, 0 when the window saw no shard traffic;
//                       computed from the per-shard request counts, so it
//                       is exact for exact count ratios;
//   * serve quantiles — p50/p95/p99 of the per-shard serve histograms
//                       merged across shards (µs);
//   * lock_wait_share — Δ seconds spent waiting in cbde_lock_wait_seconds_*
//                       over Δ seconds of serve work. Can exceed 1 when many
//                       workers pile on one lock.
//
// Concurrency: tick() may be called manually (benches, tests) or by the
// background snapshot thread (start()/stop(), interval_us > 0); ticks
// serialize on the recorder's own mu_. The JSONL append happens strictly
// after mu_ is released, under the dedicated io_mu_ — the recorder never
// holds a registry, shard or pool mutex while writing (the cbde_sema
// blocking pass pins this; see PRIVATE_SINK_MUTEXES there).
//
// Compile-out (CBDE_OBS_OFF): counters and gauges stay live, so tick()
// still produces counter deltas; but now_us() is 0 (all rates and spans
// read 0), histograms never populate, and start() refuses to spawn the
// snapshot thread.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "util/thread_annotations.hpp"

namespace cbde::obs {

struct TimeSeriesConfig {
  /// Most recent windows retained in memory.
  std::size_t ring_capacity = 64;
  /// JSONL sink, one line per window; empty = ring only.
  std::string jsonl_path;
  /// Background snapshot cadence for start(); 0 = manual tick() only.
  std::uint64_t interval_us = 0;
};

/// One histogram's contribution to a window: observations that happened
/// inside the window, summarized. Quantities are scaled by the histogram's
/// unit_scale (so lock-wait windows read in seconds).
struct HistogramWindow {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  bool reset = false;  ///< the cumulative series went backwards
};

struct TimeSeriesWindow {
  std::uint64_t tick = 0;     ///< monotonic, first window is 1
  std::uint64_t wall_us = 0;  ///< now_us() at the closing snapshot
  double span_seconds = 0.0;  ///< wall time since the previous snapshot
  bool reset = false;         ///< any series went backwards this window
  std::map<std::string, double> counter_delta;
  std::map<std::string, double> counter_rate;  ///< delta / span_seconds
  std::map<std::string, std::int64_t> gauge;
  std::map<std::string, HistogramWindow> histogram;
  // Derived shard statistics (empty/zero when the registry carries no
  // per-shard series).
  std::vector<double> shard_rate;
  double imbalance = 0.0;
  std::uint64_t serve_requests = 0;
  double serve_p50_us = 0.0;
  double serve_p95_us = 0.0;
  double serve_p99_us = 0.0;
  double lock_wait_share = 0.0;
};

/// Bucketwise `cur - prev`. A cumulative histogram only grows; any bucket,
/// count or sum going backwards means the underlying series was reset (new
/// process, wraparound) — then the window falls back to `cur` outright and
/// `*reset` is set. Snapshots of different resolution also count as a
/// reset.
HistogramSnapshot diff_histogram(const HistogramSnapshot& prev,
                                 const HistogramSnapshot& cur, bool* reset);

/// Quantile over one window of buckets: the scaled upper bound of the
/// bucket containing rank ceil(q * count). 0 on an empty window; +infinity
/// when the rank lands in the overflow bucket. `q` in (0, 1].
double histogram_window_quantile(const HistogramSnapshot& window, double q);

/// count/sum/p50/p95/p99 of one diffed window (scaled by unit_scale).
HistogramWindow summarize_histogram_window(const HistogramSnapshot& window);

/// Parse "cbde_shard_<k>_<suffix>" → shard index; false when `name` is not
/// that family. Exposed for the bench/tooling side.
bool parse_shard_series(std::string_view name, std::string_view suffix,
                        std::size_t* shard);

class TimeSeriesRecorder {
 public:
  /// Takes the epoch snapshot immediately, so the first tick() covers
  /// activity since construction. `registry` must outlive the recorder.
  /// Truncates `config.jsonl_path` if set.
  TimeSeriesRecorder(MetricsRegistry& registry, TimeSeriesConfig config);
  /// Stops the background thread (if running) and flushes the sink.
  ~TimeSeriesRecorder();

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Close the current window: snapshot, diff, ring-append, JSONL-append.
  /// Serializes with concurrent ticks; safe alongside live writers (the
  /// snapshot is per-metric atomic — cross-metric skew is bounded by one
  /// window).
  TimeSeriesWindow tick() EXCLUDES(mu_, io_mu_);

  /// Spawn the background snapshot thread (one tick per interval_us).
  /// No-op when interval_us == 0, under CBDE_OBS_OFF, or when already
  /// running. stop() is idempotent and also run by the destructor.
  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);

  /// Ring contents, oldest first.
  std::vector<TimeSeriesWindow> windows() const EXCLUDES(mu_);
  /// Ticks taken so far.
  std::uint64_t ticks() const EXCLUDES(mu_);

  /// One JSONL line (newline included) — the export schema
  /// (docs/OBSERVABILITY.md, "Time-series schema").
  static std::string to_jsonl(const TimeSeriesWindow& w);

 private:
  void run() EXCLUDES(mu_);
  TimeSeriesWindow build_window(const std::map<std::string, MetricSample>& prev,
                                const std::map<std::string, MetricSample>& cur,
                                std::uint64_t prev_wall_us, std::uint64_t wall_us,
                                std::uint64_t tick) const;

  MetricsRegistry& registry_;
  const TimeSeriesConfig config_;

  mutable Mutex mu_;
  CondVar wake_;
  bool stop_requested_ GUARDED_BY(mu_) = false;
  bool thread_running_ GUARDED_BY(mu_) = false;
  std::thread thread_ GUARDED_BY(mu_);
  std::uint64_t next_tick_ GUARDED_BY(mu_) = 1;
  std::uint64_t prev_wall_us_ GUARDED_BY(mu_) = 0;
  std::map<std::string, MetricSample> prev_ GUARDED_BY(mu_);
  std::deque<TimeSeriesWindow> ring_ GUARDED_BY(mu_);

  /// Serializes only the JSONL append; never nested with mu_ (released
  /// first) or any registry/shard/pool mutex.
  Mutex io_mu_;
  std::ofstream sink_ GUARDED_BY(io_mu_);
  bool sink_open_ = false;  ///< set in the constructor, immutable after
};

}  // namespace cbde::obs
