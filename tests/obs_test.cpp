// cbde::obs: registry semantics, histogram bucket math, Prometheus golden
// exposition, trace-span nesting through the real serve path, event log,
// config keys, and the PipelineMetrics == registry parity invariant.
//
// Tests that depend on histogram samples, spans or events skip themselves
// under CBDE_OBS_OFF (observe/emit compile to no-ops there); counters and
// gauges are live in every build flavor, so the parity test always runs.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/config_loader.hpp"
#include "core/delta_server.hpp"
#include "core/delta_worker_pool.hpp"
#include "obs/obs.hpp"
#include "trace/site.hpp"

namespace cbde::obs {
namespace {

// ------------------------------------------------------------ histograms

TEST(ObsHistogram, ExactBucketsThenLogLinearOctaves) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("cbde_test_layout_microseconds", "layout", 4);
  // Values 0..3 get exact buckets with inclusive bound == value.
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(h.bucket_index(v), v);
    EXPECT_EQ(h.upper_bound(v), static_cast<double>(v));
  }
  // Octave [4,8): 4 sub-buckets of width 1.
  EXPECT_EQ(h.bucket_index(4), 4u);
  EXPECT_EQ(h.upper_bound(4), 4.0);
  EXPECT_EQ(h.bucket_index(7), 7u);
  // Octave [8,16): 4 sub-buckets of width 2 — 8 and 9 share a bucket.
  EXPECT_EQ(h.bucket_index(8), h.bucket_index(9));
  EXPECT_NE(h.bucket_index(9), h.bucket_index(10));
  EXPECT_EQ(h.upper_bound(h.bucket_index(8)), 9.0);
}

TEST(ObsHistogram, InclusiveBoundInvariantAcrossOctaves) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("cbde_test_bounds_microseconds", "bounds", 8);
  // Every value must fall at or below its bucket's bound and strictly above
  // the previous bucket's bound, across all octaves and at the powers of two.
  std::vector<std::uint64_t> probes;
  for (unsigned e = 0; e <= Histogram::kMaxExponent; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    probes.push_back(p);
    probes.push_back(p + 1);
    if (p > 1) probes.push_back(p - 1);
  }
  for (const std::uint64_t v : probes) {
    const std::size_t i = h.bucket_index(v);
    ASSERT_LT(i, h.num_buckets());
    EXPECT_LE(static_cast<double>(v), h.upper_bound(i)) << "value " << v;
    if (i > 0) {
      EXPECT_GT(static_cast<double>(v), h.upper_bound(i - 1)) << "value " << v;
    }
  }
}

TEST(ObsHistogram, OverflowBucketIsPlusInf) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("cbde_test_overflow_bytes", "overflow", 4);
  const std::uint64_t big = std::uint64_t{1} << Histogram::kMaxExponent;
  EXPECT_EQ(h.bucket_index(big), h.num_buckets() - 1);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<std::uint64_t>::max()),
            h.num_buckets() - 1);
  EXPECT_TRUE(std::isinf(h.upper_bound(h.num_buckets() - 1)));
}

TEST(ObsHistogram, EqualResolutionHistogramsMergeBucketByBucket) {
  if (kCompiledOut) GTEST_SKIP() << "observe() compiled out (CBDE_OBS_OFF)";
  // Boundaries depend only on sub_buckets, so two histograms with equal s
  // merge by adding counts bucket-wise; the merge must equal a histogram
  // that observed the union of the samples.
  MetricsRegistry reg;
  Histogram& a = reg.histogram("cbde_test_merge_left_bytes", "left", 4);
  Histogram& b = reg.histogram("cbde_test_merge_right_bytes", "right", 4);
  Histogram& all = reg.histogram("cbde_test_merge_union_bytes", "union", 4);
  const std::vector<std::uint64_t> left = {0, 3, 5, 9, 77, 4096};
  const std::vector<std::uint64_t> right = {1, 5, 8, 100, 65535};
  for (const auto v : left) { a.observe(v); all.observe(v); }
  for (const auto v : right) { b.observe(v); all.observe(v); }
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  ASSERT_EQ(a.num_buckets(), all.num_buckets());
  for (std::size_t i = 0; i < all.num_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i) + b.bucket_count(i), all.bucket_count(i))
        << "bucket " << i;
  }
  EXPECT_EQ(a.sum() + b.sum(), all.sum());
  EXPECT_EQ(a.count() + b.count(), all.count());
}

// ------------------------------------------------------------ registry

TEST(ObsRegistry, RegistrationIdempotentKindChecked) {
  // Repeated/invalid registrations below exercise the registry's own
  // validation, so they opt out of the one-site-per-name lint.
  MetricsRegistry reg;
  Counter& c1 = reg.counter("cbde_test_requests_total", "requests");  // lint: obs-ok validation test
  Counter& c2 = reg.counter("cbde_test_requests_total", "requests");  // lint: obs-ok validation test
  EXPECT_EQ(&c1, &c2);
  EXPECT_THROW(reg.gauge("cbde_test_requests_total", "kind clash"),  // lint: obs-ok validation test
               std::invalid_argument);
  EXPECT_THROW(reg.counter("0bad name", "invalid"), std::invalid_argument);  // lint: obs-ok validation test
  Histogram& h1 = reg.histogram("cbde_test_sizes_bytes", "sizes", 8);  // lint: obs-ok validation test
  EXPECT_EQ(&h1, &reg.histogram("cbde_test_sizes_bytes", "sizes", 8));  // lint: obs-ok validation test
  EXPECT_THROW(reg.histogram("cbde_test_sizes_bytes", "sizes", 16),  // lint: obs-ok validation test
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("cbde_test_oddsize_bytes", "odd", 3),  // lint: obs-ok validation test
               std::invalid_argument);
  EXPECT_EQ(reg.find_counter("cbde_test_requests_total"), &c1);
  EXPECT_EQ(reg.find_counter("cbde_test_never_registered_total"), nullptr);
  EXPECT_EQ(reg.find_gauge("cbde_test_requests_total"), nullptr);
}

TEST(ObsRegistry, PrometheusExpositionGolden) {
  if (kCompiledOut) GTEST_SKIP() << "histogram samples compiled out";
  MetricsRegistry reg;
  reg.counter("cbde_golden_requests_total", "Total requests observed.").add(3);
  reg.double_counter("cbde_golden_cpu_microseconds_total", "Modeled CPU.").add(2.5);
  reg.gauge("cbde_golden_queue_depth", "Depth.").set(7);
  Histogram& h =
      reg.histogram("cbde_golden_latency_microseconds", "Latency.", 4);
  h.observe(0);
  h.observe(5);
  h.observe(9);
  const std::string expected =
      "# HELP cbde_golden_cpu_microseconds_total Modeled CPU.\n"
      "# TYPE cbde_golden_cpu_microseconds_total counter\n"
      "cbde_golden_cpu_microseconds_total 2.5\n"
      "# HELP cbde_golden_latency_microseconds Latency.\n"
      "# TYPE cbde_golden_latency_microseconds histogram\n"
      "cbde_golden_latency_microseconds_bucket{le=\"0\"} 1\n"
      "cbde_golden_latency_microseconds_bucket{le=\"1\"} 1\n"
      "cbde_golden_latency_microseconds_bucket{le=\"2\"} 1\n"
      "cbde_golden_latency_microseconds_bucket{le=\"3\"} 1\n"
      "cbde_golden_latency_microseconds_bucket{le=\"4\"} 1\n"
      "cbde_golden_latency_microseconds_bucket{le=\"5\"} 2\n"
      "cbde_golden_latency_microseconds_bucket{le=\"6\"} 2\n"
      "cbde_golden_latency_microseconds_bucket{le=\"7\"} 2\n"
      "cbde_golden_latency_microseconds_bucket{le=\"9\"} 3\n"
      "cbde_golden_latency_microseconds_bucket{le=\"+Inf\"} 3\n"
      "cbde_golden_latency_microseconds_sum 14\n"
      "cbde_golden_latency_microseconds_count 3\n"
      "# HELP cbde_golden_queue_depth Depth.\n"
      "# TYPE cbde_golden_queue_depth gauge\n"
      "cbde_golden_queue_depth 7\n"
      "# HELP cbde_golden_requests_total Total requests observed.\n"
      "# TYPE cbde_golden_requests_total counter\n"
      "cbde_golden_requests_total 3\n";
  EXPECT_EQ(reg.prometheus(), expected);
  // The JSON export covers the same families.
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"cbde_golden_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
}

TEST(ObsConcurrency, ShardedInstrumentsSumExactlyUnderContention) {
  MetricsRegistry reg;
  Counter& c = reg.counter("cbde_test_contended_total", "contended adds");
  DoubleCounter& d =
      reg.double_counter("cbde_test_cpu_microseconds_total", "cpu");
  Gauge& g = reg.gauge("cbde_test_depth_gauge", "depth");
  Histogram& h = reg.histogram("cbde_test_wait_microseconds", "wait", 4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        d.add(0.25);
        g.add(1);
        h.observe(static_cast<std::uint64_t>(i % 64));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(d.value(), 0.25 * kThreads * kPerThread);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  if (!kCompiledOut) {
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
}

// ------------------------------------------------------------ events

TEST(ObsEvents, RingEvictsOldestAndCountsAllEmitted) {
  if (kCompiledOut) GTEST_SKIP() << "emit() compiled out";
  EventLog log(3);
  for (int i = 0; i < 5; ++i) {
    Event e;
    e.kind = EventKind::kClassCreated;
    e.class_id = static_cast<std::uint64_t>(i);
    log.emit(std::move(e));
  }
  EXPECT_EQ(log.emitted(), 5u);
  const auto recent = log.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent.front().class_id, 2u);  // 0 and 1 evicted
  EXPECT_EQ(recent.back().class_id, 4u);
}

TEST(ObsEvents, JsonlSchemaGoldenAndSinkAppends) {
  if (kCompiledOut) GTEST_SKIP() << "emit() compiled out";
  Event e;
  e.kind = EventKind::kGroupRebase;
  e.sim_time_us = 1500000;
  e.class_id = 42;
  e.fields = {{"base_size", "2048"}};
  EXPECT_EQ(EventLog::to_jsonl(e),
            "{\"event\": \"group_rebase\", \"sim_time_us\": 1500000, "
            "\"class_id\": 42, \"fields\": {\"base_size\": \"2048\"}}");

  const std::string path = testing::TempDir() + "cbde_obs_events.jsonl";
  std::remove(path.c_str());
  EventLog sink(8);
  ASSERT_TRUE(sink.open(path));
  sink.emit(e);
  Event plain;
  plain.kind = EventKind::kPoolSaturated;
  sink.emit(plain);
  sink.flush();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, EventLog::to_jsonl(e));
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"pool_saturated\""), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

// ---------------------------------------------------- serve-path telemetry

struct Rig {
  trace::SiteModel site;
  core::DeltaServer server;

  static trace::SiteConfig site_config() {
    trace::SiteConfig config;
    config.docs_per_category = 10;
    return config;
  }

  static http::RuleBook rules(const trace::SiteModel& site) {
    http::RuleBook book;
    book.add_rule(site.config().host, site.partition_rule());
    return book;
  }

  static core::DeltaServerConfig fast_config(double sample_rate) {
    core::DeltaServerConfig config;
    config.anonymizer.required_docs = 3;
    config.anonymizer.min_common = 1;
    config.selector.sample_prob = 0.3;
    config.obs.sample_rate = sample_rate;
    return config;
  }

  explicit Rig(double sample_rate = 1.0)
      : site(site_config()), server(fast_config(sample_rate), rules(site)) {}

  core::ServedResponse request(std::uint64_t user, std::size_t cat,
                               std::size_t doc, util::SimTime now) {
    const trace::DocRef ref{cat, doc};
    const auto url = site.url_for(ref);
    const util::Bytes body = site.generate(ref, user, now);
    return server.serve(user, url, util::as_view(body), now);
  }

  /// Drive the class through anonymization so later requests are deltas.
  util::SimTime warm_up() {
    util::SimTime now = 0;
    request(1, 0, 0, now);
    for (std::uint64_t user = 2; user <= 4; ++user) {
      now += util::kSecond;
      request(user, 0, user % 10, now);
    }
    return now + util::kSecond;
  }
};

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            std::string_view name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(ObsTrace, SpansNestThroughFullServe) {
  if (kCompiledOut) GTEST_SKIP() << "spans compiled out";
  Rig rig(/*sample_rate=*/1.0);
  const util::SimTime now = rig.warm_up();
  const auto resp = rig.request(9, 0, 5, now);
  ASSERT_EQ(resp.mode, core::ServedResponse::Mode::kDelta);
  ASSERT_NE(resp.trace, nullptr);

  const auto& spans = resp.trace->spans();
  const SpanRecord* serve = find_span(spans, "serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(serve->parent, 0u);  // root
  for (const char* stage : {"group", "encode", "compress", "commit"}) {
    const SpanRecord* s = find_span(spans, stage);
    ASSERT_NE(s, nullptr) << stage;
    EXPECT_EQ(s->parent, serve->id) << stage << " must nest inside serve";
    EXPECT_GE(s->start_us, serve->start_us);
  }
  // The decision is tagged on the spans that made it.
  const SpanRecord* commit = find_span(spans, "commit");
  bool mode_tagged = false;
  for (const auto& [key, value] : commit->tags) {
    if (key == "mode") {
      mode_tagged = true;
      EXPECT_EQ(value, "delta");
    }
  }
  EXPECT_TRUE(mode_tagged);
  // to_json emits every span with its parent edge.
  const std::string json = resp.trace->to_json();
  EXPECT_NE(json.find("\"name\": \"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"encode\""), std::string::npos);
}

TEST(ObsTrace, DirectResponseHasNoEncodeSpan) {
  if (kCompiledOut) GTEST_SKIP() << "spans compiled out";
  Rig rig(/*sample_rate=*/1.0);
  const auto resp = rig.request(1, 0, 0, 0);  // first request: direct
  ASSERT_EQ(resp.mode, core::ServedResponse::Mode::kDirect);
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_NE(find_span(resp.trace->spans(), "group"), nullptr);
  EXPECT_EQ(find_span(resp.trace->spans(), "encode"), nullptr);
}

TEST(ObsTrace, QueueSpanJoinsTheServeTraceAcrossThePool) {
  if (kCompiledOut) GTEST_SKIP() << "spans compiled out";
  Rig rig(/*sample_rate=*/1.0);
  const util::SimTime now = rig.warm_up();
  core::DeltaWorkerPool pool(rig.server, /*workers=*/2);
  const trace::DocRef ref{0, 5};
  auto fut = pool.submit(9, rig.site.url_for(ref),
                         rig.site.generate(ref, 9, now), now);
  const auto resp = fut.get();
  pool.shutdown();
  ASSERT_NE(resp.trace, nullptr);
  const auto& spans = resp.trace->spans();
  const SpanRecord* queue = find_span(spans, "queue");
  const SpanRecord* serve = find_span(spans, "serve");
  ASSERT_NE(queue, nullptr) << "submit() must open the queue span";
  ASSERT_NE(serve, nullptr) << "worker must carry the trace into serve()";
  EXPECT_LT(queue->id, serve->id);  // queued before served
  // Queue wait landed in the histogram.
  const Histogram* wait = rig.server.obs().registry().find_histogram(
      "cbde_pool_queue_wait_microseconds");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 1u);
}

TEST(ObsTrace, PoolSamplingDecisionIsFinal) {
  // The pool draws the sampling decision at submit; serve() must not draw
  // again for the requests the pool left untraced. Each request completes
  // before the next is submitted, the interleaving in which a second draw
  // shifted every later submit off the sampled parity.
  if (kCompiledOut) GTEST_SKIP() << "spans compiled out";
  Rig rig(/*sample_rate=*/0.5);
  const util::SimTime now = rig.warm_up();
  core::DeltaWorkerPool pool(rig.server, /*workers=*/2);
  constexpr int kRequests = 100;
  int traced = 0;
  int with_queue_span = 0;
  for (int i = 0; i < kRequests; ++i) {
    const trace::DocRef ref{static_cast<std::size_t>(i % 2), static_cast<std::size_t>(i % 10)};
    const auto user = static_cast<std::uint64_t>(10 + i % 7);
    const auto resp = pool.submit(user, rig.site.url_for(ref),
                                  rig.site.generate(ref, user, now), now).get();
    if (resp.trace == nullptr) continue;
    ++traced;
    if (find_span(resp.trace->spans(), "queue") != nullptr) ++with_queue_span;
  }
  pool.shutdown();
  EXPECT_EQ(traced, kRequests / 2);
  EXPECT_EQ(with_queue_span, traced);
}

TEST(ObsTrace, SamplingRateZeroMeansNoTraces) {
  Rig rig(/*sample_rate=*/0.0);
  const auto resp = rig.request(1, 0, 0, 0);
  EXPECT_EQ(resp.trace, nullptr);
}

TEST(ObsTrace, SamplingPeriodIsDeterministic) {
  if (kCompiledOut) GTEST_SKIP() << "tracing compiled out";
  ObsConfig config;
  config.sample_rate = 0.5;
  Obs obs(config);
  int sampled = 0;
  for (int i = 0; i < 10; ++i) {
    if (obs.maybe_trace() != nullptr) ++sampled;
  }
  EXPECT_EQ(sampled, 5);  // every 2nd, starting with the first
  const Counter* c =
      obs.registry().find_counter("cbde_obs_traces_sampled_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 5u);
}

TEST(ObsEvents, ServePathEmitsLifecycleEvents) {
  if (kCompiledOut) GTEST_SKIP() << "events compiled out";
  Rig rig(/*sample_rate=*/0.0);
  rig.warm_up();
  bool saw_class_created = false;
  bool saw_published = false;
  bool saw_anonymization = false;
  for (const Event& e : rig.server.obs().events().recent()) {
    saw_class_created |= e.kind == EventKind::kClassCreated;
    saw_published |= e.kind == EventKind::kBasePublished;
    saw_anonymization |= e.kind == EventKind::kAnonymizationComplete;
  }
  EXPECT_TRUE(saw_class_created);
  EXPECT_TRUE(saw_published);
  EXPECT_TRUE(saw_anonymization);
}

// ------------------------------------------------------------- parity

TEST(ObsParity, PipelineMetricsEqualRegistryDerivedValues) {
  // PipelineMetrics is derived FROM the registry counters; this pins the
  // mapping name-by-name on a replayed workload so the two reports can
  // never drift. Byte counters must match exactly (Table II is byte-exact).
  Rig rig(/*sample_rate=*/0.25);
  util::SimTime now = rig.warm_up();
  for (std::uint64_t user = 1; user <= 6; ++user) {
    for (std::size_t doc = 0; doc < 4; ++doc) {
      now += util::kSecond;
      rig.request(user, doc % 2, doc, now);
    }
  }
  const core::PipelineMetrics m = rig.server.metrics();
  const MetricsRegistry& reg = rig.server.obs().registry();
  const auto counter_value = [&](std::string_view name) {
    const Counter* c = reg.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_GT(m.requests, 0u);
  EXPECT_GT(m.delta_responses, 0u);
  EXPECT_EQ(m.requests, counter_value("cbde_server_requests_total"));
  EXPECT_EQ(m.direct_responses,
            counter_value("cbde_server_direct_responses_total"));
  EXPECT_EQ(m.delta_responses,
            counter_value("cbde_server_delta_responses_total"));
  EXPECT_EQ(m.direct_bytes, counter_value("cbde_server_direct_bytes_total"));
  EXPECT_EQ(m.wire_bytes, counter_value("cbde_server_wire_bytes_total"));
  EXPECT_EQ(m.base_wire_bytes,
            counter_value("cbde_server_base_wire_bytes_total"));
  EXPECT_EQ(m.group_rebases, counter_value("cbde_server_group_rebases_total"));
  EXPECT_EQ(m.basic_rebases, counter_value("cbde_server_basic_rebases_total"));
  EXPECT_EQ(m.anonymizations_completed,
            counter_value("cbde_server_anonymizations_total"));
  const DoubleCounter* cpu =
      reg.find_double_counter("cbde_server_cpu_microseconds_total");
  ASSERT_NE(cpu, nullptr);
  EXPECT_DOUBLE_EQ(m.cpu_us_total, cpu->value());
  // Response accounting is complete: every request is direct or delta.
  EXPECT_EQ(m.requests, m.direct_responses + m.delta_responses);
  // The delta-size histogram saw at least the committed delta responses
  // (fallbacks observe too, so >=).
  if (!kCompiledOut) {
    const Histogram* delta_size =
        reg.find_histogram("cbde_server_delta_size_bytes");
    ASSERT_NE(delta_size, nullptr);
    EXPECT_GE(delta_size->count(), m.delta_responses);
    const Histogram* doc_size =
        reg.find_histogram("cbde_server_doc_size_bytes");
    ASSERT_NE(doc_size, nullptr);
    EXPECT_EQ(doc_size->count(), m.requests);
  }
}

TEST(ObsParity, SavingsAndReductionFactorShareZeroConventions) {
  core::PipelineMetrics m;  // no traffic at all
  EXPECT_EQ(m.savings(), 0.0);
  EXPECT_EQ(m.reduction_factor(), 1.0);
  m.wire_bytes = 100;  // pure overhead: sent without any direct baseline
  EXPECT_EQ(m.savings(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(m.reduction_factor(), 0.0);
  m.wire_bytes = 0;
  m.direct_bytes = 100;  // everything saved
  EXPECT_EQ(m.savings(), 1.0);
  EXPECT_EQ(m.reduction_factor(),
            std::numeric_limits<double>::infinity());
  m.wire_bytes = 20;
  m.base_wire_bytes = 5;  // ordinary case: the two are exact inverses
  EXPECT_DOUBLE_EQ(m.savings(), 1.0 - 25.0 / 100.0);
  EXPECT_DOUBLE_EQ(m.reduction_factor(), 100.0 / 25.0);
}

// ------------------------------------------------------------- config

TEST(ObsConfigKeys, ParsedIntoObsConfig) {
  std::istringstream in(
      "[delta-server]\n"
      "obs-sample-rate = 0.25\n"
      "obs-histogram-buckets = 16\n"
      "obs-event-log = /tmp/cbde-events.jsonl\n");
  const auto loaded = core::load_config(in);
  EXPECT_DOUBLE_EQ(loaded.server.obs.sample_rate, 0.25);
  EXPECT_EQ(loaded.server.obs.histogram_sub_buckets, 16u);
  EXPECT_EQ(loaded.server.obs.event_log_path, "/tmp/cbde-events.jsonl");
}

TEST(ObsConfigKeys, RejectsOutOfRangeValues) {
  const auto load = [](std::string_view body) {
    std::istringstream in("[delta-server]\n" + std::string(body));
    return core::load_config(in);
  };
  EXPECT_THROW(load("obs-sample-rate = 1.5\n"), core::ConfigError);
  EXPECT_THROW(load("obs-sample-rate = -0.1\n"), core::ConfigError);
  EXPECT_THROW(load("obs-histogram-buckets = 3\n"), core::ConfigError);
  EXPECT_THROW(load("obs-histogram-buckets = 0\n"), core::ConfigError);
  EXPECT_THROW(load("obs-histogram-buckets = 128\n"), core::ConfigError);
  EXPECT_NO_THROW(load("obs-sample-rate = 1\n"));
  EXPECT_NO_THROW(load("obs-histogram-buckets = 64\n"));
}

TEST(ObsConfigKeys, ExampleConfigRoundTrips) {
  std::istringstream in(core::example_config());
  const auto loaded = core::load_config(in);
  EXPECT_DOUBLE_EQ(loaded.server.obs.sample_rate, 0.01);
  EXPECT_EQ(loaded.server.obs.histogram_sub_buckets, 4u);
}

}  // namespace
}  // namespace cbde::obs
