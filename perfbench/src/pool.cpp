// pool — an open loop of independent users feeding DeltaWorkerPool over a
// sharded DeltaServer: a stretch of seeded Poisson arrivals at a fixed
// offered rate, then one saturating burst, per round.
//
// The generator is the main thread; with the pool's workers it uses no more
// threads than the host has cores. Each request is timed from the moment it
// was due, so a generator that falls behind charges its lateness to the
// requests it delays. Responses are checked off the clock after each phase
// drains. Documents are generated during set-up: origin work stays off the
// clock and out of the generator's way.
#include <algorithm>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "alloc_hook.hpp"
#include "client/agent.hpp"
#include "core/delta_worker_pool.hpp"
#include "server/origin.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cbde;

/// The fixed offered rate (req/s) and the requests offered at it per round.
/// One serve of these pages takes about 2.5 ms and the pool of three
/// workers saturates near 1200 req/s on a 4-core host; at a sixth of that
/// knee, latency is service time plus a little queueing. The traced run
/// folds the spans of this phase.
constexpr double kOfferedRate = 200;
constexpr std::size_t kOfferedRequests = 400;
/// Requests of the saturating burst that measures the pool's capacity.
constexpr std::size_t kBurstRequests = 2400;
/// Once the burst has filled the pool's queue (128 jobs), each submit
/// returns as a worker takes a job off it, so submits that follow this many
/// pace the pool's steady-state completion rate. The capacity is the median
/// of that rate over windows of kBurstWindow submits: the host stalls now
/// and then, and a stall lands in one window rather than in every burst.
constexpr std::size_t kBurstFilled = 256;
constexpr std::size_t kBurstWindow = 200;
/// Server shards, and categories spread over them by crc32 routing.
constexpr std::size_t kShards = 4;
constexpr std::size_t kCategories = 16;
constexpr std::size_t kDocsPerCategory = 40;
constexpr std::size_t kUsers = 4000;
/// Distinct documents generated in set-up; requests cycle through them.
constexpr std::size_t kDocuments = 1024;
constexpr std::size_t kWarmupRequests = 400;
/// Poll at most this many of the oldest outstanding requests per pass.
constexpr std::size_t kPollWindow = 64;

struct Item {
  std::uint64_t user = 0;
  http::Url url;
  util::Bytes doc;
};

struct Setup {
  std::unique_ptr<trace::SiteModel> site;
  std::unique_ptr<core::DeltaServer> server;
  std::vector<Item> items;
  /// Due offsets (ns from the start of the offered phase): seeded Poisson
  /// arrivals at kOfferedRate.
  std::vector<std::uint64_t> due;
  std::vector<std::size_t> shard_split;  ///< categories per shard
  core::PipelineMetrics warm;            ///< server counters after warmup
  ServerCounts warm_counts;              ///< the same, for the traced counts
  util::SimTime clock = 0;               ///< simulated time after warmup
  // Kept by the benchmark beside this server, for the off-clock checks.
  std::map<std::pair<core::ClassId, std::uint32_t>, util::Bytes> bases;
  client::ClientAgent client;
  Ledger ledger;  ///< the requests after warmup
};

trace::SiteConfig pool_site() {
  trace::SiteConfig site;
  site.host = "www.pool.example";
  site.style = trace::UrlStyle::kPathSegment;
  site.categories.clear();
  for (std::size_t c = 0; c < kCategories; ++c) {
    site.categories.push_back("dept" + std::to_string(c));
  }
  site.docs_per_category = kDocsPerCategory;
  site.doc_template.skeleton_bytes = 11000;
  site.doc_template.doc_unique_bytes = 1200;
  site.doc_template.volatile_bytes = 600;
  site.doc_template.personal_bytes = 250;
  site.doc_template.cohort_bytes = 350;
  site.doc_template.num_sections = 16;
  site.seed = 2001;
  return site;
}

/// A finished request as the generator saw it.
struct Done {
  std::size_t item = 0;
  double latency_us = 0;  ///< due -> response ready
  double late_us = 0;     ///< due -> submitted
  core::ServedResponse resp;
};

class Pool {
 public:
  Pool(const Args& args, Outcome& out) : args_(args), out_(out) {}

  std::unique_ptr<Setup> setup() {
    auto s = std::make_unique<Setup>();
    s->site = std::make_unique<trace::SiteModel>(pool_site());
    const trace::SiteModel& site = *s->site;
    http::RuleBook rules;
    rules.add_rule(site.config().host, site.partition_rule());
    s->shard_split.assign(kShards, 0);
    for (std::size_t c = 0; c < kCategories; ++c) {
      const http::UrlParts parts = rules.partition(site.url_for(trace::DocRef{c, 0}));
      ++s->shard_split[core::DeltaServer::route(parts.server_part, parts.hint_part, kShards)];
    }

    core::DeltaServerConfig config;
    config.shards = kShards;
    if (args_.trace) {
      config.obs.sample_rate = 0.5;
      config.obs.lock_profile = true;
    }
    s->server = std::make_unique<core::DeltaServer>(config, rules);

    util::Rng rng(args_.seed * 0x9E3779B97F4A7C15ull + 17);
    const auto pick = [&] {
      return trace::DocRef{static_cast<std::size_t>(rng.next_below(kCategories)),
                           static_cast<std::size_t>(rng.next_below(kDocsPerCategory))};
    };
    // Warmup: create and publish every class before the clock starts.
    for (std::size_t i = 0; i < kWarmupRequests; ++i) {
      const trace::DocRef ref = i < kCategories ? trace::DocRef{i, 0} : pick();
      const std::uint64_t user = rng.next_below(kUsers);
      const util::Bytes doc = site.generate(ref, user, s->clock);
      s->server->serve(user, site.url_for(ref), util::as_view(doc), s->clock);
      s->clock += 10 * 1000;
    }
    s->warm = s->server->metrics();
    s->warm_counts.add_round(*s->server, Ledger{});

    s->items.reserve(kDocuments);
    for (std::size_t i = 0; i < kDocuments; ++i) {
      const trace::DocRef ref = pick();
      const std::uint64_t user = rng.next_below(kUsers);
      s->items.push_back(Item{user, site.url_for(ref), site.generate(ref, user, s->clock)});
      s->clock += 1000;
    }
    double t = 0;
    for (std::size_t j = 0; j < kOfferedRequests; ++j) {
      s->due.push_back(static_cast<std::uint64_t>(t));
      t += rng.exponential(1e9 / kOfferedRate);
    }
    return s;
  }

  struct Pending {
    std::size_t item;
    std::uint64_t due_ns;
    std::uint64_t sent_ns;
    std::future<core::ServedResponse> future;
  };
  /// Harvest finished requests among the oldest `kPollWindow` outstanding.
  void harvest(std::deque<Pending>& pending, std::vector<Done>& done, Setup& s) {
    std::size_t scanned = 0;
    for (auto it = pending.begin(); it != pending.end() && scanned < kPollWindow; ++scanned) {
      if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const std::uint64_t ready = now_ns();
      Done d;
      d.item = it->item;
      d.latency_us = static_cast<double>(ready - it->due_ns) / 1e3;
      d.late_us = static_cast<double>(it->sent_ns - it->due_ns) / 1e3;
      try {
        d.resp = it->future.get();
        remember_base(d.resp, s);
        done.push_back(std::move(d));
      } catch (const std::exception& e) {
        ++out_.failed;
        out_.note(std::string("pool request failed: ") + e.what());
      }
      it = pending.erase(it);
    }
  }

  /// Keep each published base a response was encoded against, for the
  /// off-clock reconstruction check (fetched once per class version).
  static void remember_base(const core::ServedResponse& r, Setup& s) {
    if (r.mode != core::ServedResponse::Mode::kDelta) return;
    const auto key = std::make_pair(r.class_id, r.base_version);
    if (s.bases.contains(key)) return;
    if (auto base = s.server->fetch_base(r.class_id, r.base_version)) {
      s.bases.emplace(key, std::move(*base));
    }
  }

  /// Until `due_ns`: poll the outstanding requests, so each is timed the
  /// moment it is ready. With nothing outstanding and the next send far off,
  /// sleep instead of holding a core the workers could use, and wake a
  /// margin early so the send is on time.
  void wait_for_due(std::deque<Pending>& pending, std::vector<Done>& done, Setup& s,
                    std::uint64_t due_ns) {
    constexpr std::uint64_t kWakeMarginNs = 1'000'000;
    for (std::uint64_t now = now_ns(); now < due_ns; now = now_ns()) {
      if (pending.empty() && due_ns - now > kWakeMarginNs) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
            std::chrono::nanoseconds(due_ns - kWakeMarginNs)});
      }
      harvest(pending, done, s);
    }
  }

  /// Offer the seeded arrivals open-loop; returns the finished requests.
  std::vector<Done> run_offered(core::DeltaWorkerPool& pool, Setup& s) {
    std::vector<Done> done;
    done.reserve(s.due.size());
    std::deque<Pending> pending;
    const std::uint64_t start = now_ns() + 1'000'000;
    for (std::size_t j = 0; j < s.due.size(); ++j) {
      const std::uint64_t due_ns = start + s.due[j];
      wait_for_due(pending, done, s, due_ns);
      const std::size_t item = j % s.items.size();
      const Item& it = s.items[item];
      const std::uint64_t sent = now_ns();
      pending.push_back(Pending{item, due_ns, sent,
                                pool.submit(it.user, it.url, it.doc, s.clock)});
      s.clock += 1000;
      harvest(pending, done, s);
    }
    while (!pending.empty()) harvest(pending, done, s);
    return done;
  }

  struct Burst {
    double req_per_s = 0;      ///< whole burst: requests over first submit to last ready
    std::vector<double> windows;  ///< steady-state rate per window of submits
    std::uint64_t allocs = 0;  ///< from the first submit until every future is ready
  };
  /// Saturating burst: submit back to back (the pool's bounded queue blocks
  /// the generator when full). The generator allocates nothing of its own
  /// between the first submit and the last future's readiness, so the
  /// allocation count is the pool's and the server's.
  Burst run_burst(core::DeltaWorkerPool& pool, Setup& s, std::vector<Done>& done) {
    std::vector<std::future<core::ServedResponse>> futures;
    futures.reserve(kBurstRequests);
    std::vector<std::uint64_t> submitted(kBurstRequests);
    const std::uint64_t a = bench::alloc_count();
    const std::uint64_t start = now_ns();
    for (std::size_t j = 0; j < kBurstRequests; ++j) {
      const Item& it = s.items[j % s.items.size()];
      futures.push_back(pool.submit(it.user, it.url, it.doc, s.clock));
      submitted[j] = now_ns();
      s.clock += 1000;
    }
    for (auto& f : futures) f.wait();
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    Burst burst{static_cast<double>(futures.size()) / seconds, {}, bench::alloc_count() - a};
    for (std::size_t j = kBurstFilled; j + kBurstWindow < kBurstRequests; j += kBurstWindow) {
      const double window_s = static_cast<double>(submitted[j + kBurstWindow] - submitted[j]) / 1e9;
      burst.windows.push_back(static_cast<double>(kBurstWindow) / window_s);
    }
    for (std::size_t j = 0; j < futures.size(); ++j) {
      Done d;
      d.item = j % s.items.size();
      try {
        d.resp = futures[j].get();
        remember_base(d.resp, s);
        done.push_back(std::move(d));
      } catch (const std::exception& e) {
        ++out_.failed;
        out_.note(std::string("pool request failed: ") + e.what());
      }
    }
    return burst;
  }

  /// Off the clock: every response against the origin's document.
  void check(Setup& s, const std::vector<Done>& done) {
    for (const Done& d : done) {
      const core::ServedResponse& r = d.resp;
      const util::Bytes& doc = s.items[d.item].doc;
      s.ledger.count(r);
      s.ledger.origin_base_bytes += r.base_needed ? r.base_size : 0;
      ++shard_requests_[r.shard];
      if (r.mode == core::ServedResponse::Mode::kDirect) {
        if (r.wire_body != doc) out_.wrong("direct body differs from the origin document");
        continue;
      }
      if (r.wire_body.size() >= doc.size()) out_.wrong("delta body not smaller than document");
      const auto base = s.bases.find({r.class_id, r.base_version});
      if (base == s.bases.end()) {
        out_.wrong("base-file version aged out before it could be checked");
        continue;
      }
      const client::BaseRef ref{r.class_id, r.base_version};
      if (s.client.base_version(r.class_id) != r.base_version) s.client.store_base(ref, base->second);
      const std::uint64_t a = args_.trace ? bench::alloc_count() : 0;
      const std::uint64_t t = now_ns();
      const util::Bytes rebuilt = s.client.reconstruct(ref, util::as_view(r.wire_body), r.wire_compressed);
      if (args_.trace) {
        report_.layers.add("client.reconstruct", now_ns() - t);
        client_allocs_ += bench::alloc_count() - a;
      }
      if (rebuilt != doc) out_.wrong("reconstruction differs from the origin document");
    }
  }

  /// The server's counters since warmup, against the benchmark's ledger.
  void check_server(const Setup& s, const std::string& where) {
    core::PipelineMetrics timed = s.server->metrics();
    timed.requests -= s.warm.requests;
    timed.delta_responses -= s.warm.delta_responses;
    timed.direct_responses -= s.warm.direct_responses;
    timed.direct_bytes -= s.warm.direct_bytes;
    timed.wire_bytes -= s.warm.wire_bytes;
    timed.base_wire_bytes -= s.warm.base_wire_bytes;
    check_ledger(s.ledger, timed, where, out_);
  }

  /// Spans and lateness of the offered phase. The layer table holds the
  /// requests the pool sampled at submit (they carry the queue span), so
  /// every layer's share is of the same requests' time, due to ready.
  /// Coverage is that time against the directly measured lateness, queue
  /// wait and serve. The handoff back (ready as the generator saw it, less
  /// the serve span's end) is what is left of each request's time, so it
  /// counts as residual.
  void trace_offered(const std::vector<Done>& done) {
    for (const Done& d : done) {
      late_sum_us_ += d.late_us;
      ++late_count_;
      if (d.resp.trace == nullptr) continue;
      std::uint64_t queue_us = 0;
      std::uint64_t serve_us = 0;
      std::uint64_t serve_end_us = 0;  // from the trace's epoch, set inside submit
      bool sampled_at_submit = false;
      for (const auto& span : d.resp.trace->spans()) {
        if (span.end_us == 0) continue;
        if (span.name == "serve") {
          serve_us = span.end_us - span.start_us;
          serve_end_us = span.end_us;
        }
        if (span.name == "queue") {
          queue_us = span.end_us - span.start_us;
          sampled_at_submit = true;
        }
      }
      if (!sampled_at_submit) continue;
      report_.layers.add_spans(*d.resp.trace);
      report_.layers.add("core.serve", serve_us * 1000);
      // The trace's epoch is taken inside submit, a few microseconds after
      // the send time it is measured against here.
      const double since_send_us = d.latency_us - d.late_us;
      const double handoff_us = std::max(0.0, since_send_us - static_cast<double>(serve_end_us));
      const auto ns = [](double us) { return static_cast<std::uint64_t>(us * 1e3); };
      report_.layers.add("pool.generator_late", ns(d.late_us));
      report_.layers.add("pool.handoff", ns(handoff_us));
      covered_ns_ += ns(d.late_us) + (queue_us + serve_us) * 1000;
      residual_ns_ += ns(handoff_us);
      traced_wall_ns_ += ns(d.latency_us);
    }
  }

  /// Server-side allocations per request, counted over one burst on a
  /// server set up like the others but untraced: spans allocate, and the
  /// traced server samples most requests. Its responses are checked like
  /// every other.
  double server_allocs_per_req(std::size_t workers) {
    Args untraced_args = args_;
    untraced_args.trace = false;
    Pool untraced(untraced_args, out_);
    untraced.shard_requests_.assign(kShards, 0);
    std::unique_ptr<Setup> s = untraced.setup();
    std::vector<Done> done;
    Burst burst;
    {
      core::DeltaWorkerPool pool(*s->server, workers);
      burst = untraced.run_burst(pool, *s, done);
    }
    untraced.check(*s, done);
    untraced.check_server(*s, "pool untraced burst");
    return static_cast<double>(burst.allocs) / kBurstRequests;
  }

  /// One round on a fresh set-up: the offered phase, then the burst, each
  /// checked once it has drained.
  void run_round(Setup& s, std::size_t workers) {
    // The shard mutexes' shared lock-wait cell (obs.lock_profile).
    const util::LockWaitCell* lock_cell =
        args_.trace ? &s.server->obs().lock_wait_profile(
                          "cbde_lock_wait_seconds_server_shard",
                          "Wait to acquire a shard mutex (one site shared by all shards)")
                    : nullptr;
    {
      core::DeltaWorkerPool pool(*s.server, workers);
      const std::uint64_t wait0 = lock_cell ? lock_cell->wait_ns.load() : 0;
      std::vector<Done> done = run_offered(pool, s);
      if (lock_cell) offered_wait_ns_ += lock_cell->wait_ns.load() - wait0;
      for (const Done& d : done) offered_latency_.add(d.latency_us);
      if (args_.trace) trace_offered(done);
      check(s, done);
      done.clear();
      const Burst burst = run_burst(pool, s, done);
      burst_rps_.push_back(burst.req_per_s);
      burst_windows_.insert(burst_windows_.end(), burst.windows.begin(), burst.windows.end());
      check(s, done);
      pool.shutdown();
    }
    check_server(s, "pool round");
    total_.add(s.ledger);
    if (args_.trace) {
      report_.counts.add_round(*s.server, s.ledger);
      report_.counts.remove(s.warm_counts);
    }
  }

  Outcome run() {
    shard_requests_.assign(kShards, 0);
    // The generator is the main thread: with the workers, one per core.
    const std::size_t workers = std::max<unsigned>(2, std::thread::hardware_concurrency()) - 1;
    std::vector<double> setup_s;
    std::size_t rounds = 0;
    const std::unique_ptr<Setup> s = run_rounds(
        args_.seconds, [this] { return setup(); },
        [&](Setup& set_up) { run_round(set_up, workers); }, setup_s, rounds, out_);
    out_.attempted = rounds * (kOfferedRequests + kBurstRequests);

    char line[200];
    std::snprintf(line, sizeof(line),
                  "pool %.0f req/s offered: n=%zu p50=%.0fus p99=%.0fus from due time; "
                  "whole-burst req/s per round:",
                  kOfferedRate, offered_latency_.size(), offered_latency_.quantile(0.5),
                  offered_latency_.quantile(0.99));
    std::string bursts = line;
    for (double r : burst_rps_) bursts += " " + std::to_string(static_cast<int>(r));
    out_.note(bursts);
    std::string split = "pool: rounds=" + std::to_string(rounds) +
                        " workers=" + std::to_string(workers) +
                        " shards=" + std::to_string(kShards) + " categories/shard=";
    for (std::size_t k = 0; k < kShards; ++k) {
      split += (k ? "," : "") + std::to_string(s->shard_split[k]);
    }
    split += " requests/shard=";
    for (std::size_t k = 0; k < kShards; ++k) {
      split += (k ? "," : "") + std::to_string(shard_requests_[k]);
    }
    out_.note(split);

    if (!args_.trace) {
      out_.metric("setup_s", median(setup_s), "s");
      out_.metric("req_per_s", median(burst_windows_), "req/s");
      out_.metric("origin_bytes_per_req", total_.origin_bytes_per_req(), "B");
      out_.metric("server_storage_kb", static_cast<double>(s->server->storage_bytes()) / 1024.0,
                  "KiB");
      out_.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      return out_;
    }

    // Lock wait over the offered phases, against the serve time of all
    // their requests (mean of the traced ones times the phases' requests).
    const double offered_serve_ns = report_.layers.mean_us("core.serve") * 1e3 *
                                    static_cast<double>(rounds * kOfferedRequests);
    report_.lock_wait_share =
        offered_serve_ns == 0 ? 0 : static_cast<double>(offered_wait_ns_) / offered_serve_ns;
    const double mean_shard = static_cast<double>(total_.requests) / kShards;
    report_.shard_imbalance =
        static_cast<double>(*std::max_element(shard_requests_.begin(), shard_requests_.end())) /
        mean_shard;
    report_.generator_late_us = late_count_ == 0 ? 0 : late_sum_us_ / late_count_;
    report_.client_allocs_per_req =
        static_cast<double>(client_allocs_) / static_cast<double>(total_.requests);
    report_.coverage =
        traced_wall_ns_ == 0 ? 0 : static_cast<double>(covered_ns_) / traced_wall_ns_;
    report_.residual_share =
        traced_wall_ns_ == 0 ? 0 : static_cast<double>(residual_ns_) / traced_wall_ns_;
    report_.req_per_s = median(burst_windows_);
    report_.core_allocs_per_req = server_allocs_per_req(workers);
    out_.attempted += kBurstRequests;
    report_.emit(out_);
    const Names covered = {"pool.generator_late", "pool.queue_wait", "core.serve"};
    out_.layer_table = report_.layers.render(traced_wall_ns_, covered, {"pool.handoff"});
    std::snprintf(line, sizeof(line),
                  "coverage of traced due-to-ready time: %.2f%% measured, %.2f%% residual "
                  "(pool.handoff)  lock wait share %.4f\n",
                  100.0 * report_.coverage, 100.0 * report_.residual_share,
                  report_.lock_wait_share);
    out_.layer_table += line;
    return out_;
  }

 private:
  Args args_;
  Outcome& out_;
  Ledger total_;
  LayerReport report_;
  Samples offered_latency_;
  std::vector<double> burst_rps_;
  std::vector<double> burst_windows_;
  std::vector<std::uint64_t> shard_requests_;
  std::uint64_t client_allocs_ = 0;
  std::uint64_t traced_wall_ns_ = 0;
  std::uint64_t covered_ns_ = 0;
  std::uint64_t residual_ns_ = 0;
  std::uint64_t offered_wait_ns_ = 0;
  double late_sum_us_ = 0;
  std::uint64_t late_count_ = 0;
};

}  // namespace

Outcome run_pool(const Args& args) {
  Outcome out;
  Pool workload(args, out);
  return workload.run();
}

}  // namespace perfbench
