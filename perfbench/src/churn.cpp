// churn — one caller over the HTTP wire path, on sites whose content drifts
// fast and whose URLs have no partition rule: HttpClientAgent::get ->
// HttpProxy::handle -> DeltaFrontend::handle_raw, as serialized bytes.
// Many users, a large document set and a low revisit probability keep new
// (user, URL) pairs arriving, so classes are created, rebased and published
// and base-files are distributed.
//
// One round replays the seeded trace on a fresh stack. DeltaFrontend
// generates each document itself, inside handle_raw; the benchmark makes the
// identical OriginServer::document call just before the request (it is also
// the reference the output is checked against) and takes its time off the
// page clock.
#include <algorithm>
#include <map>
#include <memory>

#include "alloc_hook.hpp"
#include "client/http_client.hpp"
#include "compress/compressor.hpp"
#include "core/frontend.hpp"
#include "proxy/http_proxy.hpp"
#include "server/origin.hpp"
#include "trace/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cbde;

/// Latency percentiles and rates are taken per window of this many
/// consecutive requests and reported as the median across windows.
constexpr std::size_t kWindow = 700;
/// A round replays kTraces independent traces, each on a fresh stack, and
/// every round's set-up draws new ones (from the seed and the round's
/// number): averaging over the run's traces keeps one trace's luck in class
/// creation from deciding the run, without letting one stack's memory grow
/// past a few hundred MiB.
constexpr std::size_t kTraces = 3;
/// Rounds a run can hold without two seeds sharing a trace.
constexpr std::uint64_t kMaxRounds = 1000;
constexpr std::size_t kRequestsPerSite = 350;
constexpr std::size_t kUsers = 20000;
constexpr std::size_t kWarmupRequests = 150;
constexpr std::size_t kProxyBytes = 64 * 1024 * 1024;
constexpr std::string_view kBasePath = "/.cbde/base";

trace::TemplateConfig churn_template(std::size_t page_bytes) {
  trace::TemplateConfig config;
  // A thin shared skeleton and a thick per-document part: documents of one
  // URL prefix often fail the grouping match, so the server keeps probing
  // and creating classes.
  config.skeleton_bytes = page_bytes * 55 / 100;
  config.doc_unique_bytes = page_bytes * 25 / 100;
  config.volatile_bytes = page_bytes * 8 / 100;
  config.personal_bytes = page_bytes * 3 / 100;
  config.cohort_bytes = page_bytes * 3 / 100;
  // Fast drift: every volatile slot re-randomizes within two seconds.
  config.volatile_period = 2 * util::kSecond;
  config.num_sections = 12;
  return config;
}

std::vector<trace::SiteConfig> churn_sites() {
  std::vector<trace::SiteConfig> sites(2);
  sites[0].host = "shop.churn.example";
  sites[0].style = trace::UrlStyle::kQueryParam;
  for (int c = 0; c < 12; ++c) sites[0].categories.push_back("aisle" + std::to_string(c));
  sites[0].docs_per_category = 200;
  sites[0].doc_template = churn_template(12 * 1024);
  sites[0].seed = 3001;
  sites[1].host = "news.churn.example";
  sites[1].style = trace::UrlStyle::kPathOnly;
  for (int c = 0; c < 12; ++c) sites[1].categories.push_back("desk" + std::to_string(c));
  sites[1].docs_per_category = 200;
  sites[1].doc_template = churn_template(10 * 1024);
  sites[1].seed = 3002;
  return sites;
}

struct Request {
  std::uint64_t user = 0;
  http::Url url;
  util::SimTime time = 0;
};

struct Setup {
  std::vector<std::unique_ptr<trace::SiteModel>> sites;  // outlive origin
  std::unique_ptr<server::OriginServer> origin;
  std::vector<std::vector<Request>> traces;
};

struct RoundResult {
  Ledger ledger;
  std::size_t storage_bytes = 0;
};

class Churn {
 public:
  Churn(const Args& args, Outcome& out) : args_(args), out_(out) {}

  std::unique_ptr<Setup> setup() {
    auto s = std::make_unique<Setup>();
    s->origin = std::make_unique<server::OriginServer>();
    const auto configs = churn_sites();
    for (const auto& config : configs) {
      s->sites.push_back(std::make_unique<trace::SiteModel>(config));
      s->origin->add_site(*s->sites.back());
    }
    s->traces.resize(kTraces);
    for (std::size_t t = 0; t < kTraces; ++t) {
      for (std::size_t k = 0; k < configs.size(); ++k) {
        trace::WorkloadConfig w;
        w.num_requests = kRequestsPerSite;
        w.num_users = kUsers;
        w.zipf_alpha = 0.6;
        w.revisit_prob = 0.1;
        // 0.4 s between requests: a trace spans minutes of simulated time,
        // past the 120 s group-rebase timeout.
        w.mean_interarrival_us = 400000;
        w.seed = ((args_.seed * kMaxRounds + set_ups_) * kTraces + t) * 104729 + configs[k].seed;
        for (const trace::Request& r : trace::WorkloadGenerator(*s->sites[k], w).generate()) {
          s->traces[t].push_back(Request{r.user_id, r.url, r.time});
        }
      }
      std::stable_sort(s->traces[t].begin(), s->traces[t].end(),
                       [](const Request& a, const Request& b) { return a.time < b.time; });
    }
    // The warmup's pages stay out of the run's page samples.
    Outcome scratch;
    Samples kept = std::move(pages_);
    run_trace(*s, s->traces[0], std::min(kWarmupRequests, s->traces[0].size()), false, scratch);
    pages_ = std::move(kept);
    if (!scratch.correct) throw std::runtime_error("churn warmup produced wrong output");
    ++set_ups_;
    return s;
  }

  /// Replay the first `n` requests of `trace` on a fresh stack: no
  /// partition rule, so every URL is grouped by the default partition.
  RoundResult run_trace(const Setup& s, const std::vector<Request>& trace, std::size_t n,
                        bool traced, Outcome& out) {
    core::DeltaServerConfig config;
    if (traced) config.obs.lock_profile = true;
    core::DeltaFrontend frontend(*s.origin, config, http::RuleBook{});
    const core::DeltaServer& server = frontend.delta_server();
    LayerTable& layers = report_.layers;
    RoundResult result;
    Ledger& ledger = result.ledger;

    util::SimTime now = 0;
    std::uint64_t upstream_ns = 0;  // inside the current proxy.handle call
    proxy::HttpProxy proxy(kProxyBytes, [&](const http::HttpRequest& req) {
      const std::uint64_t t0 = now_ns();
      const util::Bytes wire = req.serialize();
      const std::uint64_t t1 = now_ns();
      const util::Bytes raw = frontend.handle_raw(util::as_view(wire), now);
      const std::uint64_t t2 = now_ns();
      http::HttpResponse resp = http::HttpResponse::parse(util::as_view(raw));
      const std::uint64_t t3 = now_ns();
      upstream_ns = t3 - t0;
      const bool base = req.target.starts_with(kBasePath);
      if (base) ledger.origin_base_bytes += resp.body.size();
      if (traced) {
        layers.add("http.serialize", t1 - t0);
        layers.add(base ? "http.base" : "http.frontend", t2 - t1);
        layers.add("http.parse", t3 - t2);
      }
      return resp;
    });

    std::uint64_t transport_ns = 0;  // inside the current get() call
    std::uint64_t base_fetch_ns = 0;
    const client::Transport transport = [&](const http::HttpRequest& req) {
      upstream_ns = 0;
      const std::uint64_t t0 = now_ns();
      http::HttpResponse resp = proxy.handle(req);
      const std::uint64_t dt = now_ns() - t0;
      transport_ns += dt;
      const bool base = req.target.starts_with(kBasePath);
      if (base) {
        base_fetch_ns += dt;
        ledger.base_bytes += resp.body.size();
      } else {
        ledger.wire_bytes += resp.body.size();
        const auto type = resp.headers.get("Content-Type");
        const bool delta = type && *type == "application/vnd.cbde-delta";
        (delta ? ledger.delta_responses : ledger.direct_responses) += 1;
        last_delta_size_ = delta ? resp.body.size() : 0;
        if (delta) ledger.delta_wire_bytes += resp.body.size();
        // The traced run decompresses it off the clock for compress.ratio.
        if (delta && traced) last_delta_body_ = resp.body;
      }
      if (traced) layers.add("proxy.handle", dt - upstream_ns);
      return resp;
    };

    std::map<std::uint64_t, client::HttpClientAgent> clients;
    std::uint64_t wall_ns = 0;
    std::uint64_t client_allocs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& req = trace[i];
      now = req.time;
      std::uint64_t t = now_ns();
      const auto doc = s.origin->document(req.url, req.user, req.time);
      const std::uint64_t doc_ns = now_ns() - t;
      if (!doc) {
        out.wrong("origin has no document for " + req.url.to_string());
        continue;
      }
      client::HttpClientAgent& agent = clients.try_emplace(req.user, req.user).first->second;
      transport_ns = 0;
      base_fetch_ns = 0;
      const std::uint64_t a0 = traced ? bench::alloc_count() : 0;
      const std::uint64_t t0 = now_ns();
      util::Bytes body;
      try {
        body = agent.get(req.url, transport);
      } catch (const std::exception& e) {
        ++out.failed;
        out.note(std::string("churn request failed: ") + e.what());
        continue;
      }
      const std::uint64_t t1 = now_ns();
      const std::uint64_t a1 = traced ? bench::alloc_count() : 0;
      const std::uint64_t get_ns = t1 - t0;
      pages_.add(static_cast<double>(get_ns - std::min(get_ns, doc_ns)) / 1e3);
      if (traced) {
        layers.add("server.document", doc_ns);
        layers.add("client.self", get_ns - std::min(get_ns, transport_ns));
        if (base_fetch_ns > 0) layers.add("client.base_fetch", base_fetch_ns);
        wall_ns += get_ns;
        client_allocs += a1 - a0;
      }

      ++ledger.requests;
      ledger.direct_bytes += doc->size();
      if (body != *doc) out.wrong("page differs from the origin document");
      if (last_delta_size_ != 0) {
        if (last_delta_size_ >= doc->size()) out.wrong("delta body not smaller than document");
        if (traced) {
          ledger.delta_raw_bytes += compress::decompress(util::as_view(last_delta_body_)).size();
        }
      }
    }
    check_ledger(ledger, server.metrics(), "churn round", out);
    result.storage_bytes = server.storage_bytes();
    if (traced) {
      // Inside handle_raw the serve call is timed by the server's own
      // always-on histograms; the frontend's own work is the rest, less the
      // document it generates.
      const auto& reg = server.obs().registry();
      const auto* serve = reg.find_histogram(obs::shard_metric_name("cbde_shard_serve_microseconds", 0));
      const auto* encode = reg.find_histogram("cbde_server_encode_latency_microseconds");
      const std::uint64_t serve_ns = serve ? serve->sum() * 1000 : 0;
      layers.add("core.serve", serve_ns, serve ? serve->count() : 0);
      if (encode) layers.add("core.encode", encode->sum() * 1000, encode->count());
      const std::uint64_t frontend_ns = layers.total_ns("http.frontend") - frontend_seen_ns_;
      frontend_seen_ns_ = layers.total_ns("http.frontend");
      const std::uint64_t doc_in_frontend = layers.total_ns("server.document") - doc_seen_ns_;
      doc_seen_ns_ = layers.total_ns("server.document");
      const std::uint64_t self = frontend_ns - std::min(frontend_ns, serve_ns + doc_in_frontend);
      layers.add("http.handle", self, ledger.requests);
      layers.add("server.document.in_frontend", doc_in_frontend, ledger.requests);
      report_.counts.add_round(server, ledger);
      const core::GroupingStats g = server.grouping_stats();
      std::uint64_t tries = 0;
      for (std::size_t b = 0; b < g.tries.buckets(); ++b) tries += b * g.tries.bucket(b);
      tries += g.tries.overflow() * g.tries.buckets();
      report_.counts.grouping_tries += tries;
      wall_ns_ += wall_ns;
      client_allocs_ += client_allocs;
      hits_ += proxy.stats().hits;
      lookups_ += proxy.stats().hits + proxy.stats().misses;
    }
    return result;
  }

  Outcome run() {
    std::vector<double> setup_s;
    Ledger total;
    std::size_t storage = 0;  // summed over every trace of the run
    std::size_t rounds = 0;
    const auto round = [&](const Setup& set_up) {
      for (const auto& trace : set_up.traces) {
        const RoundResult r = run_trace(set_up, trace, trace.size(), args_.trace, out_);
        total.add(r.ledger);
        storage += r.storage_bytes;
      }
    };
    const std::unique_ptr<Setup> s =
        run_rounds(args_.seconds, [this] { return setup(); }, round, setup_s, rounds, out_);
    std::size_t per_round = 0;
    for (const auto& trace : s->traces) per_round += trace.size();
    storage /= rounds * s->traces.size();
    out_.attempted = rounds * per_round;
    out_.note("churn: rounds=" + std::to_string(rounds) + " traces/round=" +
              std::to_string(s->traces.size()) + " requests/round=" + std::to_string(per_round) +
              " server_storage_kb/trace=" + std::to_string(storage / 1024) + " page p50 " +
              std::to_string(static_cast<int>(pages_.windowed_quantile(kWindow, 0.50))) +
              " us, p99 " +
              std::to_string(static_cast<int>(pages_.windowed_quantile(kWindow, 0.99))) + " us");

    if (!args_.trace) {
      out_.metric("setup_s", median(setup_s), "s");
      out_.metric("req_per_s", pages_.windowed_rate(kWindow), "req/s");
      out_.metric("origin_bytes_per_req", total.origin_bytes_per_req(), "B");
      out_.metric("server_storage_kb", static_cast<double>(storage) / 1024.0, "KiB");
      out_.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      return out_;
    }
    // The page clock covers get(). Its disjoint parts, measured directly:
    // serialize and parse for page and base requests, the frontend on base
    // requests, and on page requests the serve call (the server's own
    // histogram) and the document the frontend generates. The rest is
    // residual, each a timed call less its timed parts: the client's own
    // work (get less the transport), the proxy's (handle less upstream) and
    // the frontend's on page requests (handle_raw less serve and document).
    LayerTable& layers = report_.layers;
    const Names covered = {"http.serialize", "http.parse", "http.base", "core.serve",
                           "server.document.in_frontend"};
    const Names residual = {"client.self", "proxy.handle", "http.handle"};
    report_.coverage = layers.coverage(wall_ns_, covered);
    report_.residual_share = layers.coverage(wall_ns_, residual);
    report_.layers.add("client.reconstruct", layers.total_ns("client.self"),
                       total.requests);
    report_.proxy_hit_ratio = lookups_ == 0 ? 0 : static_cast<double>(hits_) / lookups_;
    report_.client_allocs_per_req =
        total.requests == 0 ? 0 : static_cast<double>(client_allocs_) / total.requests;
    report_.req_per_s = pages_.windowed_rate(kWindow);
    report_.emit(out_);
    out_.layer_table = layers.render(wall_ns_, covered, residual);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "coverage of traced page time: %.2f%% measured, %.2f%% residual\n",
                  100.0 * report_.coverage, 100.0 * report_.residual_share);
    out_.layer_table += line;
    return out_;
  }

 private:
  const Args& args_;
  Outcome& out_;
  Samples pages_;
  LayerReport report_;
  std::size_t last_delta_size_ = 0;  ///< 0 when the last page was direct
  util::Bytes last_delta_body_;
  std::uint64_t wall_ns_ = 0;
  std::uint64_t client_allocs_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t frontend_seen_ns_ = 0;
  std::uint64_t doc_seen_ns_ = 0;
  std::uint64_t set_ups_ = 0;  ///< rounds set up so far: picks the round's traces
};

}  // namespace

Outcome run_churn(const Args& args) {
  Outcome out;
  Churn workload(args, out);
  return workload.run();
}

}  // namespace perfbench
